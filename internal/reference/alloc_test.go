package reference_test

import (
	"testing"

	"repro/internal/quicsim"
	"repro/internal/testutil"
)

// TestQUICStepAllocs pins the in-process SUL step's allocations: one
// connection (both endpoints reset) driven through the full handshake and
// the flow-control exchange, against an in-memory server. What is left is
// what the step must allocate: the key material of each connection's
// packet protection, every datagram handed to a transport, and the
// Oracle Table record of each exchange.
func TestQUICStepAllocs(t *testing.T) {
	word := []string{
		quicsim.SymInitialCrypto, quicsim.SymHandshakeC, quicsim.SymShortStream,
		quicsim.SymShortStream, quicsim.SymShortFC, quicsim.SymShortStream, quicsim.SymShortHD,
	}
	p := testutil.NewQUICPair(quicsim.ProfileGoogle, nil)
	query := func() {
		if err := p.Reset(); err != nil {
			t.Fatal(err)
		}
		for _, sym := range word {
			if _, err := p.Step(sym); err != nil {
				t.Fatal(err)
			}
		}
	}
	query() // warm the symbol and output tables and the scratch buffers
	avg := testing.AllocsPerRun(100, query)
	// Measured at 134 with Go 1.24 (1080 before the step reused scratch
	// buffers and keyed each secret's HMAC once); the bound leaves a little
	// room for standard-library changes.
	if limit := 140.0; avg > limit {
		t.Fatalf("one %d-symbol query allocates %.1f times, want at most %.0f", len(word), avg, limit)
	}
}
