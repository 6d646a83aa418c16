package reference

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/tcpwire"
)

// TCPTransport delivers one encoded TCP segment to the target and returns
// the encoded response segments.
type TCPTransport interface {
	Send(segment []byte) [][]byte
}

// TCPTransportFunc adapts a function to TCPTransport.
type TCPTransportFunc func(segment []byte) [][]byte

// Send implements TCPTransport.
func (f TCPTransportFunc) Send(segment []byte) [][]byte { return f(segment) }

// TCPExchange is one abstract TCP I/O step with its concrete segments, as
// recorded for the Oracle Table.
type TCPExchange struct {
	AbstractIn  string
	AbstractOut string
	ConcreteIn  tcpwire.Segment
	ConcreteOut []tcpwire.Segment
}

// TCPClientConfig parameterizes the TCP reference client.
type TCPClientConfig struct {
	Seed       int64
	SrcPort    uint16
	DstPort    uint16
	SrcAddr    [4]byte
	DstAddr    [4]byte
	PayloadLen int // payload bytes for symbols with payload length 1
}

// TCPClient is the instrumented TCP reference client: the ~300-line
// replacement for the 2,700-line hand-written mapper of prior work (§3.2).
// It keeps live sequence/acknowledgement state so concretization is just
// "fill in the current numbers".
type TCPClient struct {
	cfg   TCPClientConfig
	tr    TCPTransport
	rng   *rand.Rand
	iss   uint32 // this attempt's initial sequence number
	seq   uint32 // send point: lowest sequence number the peer has not acked
	ack   uint32 // next expected peer sequence number (our ACK field)
	trace []TCPExchange
}

// NewTCPClient returns a client speaking to the given transport.
func NewTCPClient(cfg TCPClientConfig, tr TCPTransport) *TCPClient {
	if cfg.SrcPort == 0 {
		cfg.SrcPort = 40965
	}
	if cfg.DstPort == 0 {
		cfg.DstPort = 44344
	}
	if cfg.PayloadLen == 0 {
		cfg.PayloadLen = 1
	}
	if cfg.SrcAddr == ([4]byte{}) {
		cfg.SrcAddr = [4]byte{10, 0, 0, 2}
	}
	if cfg.DstAddr == ([4]byte{}) {
		cfg.DstAddr = [4]byte{10, 0, 0, 1}
	}
	c := &TCPClient{cfg: cfg, tr: tr}
	c.Reset()
	return c
}

// Reset starts a fresh connection attempt with a fresh (seeded) initial
// sequence number and a new Oracle Table record.
func (c *TCPClient) Reset() error {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.cfg.Seed))
	}
	c.iss = c.rng.Uint32()
	c.seq = c.iss
	c.ack = 0
	c.trace = nil
	return nil
}

// Trace returns the exchanges recorded since the last Reset.
func (c *TCPClient) Trace() []TCPExchange { return c.trace }

// ClearTrace discards recorded exchanges.
func (c *TCPClient) ClearTrace() { c.trace = nil }

// Step sends the concrete segment for one abstract symbol such as
// "SYN(?,?,0)" or "ACK+PSH(?,?,1)" — optionally carrying modifiers like
// "SYN(?,?,0)[SACKOK]" — and returns the abstracted response.
func (c *TCPClient) Step(abstract string) (string, error) {
	base, mods, err := splitTCPMods(abstract)
	if err != nil {
		return "", err
	}
	flags, payloadLen, err := ParseTCPSymbol(base)
	if err != nil {
		return "", err
	}
	seg := tcpwire.Segment{
		SourcePort:      c.cfg.SrcPort,
		DestinationPort: c.cfg.DstPort,
		SeqNumber:       c.seq,
		AckNumber:       c.ack,
		Flags:           flags,
		Window:          65535,
	}
	if payloadLen > 0 {
		seg.Payload = make([]byte, payloadLen)
		for i := range seg.Payload {
			seg.Payload[i] = 'd'
		}
	}
	if mods.sackOK {
		seg.SACKPermitted = true
		seg.WindowScale = clientWindowScale
	}
	if mods.ooo {
		// Out-of-order probe: the payload lands a gap ahead of the send
		// point, which stays put — like a retransmission timer, we keep
		// resending from the lowest unacknowledged byte.
		seg.SeqNumber = c.seq + tcpOOOGap
	}

	responses := c.tr.Send(seg.Encode(c.cfg.SrcAddr, c.cfg.DstAddr))
	absOut := "NIL"
	var concOut []tcpwire.Segment
	for _, raw := range responses {
		out, err := tcpwire.Decode(raw, c.cfg.DstAddr, c.cfg.SrcAddr)
		if err != nil {
			continue // corrupted response: not abstractable
		}
		concOut = append(concOut, out)
		// Track the peer's sequence progression for our next ACK field.
		adv := uint32(len(out.Payload))
		if out.Flags&tcpwire.SYN != 0 || out.Flags&tcpwire.FIN != 0 {
			adv++
		}
		if adv > 0 {
			c.ack = out.SeqNumber + adv
		}
		// Advance-on-ACK: the send point moves only when the peer
		// acknowledges new data (real TCP's snd_una), so probes the peer
		// discards — data before the handshake, duplicate SYNs — never
		// burn sequence space and the client can never outrun the peer's
		// in-order point. RSTs are excluded: their ACK field echoes the
		// offending segment, not the connection's receive state.
		if out.Flags&tcpwire.ACK != 0 && out.Flags&tcpwire.RST == 0 &&
			tcpSeqAfter(out.AckNumber, c.seq) {
			c.seq = out.AckNumber
		}
		absOut = out.Abstract()
	}
	c.trace = append(c.trace, TCPExchange{
		AbstractIn: abstract, AbstractOut: absOut,
		ConcreteIn: seg, ConcreteOut: concOut,
	})
	return absOut, nil
}

// clientWindowScale is the shift the client offers in [SACKOK] SYNs, and
// tcpOOOGap is how far ahead of the in-order point an [OOO] probe lands.
const (
	clientWindowScale = 8
	tcpOOOGap         = 1000
)

// tcpSeqAfter reports whether sequence number a is after b in 32-bit
// serial-number arithmetic.
func tcpSeqAfter(a, b uint32) bool { return int32(a-b) > 0 }

// tcpMods are the option modifiers a TCP abstract symbol may carry in a
// trailing bracket.
type tcpMods struct {
	sackOK bool // SYN offers SACK-permitted plus window scaling
	ooo    bool // data probe is sent out of order (sequence gap)
}

// splitTCPMods splits "FLAGS(?,?,len)[MOD,...]" into the base symbol and
// its modifiers; symbols without a bracket suffix pass through untouched.
func splitTCPMods(s string) (string, tcpMods, error) {
	var m tcpMods
	if !strings.HasSuffix(s, "]") {
		return s, m, nil
	}
	idx := strings.LastIndex(s, "[")
	if idx < 0 {
		return "", m, fmt.Errorf("reference: malformed TCP symbol %q", s)
	}
	for _, part := range strings.Split(s[idx+1:len(s)-1], ",") {
		switch part {
		case "SACKOK":
			m.sackOK = true
		case "OOO":
			m.ooo = true
		default:
			return "", m, fmt.Errorf("reference: unknown TCP symbol modifier %q in %q", part, s)
		}
	}
	return s[:idx], m, nil
}

// ParseTCPSymbol parses the paper's TCP abstract notation "FLAGS(?,?,len)".
// Modifier suffixes are accepted and ignored; Step interprets them.
func ParseTCPSymbol(s string) (tcpwire.Flags, int, error) {
	s, _, err := splitTCPMods(s)
	if err != nil {
		return 0, 0, err
	}
	open := -1
	for i, r := range s {
		if r == '(' {
			open = i
			break
		}
	}
	if open < 0 || len(s) < open+7 || s[len(s)-1] != ')' {
		return 0, 0, fmt.Errorf("reference: malformed TCP symbol %q", s)
	}
	flags, err := tcpwire.ParseFlags(s[:open])
	if err != nil {
		return 0, 0, err
	}
	var payloadLen int
	if _, err := fmt.Sscanf(s[open:], "(?,?,%d)", &payloadLen); err != nil {
		return 0, 0, fmt.Errorf("reference: malformed TCP symbol %q: %v", s, err)
	}
	return flags, payloadLen, nil
}

// TCPAlphabet returns the seven-symbol abstract input alphabet of §6.1.
func TCPAlphabet() []string {
	return []string{
		"SYN(?,?,0)", "SYN+ACK(?,?,0)", "ACK(?,?,0)", "ACK+PSH(?,?,1)",
		"ACK+FIN(?,?,0)", "RST(?,?,0)", "ACK+RST(?,?,0)",
	}
}

// TCPSACKAlphabet returns the tcp-sack target's nine-symbol alphabet: the
// base seven plus a SACK-negotiating SYN and an out-of-order data probe.
func TCPSACKAlphabet() []string {
	return append(TCPAlphabet(), "SYN(?,?,0)[SACKOK]", "ACK+PSH(?,?,1)[OOO]")
}
