package quiccrypto

import "testing"

// TestKeyScheduleAllocs pins HKDF at zero allocations when it appends into
// a buffer with room, and NewKeys at the objects it must build: the Keys
// value, the AEAD's AES block and GCM, and the header-protection block.
func TestKeyScheduleAllocs(t *testing.T) {
	salt, ikm, info := []byte("salt"), []byte("input keying material"), []byte("info")
	buf := make([]byte, 0, 128)
	if avg := testing.AllocsPerRun(200, func() {
		prk := HKDFExtract(buf[:0], salt, ikm)
		HKDFExpand(prk[len(prk):], prk, info, 80)
	}); avg != 0 {
		t.Fatalf("HKDF extract+expand allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		SessionSecrets(salt, ikm)
	}); avg != 0 {
		t.Fatalf("SessionSecrets allocates %.1f allocs/op, want 0", avg)
	}
	secret := HKDFExtract(nil, salt, ikm)
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := NewKeys(secret); err != nil {
			t.Fatal(err)
		}
	}); avg > 4 {
		t.Fatalf("NewKeys allocates %.1f allocs/op, want at most 4", avg)
	}
}

// TestPacketProtectionAllocs pins Seal and Open into a buffer with spare
// capacity, and header protection, at zero allocations.
func TestPacketProtectionAllocs(t *testing.T) {
	client, _ := InitialSecrets([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	k, err := NewKeys(client)
	if err != nil {
		t.Fatal(err)
	}
	header := make([]byte, 22, 256)
	payload := make([]byte, 120)
	plain := make([]byte, 0, 256)
	var pn uint64
	if avg := testing.AllocsPerRun(200, func() {
		pn++
		pkt := k.Seal(header, payload, pn, header)
		if err := k.ProtectHeader(pkt, 18); err != nil {
			t.Fatal(err)
		}
		if err := k.UnprotectHeader(pkt, 18); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Open(plain[:0], pkt[len(header):], pn, header); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Seal/ProtectHeader/Open allocate %.1f allocs/op, want 0", avg)
	}
}
