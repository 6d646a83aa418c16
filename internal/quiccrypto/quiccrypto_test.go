package quiccrypto

import (
	"bytes"
	"encoding/hex"
	"testing"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInitialSecretsRFC9001 checks the derivation against the published
// test vectors of RFC 9001 Appendix A.1.
func TestInitialSecretsRFC9001(t *testing.T) {
	dcid := unhex(t, "8394c8f03e515708")
	client, server := InitialSecrets(dcid)
	wantClient := unhex(t, "c00cf151ca5be075ed0ebfb5c80323c42d6b7db67881289af4008f1f6c357aea")
	wantServer := unhex(t, "3c199828fd139efd216c155ad844cc81fb82fa8d7446fa7d78be803acdda951b")
	if !bytes.Equal(client, wantClient) {
		t.Fatalf("client initial secret = %x", client)
	}
	if !bytes.Equal(server, wantServer) {
		t.Fatalf("server initial secret = %x", server)
	}
}

// TestClientInitialKeysRFC9001 checks key/iv/hp expansion against RFC 9001
// Appendix A.1.
func TestClientInitialKeysRFC9001(t *testing.T) {
	client, _ := InitialSecrets(unhex(t, "8394c8f03e515708"))
	key := HKDFExpandLabel(client, "quic key", 16)
	iv := HKDFExpandLabel(client, "quic iv", 12)
	hp := HKDFExpandLabel(client, "quic hp", 16)
	if got := hex.EncodeToString(key); got != "1f369613dd76d5467730efcbe3b1a22d" {
		t.Fatalf("quic key = %s", got)
	}
	if got := hex.EncodeToString(iv); got != "fa044b2f42a3fd3b46fb255c" {
		t.Fatalf("quic iv = %s", got)
	}
	if got := hex.EncodeToString(hp); got != "9f50449e04a0e810283a1e9933adedd2" {
		t.Fatalf("quic hp = %s", got)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	client, server := InitialSecrets([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	ck, err := NewKeys(client)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := NewKeys(server)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("crypto frame bytes")
	ad := []byte("header")
	sealed := ck.Seal(nil, payload, 7, ad)
	if len(sealed) != len(payload)+ck.Overhead() {
		t.Fatalf("sealed length %d", len(sealed))
	}
	opened, err := ck.Open(nil, sealed, 7, ad)
	if err != nil || !bytes.Equal(opened, payload) {
		t.Fatalf("open: %v %q", err, opened)
	}
	// Wrong packet number, AD, or keys must fail.
	if _, err := ck.Open(nil, sealed, 8, ad); err == nil {
		t.Fatal("wrong pn accepted")
	}
	if _, err := ck.Open(nil, sealed, 7, []byte("other")); err == nil {
		t.Fatal("wrong AD accepted")
	}
	if _, err := sk.Open(nil, sealed, 7, ad); err == nil {
		t.Fatal("wrong direction keys accepted")
	}
}

func TestNonceVariesWithPacketNumber(t *testing.T) {
	client, _ := InitialSecrets([]byte{9})
	k, _ := NewKeys(client)
	// nonce returns the keys' scratch buffer, so compare copied values.
	n1 := append([]byte(nil), k.nonce(1)...)
	if bytes.Equal(n1, k.nonce(2)) {
		t.Fatal("nonces must differ per packet number")
	}
	if len(k.nonce(0)) != 12 {
		t.Fatal("nonce must be 12 bytes")
	}
}

func TestHeaderProtectionRoundTrip(t *testing.T) {
	client, _ := InitialSecrets([]byte{0xAB, 0xCD})
	k, _ := NewKeys(client)
	packet := make([]byte, 64)
	for i := range packet {
		packet[i] = byte(i)
	}
	packet[0] = 0xC3 // long header
	orig := append([]byte(nil), packet...)
	pnOffset := 18
	if err := k.ProtectHeader(packet, pnOffset); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(packet, orig) {
		t.Fatal("protection changed nothing")
	}
	// Only the first byte's low nibble and the pn bytes may change.
	if packet[0]&0xF0 != orig[0]&0xF0 {
		t.Fatal("protection touched invariant header bits")
	}
	for i := 1; i < pnOffset; i++ {
		if packet[i] != orig[i] {
			t.Fatalf("protection touched header byte %d", i)
		}
	}
	if err := k.UnprotectHeader(packet, pnOffset); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(packet, orig) {
		t.Fatal("unprotect did not restore packet")
	}
}

func TestHeaderProtectionShortSample(t *testing.T) {
	client, _ := InitialSecrets([]byte{1})
	k, _ := NewKeys(client)
	if err := k.ProtectHeader(make([]byte, 10), 2); err == nil {
		t.Fatal("short sample must error")
	}
}

func TestSessionSecretsDistinct(t *testing.T) {
	cr := []byte("client-random-0123456789abcdef")
	sr := []byte("server-random-0123456789abcdef")
	hc, hs, ac, as := SessionSecrets(cr, sr)
	secrets := [][32]byte{hc, hs, ac, as}
	for i := range secrets {
		for j := i + 1; j < len(secrets); j++ {
			if secrets[i] == secrets[j] {
				t.Fatalf("secrets %d and %d collide", i, j)
			}
		}
	}
	// Deterministic for fixed inputs.
	if hc2, _, _, _ := SessionSecrets(cr, sr); hc != hc2 {
		t.Fatal("handshake secret not deterministic")
	}
}

func TestResetTokenDeterministicPerCID(t *testing.T) {
	key := []byte("static-key")
	a := ResetToken(key, []byte{1, 2, 3})
	b := ResetToken(key, []byte{1, 2, 3})
	c := ResetToken(key, []byte{4, 5, 6})
	if a != b {
		t.Fatal("token not deterministic")
	}
	if a == c {
		t.Fatal("token does not depend on CID")
	}
	d := ResetToken([]byte("other-key"), []byte{1, 2, 3})
	if a == d {
		t.Fatal("token does not depend on key")
	}
}

func TestRetryTagBindsTokenAndODCID(t *testing.T) {
	key := []byte("k")
	base := RetryTag(key, []byte("odcid"), []byte("token"))
	if base == RetryTag(key, []byte("other"), []byte("token")) {
		t.Fatal("tag ignores ODCID")
	}
	if base == RetryTag(key, []byte("odcid"), []byte("forged")) {
		t.Fatal("tag ignores token")
	}
}

func TestHKDFExpandLength(t *testing.T) {
	prk := HKDFExtract(nil, nil, []byte("ikm"))
	for _, n := range []int{1, 16, 32, 33, 64, 100} {
		if got := len(HKDFExpand(nil, prk, []byte("info"), n)); got != n {
			t.Fatalf("HKDFExpand length %d, want %d", got, n)
		}
	}
}
