package quiccrypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// TestHMACRFC4231 checks HMAC against the HMAC-SHA-256 vectors of RFC 4231
// §4.2–4.8, including the truncated output of test case 5 and the keys
// longer than a block of test cases 6 and 7.
func TestHMACRFC4231(t *testing.T) {
	key4 := make([]byte, 25)
	for i := range key4 {
		key4[i] = byte(i + 1)
	}
	for i, c := range []struct {
		key, data []byte
		want      string
	}{
		{bytes.Repeat([]byte{0x0b}, 20), []byte("Hi There"),
			"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
		{[]byte("Jefe"), []byte("what do ya want for nothing?"),
			"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
		{bytes.Repeat([]byte{0xaa}, 20), bytes.Repeat([]byte{0xdd}, 50),
			"773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
		{key4, bytes.Repeat([]byte{0xcd}, 50),
			"82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
		{bytes.Repeat([]byte{0x0c}, 20), []byte("Test With Truncation"),
			"a3b6167473100ee06e0c796c2955552b"},
		{bytes.Repeat([]byte{0xaa}, 131), []byte("Test Using Larger Than Block-Size Key - Hash Key First"),
			"60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
		{bytes.Repeat([]byte{0xaa}, 131), []byte("This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."),
			"9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
	} {
		got := hex.EncodeToString(HMAC(nil, c.key, c.data))[:len(c.want)]
		if got != c.want {
			t.Errorf("RFC 4231 test case %d: HMAC = %s, want %s", i+1, got, c.want)
		}
	}
}

// TestHKDFRFC5869 checks extract and expand against RFC 5869 Appendix A.1
// (test case 1, SHA-256).
func TestHKDFRFC5869(t *testing.T) {
	ikm := bytes.Repeat([]byte{0x0b}, 22)
	salt := unhex(t, "000102030405060708090a0b0c")
	info := unhex(t, "f0f1f2f3f4f5f6f7f8f9")
	prk := HKDFExtract(nil, salt, ikm)
	if got := hex.EncodeToString(prk); got != "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5" {
		t.Fatalf("PRK = %s", got)
	}
	okm := HKDFExpand(nil, prk, info, 42)
	if got := hex.EncodeToString(okm); got != "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865" {
		t.Fatalf("OKM = %s", got)
	}
}

// TestHMACMatchesStdlib checks the stack-buffer HMAC against crypto/hmac
// for keys of every length from 0 to 100 bytes (so shorter than, equal to
// and longer than the 64-byte block) and random messages, split into a
// random number of parts.
func TestHMACMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for keyLen := 0; keyLen <= 100; keyLen++ {
		for trial := 0; trial < 8; trial++ {
			key := make([]byte, keyLen)
			rng.Read(key)
			msg := make([]byte, rng.Intn(300))
			rng.Read(msg)
			var parts [][]byte
			for rest := msg; len(rest) > 0; {
				n := rng.Intn(len(rest) + 1)
				parts = append(parts, rest[:n])
				rest = rest[n:]
			}
			ref := hmac.New(sha256.New, key)
			ref.Write(msg)
			want := ref.Sum(nil)
			prefix := []byte("dst")
			got := HMAC(prefix, key, parts...)
			if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
				t.Fatalf("key %d bytes, msg %d bytes in %d parts: HMAC = %x, want %x",
					keyLen, len(msg), len(parts), got[3:], want)
			}
		}
	}
}
