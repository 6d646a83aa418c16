// Package quiccrypto implements QUIC packet protection: HKDF key derivation
// (RFC 5869 via HMAC-SHA256), the QUIC v1 initial-secret schedule (RFC 9001
// §5.2), AES-128-GCM payload protection with packet-number nonces, and
// AES-based header protection (RFC 9001 §5.4).
//
// The TLS layer is simplified (see DESIGN.md): instead of a full TLS 1.3
// handshake, CRYPTO frames carry toy hello messages whose random values
// seed the handshake and 1-RTT secrets. The derivation, AEAD, and header
// protection code paths are the real algorithms.
//
// HMAC and HKDF run on stack buffers and allocate nothing beyond the
// slices they append to; NewKeys allocates only the Keys and the cipher
// objects it builds.
package quiccrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// initialSalt is the QUIC v1 initial salt (RFC 9001 §5.2), keyed into
// HMAC once.
var initialSalt = newHMACKey([]byte{
	0x38, 0x76, 0x2c, 0xf7, 0xf5, 0x59, 0x34, 0xb3, 0x4d, 0x17,
	0x9a, 0xe6, 0xa4, 0xc8, 0x0c, 0xad, 0xcc, 0xbb, 0x7f, 0x0a,
})

// hmacKey is an HMAC-SHA256 key prepared once (RFC 2104): the key padded
// to the block size and XORed with the inner and outer pad bytes. Every
// MAC under it hashes from these pads into stack buffers, so keying a
// secret once and expanding several labels from it allocates nothing.
type hmacKey struct {
	ipad, opad [sha256.BlockSize]byte
}

func newHMACKey(key []byte) hmacKey {
	var k hmacKey
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	copy(k.ipad[:], key)
	copy(k.opad[:], key)
	for i := range k.ipad {
		k.ipad[i] ^= 0x36
		k.opad[i] ^= 0x5c
	}
	return k
}

// mac returns HMAC-SHA256 over the concatenation of msg.
func (k *hmacKey) mac(msg ...[]byte) [sha256.Size]byte {
	var inner, out [sha256.Size]byte
	h := sha256.New()
	h.Write(k.ipad[:])
	for _, m := range msg {
		h.Write(m)
	}
	h.Sum(inner[:0])
	h.Reset()
	h.Write(k.opad[:])
	h.Write(inner[:])
	h.Sum(out[:0])
	return out
}

// expand appends length bytes of HKDF-Expand(prk, info) to dst, where k
// is keyed with prk.
func (k *hmacKey) expand(dst, info []byte, length int) []byte {
	var t [sha256.Size]byte
	var prev []byte
	for counter := byte(1); length > 0; counter++ {
		t = k.mac(prev, info, []byte{counter})
		n := min(length, len(t))
		dst = append(dst, t[:n]...)
		length -= n
		prev = t[:]
	}
	return dst
}

// expandLabel appends the TLS 1.3 HKDF-Expand-Label(secret, label, "",
// length) used by QUIC (RFC 8446 §7.1) to dst, where k is keyed with the
// secret.
func (k *hmacKey) expandLabel(dst []byte, label string, length int) []byte {
	const prefix = "tls13 "
	var buf [64]byte
	info := binary.BigEndian.AppendUint16(buf[:0], uint16(length))
	info = append(info, byte(len(prefix)+len(label)))
	info = append(info, prefix...)
	info = append(info, label...)
	info = append(info, 0) // empty context
	return k.expand(dst, info, length)
}

// HMAC appends HMAC-SHA256(key, msg[0] || msg[1] || ...) to dst.
func HMAC(dst, key []byte, msg ...[]byte) []byte {
	k := newHMACKey(key)
	sum := k.mac(msg...)
	return append(dst, sum[:]...)
}

// HKDFExtract appends HKDF-Extract(salt, ikm) with SHA-256 to dst.
func HKDFExtract(dst, salt, ikm []byte) []byte {
	return HMAC(dst, salt, ikm)
}

// HKDFExpand appends length bytes of HKDF-Expand(prk, info) with SHA-256
// to dst.
func HKDFExpand(dst, prk, info []byte, length int) []byte {
	k := newHMACKey(prk)
	return k.expand(dst, info, length)
}

// HKDFExpandLabel returns the TLS 1.3 HkdfLabel expansion used by QUIC.
func HKDFExpandLabel(secret []byte, label string, length int) []byte {
	k := newHMACKey(secret)
	return k.expandLabel(nil, label, length)
}

// Keys holds one direction's packet protection material. The nonce and
// the header-protection mask are computed in scratch buffers inside Keys,
// so a Keys is not safe for concurrent use.
type Keys struct {
	aead     cipher.AEAD
	hp       cipher.Block // header protection cipher
	iv       [12]byte
	nonceBuf [12]byte
	mask     [aes.BlockSize]byte
}

// NewKeys derives AEAD and header-protection keys from a traffic secret
// (RFC 9001 §5.1: the "quic key", "quic iv", "quic hp" labels, all
// expanded under one HMAC keying of the secret).
func NewKeys(secret []byte) (*Keys, error) {
	prk := newHMACKey(secret)
	var key, hpKey [16]byte
	var iv [12]byte
	prk.expandLabel(key[:0], "quic key", 16)
	prk.expandLabel(iv[:0], "quic iv", 12)
	prk.expandLabel(hpKey[:0], "quic hp", 16)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	hp, err := aes.NewCipher(hpKey[:])
	if err != nil {
		return nil, err
	}
	return &Keys{aead: aead, hp: hp, iv: iv}, nil
}

// InitialSecrets derives the client and server initial traffic secrets from
// the client's first destination connection ID (RFC 9001 §5.2).
func InitialSecrets(dcid []byte) (client, server []byte) {
	initial := initialSalt.mac(dcid)
	k := newHMACKey(initial[:])
	secrets := k.expandLabel(make([]byte, 0, 64), "client in", 32)
	secrets = k.expandLabel(secrets, "server in", 32)
	return secrets[:32:32], secrets[32:]
}

// SessionSecrets derives the per-direction handshake and 1-RTT
// application traffic secrets from the client hello and the server random
// (the simplified TLS layer's stand-in for the TLS 1.3 key schedule; see
// the package comment): one extract, then four labels under its key.
func SessionSecrets(clientHello, serverRandom []byte) (hsClient, hsServer, appClient, appServer [32]byte) {
	salt := newHMACKey(clientHello)
	master := salt.mac(serverRandom)
	k := newHMACKey(master[:])
	k.expandLabel(hsClient[:0], "c hs traffic", 32)
	k.expandLabel(hsServer[:0], "s hs traffic", 32)
	k.expandLabel(appClient[:0], "c ap traffic", 32)
	k.expandLabel(appServer[:0], "s ap traffic", 32)
	return hsClient, hsServer, appClient, appServer
}

// nonce computes the per-packet AEAD nonce, IV XOR packet number, into the
// keys' scratch buffer and returns it.
func (k *Keys) nonce(pn uint64) []byte {
	k.nonceBuf = k.iv
	for i := 0; i < 8; i++ {
		k.nonceBuf[11-i] ^= byte(pn >> (8 * i))
	}
	return k.nonceBuf[:]
}

// Overhead returns the AEAD tag length added to sealed payloads.
func (k *Keys) Overhead() int { return k.aead.Overhead() }

// Seal encrypts payload with the packet number and associated data (the
// packet header through the packet number field), appends the result to
// dst and returns the extended slice. As with cipher.AEAD, dst's spare
// capacity must not overlap payload (unless dst is payload[:0]) or ad.
func (k *Keys) Seal(dst, payload []byte, pn uint64, ad []byte) []byte {
	return k.aead.Seal(dst, k.nonce(pn), payload, ad)
}

// ErrDecrypt is returned when packet protection removal fails.
var ErrDecrypt = errors.New("quiccrypto: payload authentication failed")

// Open decrypts a sealed payload, appends the plaintext to dst and returns
// the extended slice. As with cipher.AEAD, sealed[:0] as dst decrypts in
// place.
func (k *Keys) Open(dst, sealed []byte, pn uint64, ad []byte) ([]byte, error) {
	out, err := k.aead.Open(dst, k.nonce(pn), sealed, ad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return out, nil
}

// pnLen is the fixed packet number length used on the wire (quicwire emits
// the 4-byte maximum encoding).
const pnLen = 4

// ProtectHeader applies header protection in place: packet[pnOffset:] must
// start with the 4-byte packet number followed by the sealed payload, from
// which the sample is taken (RFC 9001 §5.4.2: sample begins 4 bytes past
// the start of the packet number).
func (k *Keys) ProtectHeader(packet []byte, pnOffset int) error {
	sampleStart := pnOffset + 4
	if sampleStart+16 > len(packet) {
		return fmt.Errorf("quiccrypto: packet too short for header protection sample")
	}
	// The mask is AES-ECB of the 16-byte ciphertext sample under the hp
	// key; its first five bytes are used.
	k.hp.Encrypt(k.mask[:], packet[sampleStart:sampleStart+16])
	mask := k.mask[:5]
	if packet[0]&0x80 != 0 {
		packet[0] ^= mask[0] & 0x0F
	} else {
		packet[0] ^= mask[0] & 0x1F
	}
	for i := 0; i < pnLen; i++ {
		packet[pnOffset+i] ^= mask[1+i]
	}
	return nil
}

// UnprotectHeader removes header protection in place. It relies on this
// implementation's fixed 4-byte packet number encoding: the sample position
// is independent of the (protected) packet number length bits.
func (k *Keys) UnprotectHeader(packet []byte, pnOffset int) error {
	return k.ProtectHeader(packet, pnOffset) // XOR is symmetric
}

// ResetToken derives the 16-byte stateless reset token for a connection ID
// under a static endpoint key (RFC 9000 §10.3.2 recommends a keyed
// pseudorandom function of the CID).
func ResetToken(staticKey, cid []byte) [16]byte {
	k := newHMACKey(staticKey)
	sum := k.mac(cid)
	return [16]byte(sum[:16])
}

// RetryTag computes the Retry pseudo-integrity tag binding a retry token to
// the original DCID (a keyed MAC standing in for the AES-GCM retry tag of
// RFC 9001 §5.8; same binding role, simpler construction).
func RetryTag(staticKey, odcid, token []byte) [16]byte {
	k := newHMACKey(staticKey)
	sum := k.mac([]byte{byte(len(odcid))}, odcid, token)
	return [16]byte(sum[:16])
}
