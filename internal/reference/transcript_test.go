package reference_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/quicsim"
	"repro/internal/reference"
)

// recordingTransport forwards datagrams to an in-process server and folds
// every datagram, in both directions, into a running transcript hash: the
// direction, the datagram's length and its SHA-256. It keeps every
// datagram with a copy taken when it passed, so a test can check that no
// endpoint reused the storage of a datagram it handed out.
type recordingTransport struct {
	inner reference.Transport
	h     hash.Hash
	kept  [][2][]byte
}

func (r *recordingTransport) record(dir byte, src string, d []byte) {
	r.kept = append(r.kept, [2][]byte{d, bytes.Clone(d)})
	sum := sha256.Sum256(d)
	var hdr [5]byte
	hdr[0] = dir
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(d)))
	r.h.Write(hdr[:])
	r.h.Write([]byte(src))
	r.h.Write(sum[:])
}

func (r *recordingTransport) Send(src string, datagram []byte) [][]byte {
	r.record('>', src, datagram)
	out := r.inner.Send(src, datagram)
	for _, d := range out {
		r.record('<', "", d)
	}
	return out
}

// TestWireTranscriptGolden drives a fixed set of words through the real
// packet path and compares a digest of every datagram exchanged with one
// recorded before the hot path was optimised. Any change to key
// derivation, sealing, header protection, packet or frame encoding, or the
// server's and client's connection state shows up here as a different
// digest, so the codec and crypto can be reworked only byte-for-byte.
//
// The words cover every symbol of the google and quic-vn alphabets, the
// Retry exchange (with a correct client and the Issue 3 client that
// retries from a new port), Version Negotiation before and after a
// connection exists, placeholder-key packets the server drops, the
// quiche greeting streams and the mvfst stateless RESET.
func TestWireTranscriptGolden(t *testing.T) {
	I, IHD := quicsim.SymInitialCrypto, quicsim.SymInitialHD
	HC, HHD := quicsim.SymHandshakeC, quicsim.SymHandshakeHD
	FC, ST, SHD := quicsim.SymShortFC, quicsim.SymShortStream, quicsim.SymShortHD
	BV := quicsim.SymInitialBadVer

	plain := [][]string{
		{I, HC, ST},
		{I, HC, ST, ST, FC, FC, ST, FC, ST, ST},
		{IHD, I, HC},
		{I, I},
		{I, HHD, HC},
		{HC, ST, I},
		{I, ST, HC, FC},
		{I, HC, SHD, ST},
		{FC, HHD, SHD, IHD, I, HC, HHD, SHD, ST},
	}
	vn := [][]string{
		{BV, I, I, HC, ST, BV},
		{I, BV, I, HC, FC, ST, ST},
		{BV, BV, IHD, I, HHD},
		{I, I, HC, SHD, FC, ST, BV},
	}
	cases := []struct {
		name  string
		cfg   quicsim.Config
		cli   reference.QUICClientConfig
		words [][]string
		want  string
	}{
		{"google", quicsim.Config{Profile: quicsim.ProfileGoogle, Seed: 7},
			reference.QUICClientConfig{Seed: 11}, plain,
			"a0091215f7b8210564bb4e7203187fbab476848aea7e373d9a3ba775ce9d15aa"},
		{"quiche", quicsim.Config{Profile: quicsim.ProfileQuiche, Seed: 3},
			reference.QUICClientConfig{Seed: 5}, plain,
			"76ed0681e33aec8b713dd7438e896cc7a0dabbbb0b56139b340d82b05a172653"},
		{"mvfst", quicsim.Config{Profile: quicsim.ProfileMvfst, Seed: 7},
			reference.QUICClientConfig{Seed: 11}, plain,
			"34465f4eedc2e365e679d5dc32d239b69a819e70f0ae21b5ebfd7dd565b239a0"},
		{"quic-vn", quicsim.Config{Profile: quicsim.ProfileGoogle, Seed: 7, RetryRequired: true, VersionNegotiation: true},
			reference.QUICClientConfig{Seed: 11}, vn,
			"0a93223e1d1f2388ef58072d54cffd648a2046b8c0a13d1a57201f2557a1dbb1"},
		{"retry-new-port", quicsim.Config{Profile: quicsim.ProfileGoogle, Seed: 7, RetryRequired: true},
			reference.QUICClientConfig{Seed: 11, RetryFromNewPort: true}, vn[:2],
			"dede2ec5315e9c9f04ca9753ae1a2c586e8c72775d0352dbb5def75278ca69ac"},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		srv := quicsim.NewServer(c.cfg)
		rec := &recordingTransport{inner: reference.ServerTransport(srv), h: sha256.New()}
		cli := reference.NewQUICClient(c.cli, rec)
		for _, word := range c.words {
			run(t, cli, srv, word...)
			// Outputs are fed in as well, so abstraction changes show too.
			for _, ex := range cli.Trace() {
				rec.h.Write([]byte(ex.AbstractIn + "/" + ex.AbstractOut + ";"))
				for _, cp := range ex.ConcreteOut {
					seen[cp.Type] = true
				}
			}
			cli.ClearTrace()
		}
		if got := hex.EncodeToString(rec.h.Sum(nil)); got != c.want {
			t.Errorf("%s: wire transcript digest\n got %s\nwant %s", c.name, got, c.want)
		}
		for i, k := range rec.kept {
			if !bytes.Equal(k[0], k[1]) {
				t.Fatalf("%s: datagram %d changed after it was handed to the transport", c.name, i)
			}
		}
	}
	for _, typ := range []string{"INITIAL", "HANDSHAKE", "SHORT", "RETRY", "VERSION_NEGOTIATION", "RESET"} {
		if !seen[typ] {
			t.Errorf("no %s packet was received: the words no longer cover that path", typ)
		}
	}
}
