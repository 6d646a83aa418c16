package quicsim

import (
	"bytes"
	"crypto/hmac"
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"repro/internal/quiccrypto"
	"repro/internal/quicwire"
)

// Packet number spaces.
const (
	spaceInitial = iota
	spaceHandshake
	spaceApp
	numSpaces
)

// Tunables shared with the reference client. Chunk is the response stream
// chunk size; RespTotal is the total response the Google profile wants to
// send (three chunks, so two flow-control raises are needed to flush it).
const (
	Chunk     = 100
	RespTotal = 3 * Chunk
	// CIDLen is the connection-ID length all endpoints in this repo use.
	CIDLen = 8
)

// Config parameterizes a Server.
type Config struct {
	Profile Profile
	// Seed drives all server randomness (CIDs, hello randoms). The same
	// seed yields identical behaviour across resets, keeping learning
	// deterministic (except for profile-intended nondeterminism).
	Seed int64
	// RetryRequired makes the server validate client addresses with a
	// Retry exchange before accepting a connection (the Issue 3 setting).
	RetryRequired bool
	// VersionNegotiation makes the server answer long headers carrying an
	// unknown version with a Version Negotiation packet — but only before
	// a connection is established; afterwards such packets are dropped
	// silently (RFC 9000 §6.1: VN is sent only in response to packets
	// that might create a new connection).
	VersionNegotiation bool
}

// Server is a mini-QUIC server endpoint. It processes one connection at a
// time (the learning setup resets between queries) and is safe for
// concurrent use.
type Server struct {
	mu     sync.Mutex
	cfg    Config
	beh    behavior
	static []byte // static key for reset tokens and retry tags

	// Per-seed constants, computed once by NewServer and never mutated:
	// the server's connection ID and hello random, the SERVER_HELLO crypto
	// stream, and the stateless reset datagram for scid.
	scid           []byte
	serverRandom   []byte
	serverHello    []byte
	statelessReset []byte

	// resetRNG survives Reset: it drives the mvfst profile's
	// nondeterministic stateless RESETs across queries (Issue 2).
	resetRNG *rand.Rand

	// Per-connection state, cleared by Reset.
	est          bool
	state        int
	clientCID    []byte // client's SCID: the DCID we send to
	keys         [numSpaces]struct{ client, server *quiccrypto.Keys }
	sendPN       [numSpaces]uint64
	largestRecv  [numSpaces]uint64
	clientRandom []byte // the client's CLIENT_HELLO, empty until received
	cryptoSent   [numSpaces]uint64

	clientStreamRecv uint64
	respOffset       uint64
	respLimit        uint64
	greetingsSent    int

	// ProfileLossyRetransmit state: nextPN tracks the expected client
	// packet number per space, and a gap means a datagram was lost in
	// flight. pnSeen makes tracking start at the first packet the server
	// actually processes in a space — clients legitimately burn packet
	// numbers on pre-handshake packets the server discards for lack of
	// keys, and those must not look like losses. gapCount and degraded
	// model the bug itself: the loss-recovery statistics are kept
	// server-globally (they deliberately survive Reset, like mvfst's
	// reset coin), and once enough gaps accumulate the server permanently
	// switches to aggressive double-send "retransmission" of every
	// output packet.
	nextPN [numSpaces]uint64
	pnSeen [numSpaces]bool

	// gapCount and degraded survive Reset: Issue-style cross-connection
	// leakage, observable only on links that actually lose datagrams.
	gapCount int
	degraded bool

	// Scratch buffers owned by the server and touched only under mu:
	// frameScratch is the reused frame slice for the decode hot path, rx
	// the buffer packets are decrypted in (the parsed frames alias it and
	// never outlive the packet being processed; applyFrameEffects copies
	// what it keeps), label the abstract input symbol, payload and header
	// the plaintext of the packet being built, greeting its greeting text,
	// and out the response list being assembled. Nothing handed to the
	// transport lives in them: every response datagram is freshly
	// allocated, because transports may hold datagrams past the call (the
	// UDP server writes a whole read batch's responses at once, and netem
	// duplicates and reorders them).
	frameScratch []quicwire.Frame
	rx           []byte
	label        []byte
	payload      []byte
	header       []byte
	greeting     []byte
	out          [][]byte
}

// lossyRetransGapLimit is how many observed packet-number gaps flip the
// lossy-retransmit profile into its degraded double-send mode. The first
// gap suffices: on an impaired link the flip then happens within the
// first few queries, so essentially the whole learning run observes the
// (consistent) degraded behaviour.
const lossyRetransGapLimit = 1

// NewServer returns a server in its initial state.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:          cfg,
		beh:          behaviorFor(cfg.Profile),
		static:       seedBytes(cfg.Seed, "static-key", 32),
		scid:         seedBytes(cfg.Seed, "scid", CIDLen),
		serverRandom: seedBytes(cfg.Seed, "server-random", 32),
		resetRNG:     rand.New(rand.NewSource(cfg.Seed ^ 0x5EED)),
	}
	s.serverHello = append([]byte("SERVER_HELLO:"), s.serverRandom...)
	// A stateless reset is unpredictable bytes shaped like a short-header
	// packet, ending with the reset token for the connection ID the server
	// handed out (RFC 9000 §10.3).
	s.statelessReset = seedBytes(s.cfg.Seed, "reset-noise", 24)
	s.statelessReset[0] = 0x40 | (s.statelessReset[0] & 0x3F)
	token := quiccrypto.ResetToken(s.static, s.scid)
	s.statelessReset = append(s.statelessReset, token[:]...)
	s.resetLocked()
	return s
}

// seedBytes derives deterministic pseudo-random bytes from a seed and label.
func seedBytes(seed int64, label string, n int) []byte {
	out := quiccrypto.HMAC(nil, []byte(label), strconv.AppendInt(nil, seed, 10))
	for len(out) < n {
		out = quiccrypto.HMAC(out, []byte(label), out)
	}
	return out[:n]
}

// Reset implements Adapter property (3): it returns the server to its
// initial state, dropping all connection state. Profile-intended
// nondeterminism (the mvfst RESET coin) deliberately survives resets.
func (s *Server) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resetLocked()
}

func (s *Server) resetLocked() {
	s.est = false
	s.state = 0
	s.clientCID = s.clientCID[:0]
	s.keys = [numSpaces]struct{ client, server *quiccrypto.Keys }{}
	s.sendPN = [numSpaces]uint64{}
	s.largestRecv = [numSpaces]uint64{}
	s.clientRandom = s.clientRandom[:0]
	s.cryptoSent = [numSpaces]uint64{}
	s.clientStreamRecv = 0
	s.respOffset = 0
	s.greetingsSent = 0
	s.nextPN = [numSpaces]uint64{}
	s.pnSeen = [numSpaces]bool{}
	if s.cfg.Profile == ProfileQuiche {
		s.respLimit = 0
	} else {
		s.respLimit = Chunk
	}
}

// BehaviorState returns the current abstract state (for tests).
func (s *Server) BehaviorState() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// HandleDatagram processes one incoming UDP datagram from the given source
// address (opaque string, e.g. "10.0.0.2:4433") and returns the datagrams
// the server sends in response, one packet per datagram.
func (s *Server) HandleDatagram(src string, datagram []byte) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()

	out := s.out[:0]
	rest := datagram
	for len(rest) > 0 {
		hdr, err := quicwire.ParseHeader(rest, CIDLen)
		if err != nil {
			if err == quicwire.ErrBadVersion {
				if vn := s.versionNegotiate(rest); vn != nil {
					out = append(out, vn)
				}
			}
			break // undecodable datagram tail: drop silently
		}
		pkt := rest[:hdr.PayloadEnd]
		rest = rest[hdr.PayloadEnd:]
		out = s.processPacket(out, src, pkt, hdr)
	}
	// The list is handed out, so it leaves the scratch slice as a copy.
	resp := append([][]byte(nil), out...)
	clear(out)
	s.out = out[:0]
	return resp
}

// versionNegotiate answers an unknown-version long header with a Version
// Negotiation packet advertising v1, echoing the client's connection IDs
// (our DCID is the client's SCID and vice versa). Returns nil when the
// feature is off, a connection is already established, or the invariant
// header prefix itself is malformed.
func (s *Server) versionNegotiate(data []byte) []byte {
	if !s.cfg.VersionNegotiation || s.est {
		return nil
	}
	_, dcid, scid, err := quicwire.LongHeaderCIDs(data)
	if err != nil {
		return nil
	}
	return quicwire.AppendVersionNegotiation(nil, scid, dcid, []uint32{quicwire.Version1})
}

// processPacket handles a single (possibly coalesced-out) packet,
// appending the server's response datagrams to out.
func (s *Server) processPacket(out [][]byte, src string, pkt []byte, hdr quicwire.Header) [][]byte {
	// Connection admission on Initials.
	if hdr.Type == quicwire.PacketInitial && !s.est {
		if s.cfg.RetryRequired {
			if len(hdr.Token) == 0 {
				return append(out, s.buildRetry(src, hdr))
			}
			if !s.validToken(src, hdr.DCID, hdr.Token) {
				return out
			}
		}
		s.acceptConnection(hdr)
	}
	if !s.est {
		return out // no connection: nothing can be decrypted
	}

	space, ok := spaceForType(hdr.Type)
	if !ok {
		return out // Retry/VN from a client is meaningless; drop
	}
	keys := s.keys[space].client
	if keys == nil {
		return out // keys not derivable yet: drop (realistic behaviour)
	}

	// Remove header protection and packet protection in the receive
	// buffer, decrypting the payload in place.
	buf := append(s.rx[:0], pkt...)
	s.rx = buf
	if err := keys.UnprotectHeader(buf, hdr.PNOffset); err != nil {
		return out
	}
	pn, err := quicwire.DecodePacketNumber(buf, hdr.PNOffset)
	if err != nil {
		return out
	}
	pnEnd := hdr.PNOffset + 4
	payload, err := keys.Open(buf[pnEnd:pnEnd], buf[pnEnd:hdr.PayloadEnd], pn, buf[:pnEnd])
	if err != nil {
		return out
	}
	frames, err := quicwire.ParseFramesAppend(s.frameScratch[:0], payload)
	s.frameScratch = frames[:0]
	if err != nil {
		return out
	}
	if pn > s.largestRecv[space] {
		s.largestRecv[space] = pn
	}
	s.applyFrameEffects(space, frames)

	if s.cfg.Profile == ProfileLossyRetransmit {
		// The retransmission bug: a packet-number gap means a client
		// datagram was lost. The broken loss-recovery logic accumulates
		// gaps in a server-global counter, and past the limit it
		// permanently "recovers" by sending every output packet twice.
		// Invisible on a clean link (client packet numbers are contiguous
		// per space); on a lossy one the flip is deterministic and the
		// doubled flights become the behaviour learning observes.
		if s.pnSeen[space] && pn > s.nextPN[space] {
			s.gapCount++
			if s.gapCount >= lossyRetransGapLimit {
				s.degraded = true
			}
		}
		if !s.pnSeen[space] || pn >= s.nextPN[space] {
			s.pnSeen[space] = true
			s.nextPN[space] = pn + 1
		}
	}

	// Abstract the packet and step the behaviour machine.
	if s.beh.closedState >= 0 && s.state == s.beh.closedState {
		// Issue 2: the mvfst closed state answers probes with a stateless
		// RESET only ~82% of the time, with no back-off.
		if s.resetRNG.Float64() < 0.82 {
			return append(out, append([]byte(nil), s.statelessReset...))
		}
		return out
	}
	sym := append(s.label[:0], hdr.Type.String()...)
	sym = append(sym, "(?,?)["...)
	sym = quicwire.AppendFrameNames(sym, frames)
	sym = append(sym, ']')
	s.label = sym
	tr, ok := s.beh.table[s.state][string(sym)]
	if !ok {
		return out // symbol outside the modelled alphabet: drop
	}
	s.state = tr.next
	for _, spec := range tr.out {
		out = append(out, s.buildPacket(spec))
		if s.degraded {
			// The "retransmission": a second copy of the packet, freshly
			// numbered and sealed, doubling every flight the profile
			// emits from now on.
			out = append(out, s.buildPacket(spec))
		}
	}
	return out
}

// acceptConnection creates connection state from a client Initial.
func (s *Server) acceptConnection(hdr quicwire.Header) {
	s.est = true
	s.clientCID = append(s.clientCID[:0], hdr.SCID...)
	clientSecret, serverSecret := quiccrypto.InitialSecrets(hdr.DCID)
	s.keys[spaceInitial].client = mustKeys(clientSecret)
	s.keys[spaceInitial].server = mustKeys(serverSecret)
}

// applyFrameEffects updates transport state from client frames.
func (s *Server) applyFrameEffects(space int, frames []quicwire.Frame) {
	for _, f := range frames {
		switch f.Type {
		case quicwire.FrameCrypto:
			if space == spaceInitial && len(s.clientRandom) == 0 && len(f.Data) > 0 {
				s.clientRandom = append(s.clientRandom[:0], f.Data...)
				s.deriveSessionKeys()
			}
		case quicwire.FrameStream:
			if end := f.Offset + uint64(len(f.Data)); end > s.clientStreamRecv {
				s.clientStreamRecv = end
			}
		case quicwire.FrameMaxStreamData:
			if f.Limit > s.respLimit {
				s.respLimit = f.Limit
			}
		}
	}
}

// deriveSessionKeys derives handshake and 1-RTT keys once both hello
// randoms are known.
func (s *Server) deriveSessionKeys() {
	hc, hs, ac, as := quiccrypto.SessionSecrets(s.clientRandom, s.serverRandom)
	s.keys[spaceHandshake].client = mustKeys(hc[:])
	s.keys[spaceHandshake].server = mustKeys(hs[:])
	s.keys[spaceApp].client = mustKeys(ac[:])
	s.keys[spaceApp].server = mustKeys(as[:])
}

func mustKeys(secret []byte) *quiccrypto.Keys {
	k, err := quiccrypto.NewKeys(secret)
	if err != nil {
		panic(fmt.Sprintf("quicsim: key derivation failed: %v", err))
	}
	return k
}

func spaceForType(t quicwire.PacketType) (int, bool) {
	switch t {
	case quicwire.PacketInitial:
		return spaceInitial, true
	case quicwire.PacketHandshake:
		return spaceHandshake, true
	case quicwire.PacketShort:
		return spaceApp, true
	}
	return 0, false
}

// The server's later crypto messages and its response bytes: read-only
// data that output frames slice.
var (
	handshakeCrypto = []byte("ENCRYPTED_EXTENSIONS;CERTIFICATE;CERT_VERIFY;FINISHED-------------")
	appCrypto       = []byte("NEW_SESSION_TICKET:ticket-0001")
	responseBytes   = bytes.Repeat([]byte{'r'}, RespTotal)
)

// serverCryptoStream returns the full server crypto byte stream for a
// packet-number space: the simplified TLS messages of this repo's toy
// handshake layer.
func (s *Server) serverCryptoStream(space int) []byte {
	switch space {
	case spaceInitial:
		return s.serverHello
	case spaceHandshake:
		return handshakeCrypto
	default:
		return appCrypto
	}
}

// buildPacket constructs, seals, and header-protects one output packet.
// The payload and header are built in scratch buffers; the returned
// datagram is a fresh allocation of exactly its size.
func (s *Server) buildPacket(spec PacketSpec) []byte {
	space, _ := spaceForType(spec.Type)
	pn := s.sendPN[space]
	s.sendPN[space]++

	payload := s.payload[:0]
	for _, ft := range spec.Frames {
		payload = quicwire.AppendFrame(payload, s.buildFrame(space, spec, ft))
	}
	// Pad so the sealed payload always covers the header-protection sample.
	for len(payload) < 20 {
		payload = append(payload, 0) // PADDING
	}
	s.payload = payload

	keys := s.keys[space].server
	var hdr []byte
	var pnOffset int
	sealedLen := len(payload) + keys.Overhead()
	if spec.Type == quicwire.PacketShort {
		hdr, pnOffset = quicwire.AppendShortHeader(s.header[:0], s.clientCID, pn)
	} else {
		hdr, pnOffset = quicwire.AppendLongHeader(s.header[:0], spec.Type, s.clientCID, s.scid, nil, pn, sealedLen)
	}
	s.header = hdr
	buf := make([]byte, len(hdr), len(hdr)+sealedLen)
	copy(buf, hdr)
	buf = keys.Seal(buf, payload, pn, hdr)
	if err := keys.ProtectHeader(buf, pnOffset); err != nil {
		panic(fmt.Sprintf("quicsim: header protection: %v", err))
	}
	return buf
}

// buildFrame constructs the concrete frame for an abstract frame type.
func (s *Server) buildFrame(space int, spec PacketSpec, ft quicwire.FrameType) quicwire.Frame {
	switch ft {
	case quicwire.FrameAck:
		largest := s.largestRecv[space]
		return quicwire.Frame{Type: quicwire.FrameAck, AckLargest: largest, AckRange: largest}
	case quicwire.FrameCrypto:
		stream := s.serverCryptoStream(space)
		off := s.cryptoSent[space]
		if off >= uint64(len(stream)) {
			return quicwire.Frame{Type: quicwire.FrameCrypto, Offset: off}
		}
		n := uint64(48)
		if off+n > uint64(len(stream)) {
			n = uint64(len(stream)) - off
		}
		s.cryptoSent[space] = off + n
		return quicwire.Frame{Type: quicwire.FrameCrypto, Offset: off, Data: stream[off : off+n]}
	case quicwire.FrameHandshakeDone:
		return quicwire.Frame{Type: quicwire.FrameHandshakeDone}
	case quicwire.FrameStream:
		if spec.Greeting {
			id := uint64(3 + 4*s.greetingsSent) // server-initiated unidirectional
			s.greetingsSent++
			s.greeting = strconv.AppendUint(append(s.greeting[:0], "greeting-"...), id, 10)
			return quicwire.Frame{Type: quicwire.FrameStream, StreamID: id, Data: s.greeting}
		}
		return s.buildResponseStream()
	case quicwire.FrameStreamDataBlocked:
		limit := s.respLimit
		if s.cfg.Profile == ProfileGoogle {
			limit = 0 // Issue 4: placeholder never updated
		}
		return quicwire.Frame{Type: quicwire.FrameStreamDataBlocked, StreamID: 0, Limit: limit}
	case quicwire.FrameConnectionClose:
		return quicwire.Frame{Type: quicwire.FrameConnectionClose,
			ErrorCode:    0x0a, // PROTOCOL_VIOLATION
			CloseFrame:   uint64(quicwire.FrameHandshakeDone),
			ReasonPhrase: "protocol violation"}
	default:
		panic(fmt.Sprintf("quicsim: no constructor for output frame %v", ft))
	}
}

// buildResponseStream emits the next slice of the server's application
// response on stream 0, respecting the client-granted flow-control limit.
// When blocked the frame carries zero bytes at the current offset.
func (s *Server) buildResponseStream() quicwire.Frame {
	total := uint64(RespTotal)
	if s.cfg.Profile == ProfileQuiche {
		// Quiche echoes indefinitely: always one more chunk wanted.
		total = s.respOffset + Chunk
	}
	n := uint64(0)
	if s.respLimit > s.respOffset {
		n = s.respLimit - s.respOffset
	}
	if remaining := total - s.respOffset; n > remaining {
		n = remaining
	}
	// n never exceeds RespTotal: the Google profiles send RespTotal bytes
	// in all, quiche one Chunk past its offset.
	f := quicwire.Frame{Type: quicwire.FrameStream, StreamID: 0, Offset: s.respOffset, Data: responseBytes[:n]}
	s.respOffset += n
	f.Fin = s.cfg.Profile != ProfileQuiche && s.respOffset == total
	return f
}

// buildRetry constructs a Retry packet whose token binds the client source
// address (Issue 3's address validation).
func (s *Server) buildRetry(src string, hdr quicwire.Header) []byte {
	token := s.tokenFor(src)
	tag := quiccrypto.RetryTag(s.static, hdr.DCID, token)
	return quicwire.AppendRetry(nil, hdr.SCID, s.scid, append(token, tag[:]...))
}

// tokenFor derives the retry token for a source address.
func (s *Server) tokenFor(src string) []byte {
	return quiccrypto.HMAC(nil, s.static, []byte("retry-token"), []byte(src))[:16]
}

// validToken checks a retry token against the claimed source address.
func (s *Server) validToken(src string, dcid, token []byte) bool {
	want := s.tokenFor(src)
	if len(token) < len(want) {
		return false
	}
	return hmac.Equal(token[:len(want)], want)
}

// ResetTokenForTests exposes the server's stateless reset token so clients
// and tests can recognize reset datagrams.
func (s *Server) ResetTokenForTests() [16]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quiccrypto.ResetToken(s.static, s.scid)
}
