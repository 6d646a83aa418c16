// Package reference implements the instrumented reference implementations
// that serve as the paper's concretization oracles (§3.2): a QUIC client in
// the role of QUIC-Tracker and a TCP client in the role of the Scapy-based
// mapper. Both enforce the five Adapter properties:
//
//  1. no unrequested packets reach the target (reactive packets such as
//     ACKs are queued and folded into later requested symbols),
//  2. concrete packets match the requested abstract symbols,
//  3. both endpoints reset on request,
//  4. every exchange of the current connection is recorded with its
//     abstract and concrete forms for the Oracle Table (Reset starts a new
//     record, so a learn's memory does not grow with its query count), and
//  5. responses are abstracted back to the learner's alphabet.
package reference

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/quiccrypto"
	"repro/internal/quicsim"
	"repro/internal/quicwire"
)

// Transport delivers one client datagram to the target implementation and
// returns the datagrams the target sends back. Implementations exist for
// in-memory servers and UDP sockets.
type Transport interface {
	Send(src string, datagram []byte) [][]byte
}

// TransportFunc adapts a function to Transport.
type TransportFunc func(src string, datagram []byte) [][]byte

// Send implements Transport.
func (f TransportFunc) Send(src string, datagram []byte) [][]byte { return f(src, datagram) }

// ServerTransport wraps an in-process quicsim.Server as a Transport.
func ServerTransport(s *quicsim.Server) Transport {
	return TransportFunc(func(src string, datagram []byte) [][]byte {
		return s.HandleDatagram(src, datagram)
	})
}

// ConcretePacket is the concrete-alphabet symbol recorded in the Oracle
// Table: the structured form of one QUIC packet.
type ConcretePacket struct {
	Type         string           `json:"type"`
	PacketNumber uint64           `json:"packetNumber"`
	Frames       []quicwire.Frame `json:"frames"`
}

// Exchange is one abstract I/O step together with its concrete packets,
// the raw material of the Oracle Table (Adapter property 4).
type Exchange struct {
	AbstractIn  string
	AbstractOut string
	ConcreteIn  []ConcretePacket
	ConcreteOut []ConcretePacket
}

// QUICClientConfig parameterizes the reference client.
type QUICClientConfig struct {
	Seed int64
	// RetryFromNewPort reproduces Issue 3: after receiving a Retry the
	// client reopens its socket on a fresh port, so the token it returns
	// no longer matches its source address.
	RetryFromNewPort bool
	// BasePort is the client's first source port.
	BasePort int
}

// QUICClient is the instrumented QUIC reference client. It is not safe for
// concurrent use; the learning loop is sequential.
type QUICClient struct {
	cfg   QUICClientConfig
	tr    Transport
	seq   int // connection attempt counter, drives fresh CIDs
	port  int
	src   string // the source address for port
	trace []Exchange

	dcid, scid   []byte
	hello        []byte // CLIENT_HELLO message: prefix and client random
	finished     []byte // FINISHED message
	serverRandom []byte
	retryToken   []byte
	keys         [3]struct{ send, recv *quiccrypto.Keys }
	placeholder  [3]struct{ send *quiccrypto.Keys }
	sendPN       [3]uint64
	largestRecv  [3]uint64
	ackQueue     [3]bool // queued reactive ACKs per space (property 1)
	fcRaises     int
	streamSent   uint64
	reqCount     int

	// symbols memoizes parsed abstract input symbols by their text.
	symbols map[string]symbol

	// Scratch buffers the client owns and reuses on every step: the
	// plaintext and header of the packet being built, the buffer response
	// packets are decrypted in, and the output label being assembled.
	// Nothing handed to the transport or recorded in the trace lives in
	// them: the outgoing datagram is a fresh allocation, because a
	// Transport may keep what it is given, and recorded frames are copies.
	payload, header, rx, label []byte
}

// symbol is a parsed abstract input symbol.
type symbol struct {
	pt     quicwire.PacketType
	badver bool
	space  int
	frames []string
}

// NewQUICClient returns a client speaking to the given transport.
func NewQUICClient(cfg QUICClientConfig, tr Transport) *QUICClient {
	if cfg.BasePort == 0 {
		cfg.BasePort = 40000
	}
	c := &QUICClient{cfg: cfg, tr: tr, symbols: make(map[string]symbol)}
	c.Reset()
	return c
}

// setPort moves the client to a source port.
func (c *QUICClient) setPort(port int) {
	c.port = port
	c.src = "10.0.0.2:" + strconv.Itoa(port)
}

// Reset implements Adapter properties (3) and (4): a fresh connection with
// fresh CIDs, cleared crypto state and a new Oracle Table record. The
// per-reset values are derived from the seed and attempt counter so runs
// are reproducible.
func (c *QUICClient) Reset() error {
	c.seq++
	if c.src == "" || c.port != c.cfg.BasePort {
		c.setPort(c.cfg.BasePort)
	}
	c.trace = nil
	c.dcid = clientSeedBytes(c.dcid[:0], c.cfg.Seed, c.seq, "dcid", quicsim.CIDLen)
	c.scid = clientSeedBytes(c.scid[:0], c.cfg.Seed, c.seq, "scid", quicsim.CIDLen)
	// The hello messages are sent in CRYPTO frames that the trace records,
	// so they get fresh storage per connection.
	const helloPrefix, finishedPrefix = "CLIENT_HELLO:", "FINISHED:"
	msgs := make([]byte, 0, len(helloPrefix)+32+len(finishedPrefix)+16)
	c.hello = clientSeedBytes(append(msgs, helloPrefix...), c.cfg.Seed, c.seq, "client-random", 32)
	c.finished = append(c.hello[len(c.hello):], finishedPrefix...)
	c.finished = append(c.finished, c.hello[len(helloPrefix):len(helloPrefix)+16]...)
	c.serverRandom = nil
	c.retryToken = nil
	c.keys = [3]struct{ send, recv *quiccrypto.Keys }{}
	c.placeholder = [3]struct{ send *quiccrypto.Keys }{}
	c.sendPN = [3]uint64{}
	c.largestRecv = [3]uint64{}
	c.ackQueue = [3]bool{}
	c.fcRaises = 0
	c.streamSent = 0
	c.reqCount = 0
	clientSecret, serverSecret := quiccrypto.InitialSecrets(c.dcid)
	c.keys[0].send = mustKeys(clientSecret)
	c.keys[0].recv = mustKeys(serverSecret)
	return nil
}

// Trace returns the exchanges recorded since the last Reset (property 4).
func (c *QUICClient) Trace() []Exchange { return c.trace }

// ClearTrace discards recorded exchanges.
func (c *QUICClient) ClearTrace() { c.trace = nil }

// clientSeedBytes appends n deterministic pseudo-random bytes, derived from
// the seed, connection attempt and label, to dst.
func clientSeedBytes(dst []byte, seed int64, attempt int, label string, n int) []byte {
	var buf [48]byte
	msg := strconv.AppendInt(append(buf[:0], "client/"...), seed, 10)
	msg = strconv.AppendInt(append(msg, '/'), int64(attempt), 10)
	start := len(dst)
	dst = quiccrypto.HMAC(dst, []byte(label), msg)
	for len(dst)-start < n {
		dst = quiccrypto.HMAC(dst, []byte(label), dst[start:])
	}
	return dst[:start+n]
}

func mustKeys(secret []byte) *quiccrypto.Keys {
	k, err := quiccrypto.NewKeys(secret)
	if err != nil {
		panic(fmt.Sprintf("reference: key derivation: %v", err))
	}
	return k
}

// Step sends the concrete packet for one abstract input symbol and returns
// the abstract output symbol (property 5). Unknown symbols are an error:
// the adapter's alphabet is fixed up front.
func (c *QUICClient) Step(abstract string) (string, error) {
	sym, ok := c.symbols[abstract]
	if !ok {
		pt, badver, frames, err := parseAbstract(abstract)
		if err != nil {
			return "", err
		}
		space, ok := spaceFor(pt)
		if !ok {
			return "", fmt.Errorf("reference: cannot send packet type %v", pt)
		}
		sym = symbol{pt: pt, badver: badver, space: space, frames: frames}
		c.symbols[abstract] = sym
	}
	concIn, datagram := c.buildPacket(sym.pt, sym.badver, sym.space, sym.frames)
	responses := c.tr.Send(c.src, datagram)
	absOut, concOut := c.processResponses(responses)
	c.trace = append(c.trace, Exchange{
		AbstractIn: abstract, AbstractOut: absOut,
		ConcreteIn: []ConcretePacket{concIn}, ConcreteOut: concOut,
	})
	return absOut, nil
}

// parseAbstract splits "TYPE(?,?)[F1,F2]" into packet type and frame names.
// The badver flag marks INITIAL_BADVER symbols: an Initial-shaped long
// header that must be sent with a grease version to probe the target's
// version-negotiation handling.
func parseAbstract(s string) (pt quicwire.PacketType, badver bool, frames []string, err error) {
	open := strings.Index(s, "(")
	lb := strings.Index(s, "[")
	if open < 0 || lb < 0 || !strings.HasSuffix(s, "]") {
		return 0, false, nil, fmt.Errorf("reference: malformed abstract symbol %q", s)
	}
	switch s[:open] {
	case "INITIAL":
		pt = quicwire.PacketInitial
	case "INITIAL_BADVER":
		pt, badver = quicwire.PacketInitial, true
	case "HANDSHAKE":
		pt = quicwire.PacketHandshake
	case "SHORT":
		pt = quicwire.PacketShort
	case "0RTT":
		pt = quicwire.PacketZeroRTT
	default:
		return 0, false, nil, fmt.Errorf("reference: unknown packet type in %q", s)
	}
	inner := s[lb+1 : len(s)-1]
	if inner == "" {
		return pt, badver, nil, nil
	}
	return pt, badver, strings.Split(inner, ","), nil
}

func spaceFor(pt quicwire.PacketType) (int, bool) {
	switch pt {
	case quicwire.PacketInitial:
		return 0, true
	case quicwire.PacketHandshake:
		return 1, true
	case quicwire.PacketShort:
		return 2, true
	}
	return 0, false
}

// sendKeys returns usable sealing keys for a space. When the real keys are
// not yet derivable (e.g. the learner asks for a HANDSHAKE packet before
// any server hello was seen) the client seals under placeholder keys: the
// packet is well-formed on the wire and the target drops it, which is
// exactly the observable behaviour the model should record.
func (c *QUICClient) sendKeys(space int) *quiccrypto.Keys {
	if k := c.keys[space].send; k != nil {
		return k
	}
	if c.placeholder[space].send == nil {
		var buf [32]byte
		secret := clientSeedBytes(buf[:0], c.cfg.Seed, c.seq, placeholderLabels[space], 32)
		c.placeholder[space].send = mustKeys(secret)
	}
	return c.placeholder[space].send
}

var placeholderLabels = [3]string{"placeholder-0", "placeholder-1", "placeholder-2"}

// buildPacket constructs the concrete packet for the abstract symbol,
// consuming any queued reactive ACK for the space (property 1).
func (c *QUICClient) buildPacket(pt quicwire.PacketType, badver bool, space int, frameNames []string) (ConcretePacket, []byte) {
	pn := c.sendPN[space]
	c.sendPN[space]++
	var frames []quicwire.Frame
	if len(frameNames) > 0 {
		frames = make([]quicwire.Frame, len(frameNames))
	}
	for i, name := range frameNames {
		frames[i] = c.buildFrame(space, name)
	}
	c.ackQueue[space] = false // any queued ACK is folded in or superseded

	payload := c.payload[:0]
	for _, f := range frames {
		payload = quicwire.AppendFrame(payload, f)
	}
	for len(payload) < 20 {
		payload = append(payload, 0) // PADDING up to the HP sample size
	}
	c.payload = payload
	keys := c.sendKeys(space)
	var hdr []byte
	var pnOffset int
	sealedLen := len(payload) + keys.Overhead()
	if pt == quicwire.PacketShort {
		hdr, pnOffset = quicwire.AppendShortHeader(c.header[:0], c.serverCID(), pn)
	} else {
		var token []byte
		if pt == quicwire.PacketInitial {
			token = c.retryToken
		}
		version := uint32(quicwire.Version1)
		if badver {
			version = quicwire.VersionGrease
		}
		hdr, pnOffset = quicwire.AppendLongHeaderVersion(c.header[:0], pt, version, c.serverCID(), c.scid, token, pn, sealedLen)
	}
	c.header = hdr
	buf := make([]byte, len(hdr), len(hdr)+sealedLen)
	copy(buf, hdr)
	buf = keys.Seal(buf, payload, pn, hdr)
	if err := keys.ProtectHeader(buf, pnOffset); err != nil {
		panic(fmt.Sprintf("reference: header protection: %v", err))
	}
	typeName := pt.String()
	if badver {
		typeName = "INITIAL_BADVER"
	}
	conc := ConcretePacket{Type: typeName, PacketNumber: pn, Frames: frames}
	return conc, buf
}

// serverCID returns the DCID to address the server by: its SCID once known,
// otherwise the client's chosen initial DCID.
func (c *QUICClient) serverCID() []byte {
	return c.dcid
}

// buildFrame constructs a concrete frame for an abstract frame name using
// the client's live connection state.
func (c *QUICClient) buildFrame(space int, name string) quicwire.Frame {
	switch name {
	case "ACK":
		largest := c.largestRecv[space]
		return quicwire.Frame{Type: quicwire.FrameAck, AckLargest: largest, AckRange: largest}
	case "CRYPTO":
		if space == 0 {
			return quicwire.Frame{Type: quicwire.FrameCrypto, Offset: 0, Data: c.hello}
		}
		return quicwire.Frame{Type: quicwire.FrameCrypto, Offset: 0, Data: c.finished}
	case "HANDSHAKE_DONE":
		return quicwire.Frame{Type: quicwire.FrameHandshakeDone}
	case "MAX_DATA":
		return quicwire.Frame{Type: quicwire.FrameMaxData,
			Limit: uint64(10 * quicsim.Chunk * (1 + c.fcRaises))}
	case "MAX_STREAM_DATA":
		c.fcRaises++
		return quicwire.Frame{Type: quicwire.FrameMaxStreamData, StreamID: 0,
			Limit: uint64(quicsim.Chunk * (1 + c.fcRaises))}
	case "STREAM":
		c.reqCount++
		data := strconv.AppendInt(append(make([]byte, 0, 16), "GET /page-"...), int64(c.reqCount), 10)
		f := quicwire.Frame{Type: quicwire.FrameStream, StreamID: 0,
			Offset: c.streamSent, Data: data}
		c.streamSent += uint64(len(data))
		return f
	case "PING":
		return quicwire.Frame{Type: quicwire.FramePing}
	default:
		panic(fmt.Sprintf("reference: no constructor for abstract frame %q", name))
	}
}

// processResponses abstracts the server's datagrams (property 5), updating
// client connection state along the way.
func (c *QUICClient) processResponses(datagrams [][]byte) (string, []ConcretePacket) {
	var conc []ConcretePacket
	if len(datagrams) > 0 {
		conc = make([]ConcretePacket, 0, len(datagrams))
	}
	label := append(c.label[:0], '{')
	for _, dgram := range datagrams {
		for rest := dgram; len(rest) > 0; {
			cp, consumed := c.processPacket(rest)
			if consumed <= 0 {
				break
			}
			rest = rest[consumed:]
			if cp.Type == "" {
				continue // nothing the learner can observe
			}
			if len(conc) > 0 {
				label = append(label, ',')
			}
			label = append(label, cp.Type...)
			label = append(label, "(?,?)["...)
			label = quicwire.AppendFrameNames(label, cp.Frames)
			label = append(label, ']')
			conc = append(conc, cp)
		}
	}
	label = append(label, '}')
	c.label = label
	return string(label), conc
}

// processPacket handles one server packet, returning its concrete form and
// the number of bytes consumed from the datagram. The concrete form's Type
// is empty when the packet yields nothing observable; otherwise the type
// and frames spell the packet's abstract label.
func (c *QUICClient) processPacket(data []byte) (ConcretePacket, int) {
	hdr, err := quicwire.ParseHeader(data, quicsim.CIDLen)
	if err != nil {
		// Not parseable as a QUIC packet: check for a stateless reset
		// (random-looking short-header datagram). Consume everything.
		if c.looksLikeReset(data) {
			return ConcretePacket{Type: "RESET"}, len(data)
		}
		return ConcretePacket{}, len(data)
	}
	switch hdr.Type {
	case quicwire.PacketRetry:
		// Token is everything except the 16-byte integrity tag.
		if len(hdr.Token) > 16 {
			c.retryToken = append([]byte(nil), hdr.Token[:len(hdr.Token)-16]...)
		}
		if c.cfg.RetryFromNewPort {
			// Issue 3: reopen the socket on a new port before retrying.
			c.setPort(c.port + 1)
		}
		return ConcretePacket{Type: "RETRY"}, hdr.PayloadEnd
	case quicwire.PacketVersionNegotiation:
		return ConcretePacket{Type: "VERSION_NEGOTIATION"}, hdr.PayloadEnd
	}
	space, ok := spaceFor(hdr.Type)
	if !ok {
		return ConcretePacket{}, hdr.PayloadEnd
	}
	keys := c.keys[space].recv
	if keys == nil {
		// Undecryptable: could be a stateless reset disguised as a short
		// packet (they are indistinguishable by design, RFC 9000 §10.3).
		if hdr.Type == quicwire.PacketShort && c.looksLikeReset(data) {
			return ConcretePacket{Type: "RESET"}, len(data)
		}
		return ConcretePacket{}, hdr.PayloadEnd
	}
	// Remove header and packet protection in the receive buffer,
	// decrypting the payload in place.
	buf := append(c.rx[:0], data[:hdr.PayloadEnd]...)
	c.rx = buf
	if err := keys.UnprotectHeader(buf, hdr.PNOffset); err != nil {
		return ConcretePacket{}, hdr.PayloadEnd
	}
	pn, err := quicwire.DecodePacketNumber(buf, hdr.PNOffset)
	if err != nil {
		return ConcretePacket{}, hdr.PayloadEnd
	}
	pnEnd := hdr.PNOffset + 4
	payload, err := keys.Open(buf[pnEnd:pnEnd], buf[pnEnd:hdr.PayloadEnd], pn, buf[:pnEnd])
	if err != nil {
		if hdr.Type == quicwire.PacketShort && c.looksLikeReset(data) {
			return ConcretePacket{Type: "RESET"}, len(data)
		}
		return ConcretePacket{}, hdr.PayloadEnd
	}
	frames, err := quicwire.ParseFrames(payload) // copies: the trace keeps them
	if err != nil {
		return ConcretePacket{}, hdr.PayloadEnd
	}
	if pn > c.largestRecv[space] {
		c.largestRecv[space] = pn
	}
	c.ackQueue[space] = true // a reactive ACK is now queued (property 1)
	c.applyFrames(space, frames)
	return ConcretePacket{Type: hdr.Type.String(), PacketNumber: pn, Frames: frames}, hdr.PayloadEnd
}

// looksLikeReset applies the reference implementation's stateless-reset
// heuristic: a short-header-shaped datagram exactly the size the peer's
// resets use whose payload cannot be decrypted.
func (c *QUICClient) looksLikeReset(data []byte) bool {
	return len(data) == 40 && data[0]&0xC0 == 0x40
}

// applyFrames folds server frames into client state.
func (c *QUICClient) applyFrames(space int, frames []quicwire.Frame) {
	for _, f := range frames {
		if f.Type == quicwire.FrameCrypto && space == 0 && c.serverRandom == nil {
			const prefix = "SERVER_HELLO:"
			if len(f.Data) > len(prefix) && string(f.Data[:len(prefix)]) == prefix {
				c.serverRandom = f.Data[len(prefix):]
				c.deriveSessionKeys()
			}
		}
	}
}

// deriveSessionKeys mirrors the server's simplified TLS schedule.
func (c *QUICClient) deriveSessionKeys() {
	hc, hs, ac, as := quiccrypto.SessionSecrets(c.hello, c.serverRandom)
	c.keys[1].send = mustKeys(hc[:])
	c.keys[1].recv = mustKeys(hs[:])
	c.keys[2].send = mustKeys(ac[:])
	c.keys[2].recv = mustKeys(as[:])
}
