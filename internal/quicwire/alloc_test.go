package quicwire

import "testing"

// TestEncodeAllocs pins the steady-state encode hot path at zero
// allocations: frame and header appends into a buffer with capacity must
// reuse it, never grow or copy.
func TestEncodeAllocs(t *testing.T) {
	frames := []Frame{
		{Type: FrameAck, AckLargest: 9, AckDelay: 40, AckRange: 9},
		{Type: FrameCrypto, Offset: 64, Data: make([]byte, 128)},
		{Type: FrameStream, StreamID: 0, Offset: 256, Data: make([]byte, 64), Fin: true},
		{Type: FrameHandshakeDone},
	}
	buf := make([]byte, 0, 2048)
	if avg := testing.AllocsPerRun(200, func() {
		buf = buf[:0]
		for _, fr := range frames {
			buf = AppendFrame(buf, fr)
		}
	}); avg != 0 {
		t.Fatalf("AppendFrame steady state allocates %.1f allocs/op, want 0", avg)
	}

	dcid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	hdr := make([]byte, 0, 2048)
	if avg := testing.AllocsPerRun(200, func() {
		hdr = hdr[:0]
		hdr, _ = AppendLongHeader(hdr, PacketInitial, dcid, dcid, nil, 7, len(buf))
		hdr, _ = AppendShortHeader(hdr, dcid, 8)
	}); avg != 0 {
		t.Fatalf("header append steady state allocates %.1f allocs/op, want 0", avg)
	}
}

// TestDecodeAllocs pins the steady-state decode hot path at zero
// allocations: ParseFramesAppend with a reused frame slice must alias the
// payload rather than copy, and ParseHeader takes no heap at all.
// ParseFrames, whose frames callers keep, makes two allocations.
func TestDecodeAllocs(t *testing.T) {
	var payload []byte
	payload = AppendFrame(payload, Frame{Type: FrameAck, AckLargest: 3, AckDelay: 25, AckRange: 3})
	payload = AppendFrame(payload, Frame{Type: FrameCrypto, Offset: 0, Data: make([]byte, 96)})
	payload = AppendFrame(payload, Frame{Type: FrameStream, StreamID: 4, Data: make([]byte, 48), Fin: true})

	scratch := make([]Frame, 0, 8)
	if avg := testing.AllocsPerRun(200, func() {
		frames, err := ParseFramesAppend(scratch[:0], payload)
		if err != nil || len(frames) != 3 {
			t.Fatalf("parse: %v (%d frames)", err, len(frames))
		}
		scratch = frames[:0]
	}); avg != 0 {
		t.Fatalf("ParseFramesAppend steady state allocates %.1f allocs/op, want 0", avg)
	}

	// The copying decode allocates only its payload copy and the frame list.
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := ParseFrames(payload); err != nil {
			t.Fatalf("parse: %v", err)
		}
	}); avg > 2 {
		t.Fatalf("ParseFrames allocates %.1f allocs/op, want at most 2", avg)
	}

	dcid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	pkt, _ := AppendShortHeader(make([]byte, 0, 64), dcid, 77)
	pkt = append(pkt, payload...)
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := ParseHeader(pkt, len(dcid)); err != nil {
			t.Fatalf("parse header: %v", err)
		}
	}); avg != 0 {
		t.Fatalf("ParseHeader allocates %.1f allocs/op, want 0", avg)
	}
}

// TestFrameNamesAllocs pins label building at zero allocations when it
// appends into a buffer with capacity.
func TestFrameNamesAllocs(t *testing.T) {
	frames := []Frame{
		{Type: FrameStream}, {Type: FrameAck}, {Type: FrameStreamDataBlocked}, {Type: FrameStream},
	}
	buf := make([]byte, 0, 64)
	if avg := testing.AllocsPerRun(200, func() {
		buf = AppendFrameNames(buf[:0], frames)
	}); avg != 0 {
		t.Fatalf("AppendFrameNames allocates %.1f allocs/op, want 0", avg)
	}
	if string(buf) != "ACK,STREAM,STREAM_DATA_BLOCKED" {
		t.Fatalf("AppendFrameNames = %q", buf)
	}
}
