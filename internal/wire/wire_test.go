package wire_test

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// FuzzWireRoundTrip feeds arbitrary bytes to every parser. Whenever one
// accepts them, encoding the parsed value must give back exactly the
// input: each layout has one encoding per value, so two different byte
// strings never decode to the same packet. Classify must agree with the
// parsers on every frame they accept.
func FuzzWireRoundTrip(f *testing.F) {
	h := wire.Header{Stream: 1, Name: 9, Tag: 3, Syntax: 2, Flags: wire.FlagAEAD | wire.FlagCritical,
		TotalLen: 64, FragOff: 8, FragLen: 16}
	data := make([]byte, h.WireLen())
	wire.PutHeader(data, &h)
	// A heartbeat whose other words fold to 0xFFFF verifies with either
	// one's-complement zero in its checksum slot; only 0x0000 is the
	// encoder's, so the 0xFFFF twin must be refused.
	twin := wire.EncodeHeartbeat(wire.Heartbeat{Next: 0xFCFF})
	twin[10], twin[11] = 0xFF, 0xFF
	seg := make([]byte, wire.SegmentHeaderSize+5)
	wire.PutSegment(seg, wire.Segment{Flags: wire.SegData | wire.SegAck, Conn: 2, Seq: 100, Ack: 7, Wnd: 40, Len: 5})
	for _, seed := range [][]byte{
		{}, data, seg, twin,
		wire.EncodeControl(wire.Control{Stream: 1, Cum: 4, Nacks: []uint64{5, 7}}),
		wire.EncodeCustody(wire.CustodyAck{Stream: 1, Relay: 3, Cum: 4, Names: []uint64{6}}),
		wire.EncodeHeartbeat(wire.Heartbeat{Stream: 1, Next: 8}),
		wire.PutFeedback(make([]byte, wire.FeedbackSize), wire.Feedback{Stream: 1, Seq: 2, Wire: 3, Good: 4}),
		wire.EncodeOffer(wire.Offer{Stream: 1, Encrypt: true, MTU: 1500, Syntaxes: []byte{1, 2}}),
		wire.EncodeOffer(wire.Offer{Stream: 1, Syntaxes: []byte{1}}),
		wire.EncodeAccept(wire.Accept{Stream: 1, Syntax: 2, KeyHalf: 99}),
		wire.EncodeReject(wire.Reject{Stream: 1, Reason: 3}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, pkt []byte) {
		same := func(layout string, enc []byte, kind wire.Kind) {
			t.Helper()
			if !bytes.Equal(enc, pkt) {
				t.Fatalf("%s: parse then encode changed the bytes\n in  %x\n out %x", layout, pkt, enc)
			}
			if kind != wire.KindNone {
				if got := wire.Classify(pkt).Kind; got != kind {
					t.Fatalf("%s: Classify says %v", layout, got)
				}
			}
		}
		if h, err := wire.ParseHeader(pkt); err == nil {
			buf := append([]byte(nil), pkt...)
			wire.PutHeader(buf, &h)
			kind := wire.KindNone
			if len(pkt) == h.WireLen() {
				kind = wire.KindData
			}
			same("header", buf, kind)
		}
		if c, err := wire.ParseControl(pkt); err == nil {
			same("control", wire.EncodeControl(c), wire.KindCtrl)
		}
		if ca, err := wire.ParseCustody(pkt); err == nil {
			same("custody ack", wire.EncodeCustody(ca), wire.KindCA)
		}
		if hb, err := wire.ParseHeartbeat(pkt); err == nil {
			same("heartbeat", wire.EncodeHeartbeat(hb), wire.KindHB)
		}
		if fb, err := wire.ParseFeedback(pkt); err == nil {
			same("feedback", wire.PutFeedback(make([]byte, wire.FeedbackSize), fb), wire.KindFB)
		}
		if s, err := wire.ParseSegment(pkt); err == nil {
			buf := append([]byte(nil), pkt...)
			wire.PutSegment(buf, s)
			same("segment", buf, wire.KindNone)
		}
		if id, inner, ok := wire.ParseFlowID(pkt); ok {
			buf := make([]byte, wire.FlowIDSize)
			wire.PutFlowID(buf, id)
			same("flow id", append(buf, inner...), wire.KindNone)
		}
		if o, err := wire.ParseOffer(pkt); err == nil {
			same("offer", wire.EncodeOffer(o), wire.KindNone)
		}
		if a, err := wire.ParseAccept(pkt); err == nil {
			same("accept", wire.EncodeAccept(a), wire.KindNone)
		}
		if r, err := wire.ParseReject(pkt); err == nil {
			same("reject", wire.EncodeReject(r), wire.KindNone)
		}
	})
}
