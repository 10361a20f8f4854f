package wire

import (
	"fmt"

	"repro/internal/checksum"
)

// SegmentHeaderSize is the fixed OTP segment header length.
//
// Layout (big-endian):
//
//	0     flags (SegData, SegAck)
//	1     connection id
//	2:6   sequence number (stream offset of first payload byte)
//	6:10  cumulative acknowledgement (next expected stream offset)
//	10:12 advertised receive window, in WindowUnit-byte units
//	12:14 Internet checksum over header+payload
//	14:16 payload length
const SegmentHeaderSize = 16

// Segment flags.
const (
	SegData = 1 << 0
	SegAck  = 1 << 1
)

// WindowUnit scales the 16-bit advertised-window field to bytes.
const WindowUnit = 16

// Segment is a decoded OTP segment header. Seq and Ack are the low 32
// bits of the stream offsets.
type Segment struct {
	Flags byte
	Conn  byte
	Seq   uint32
	Ack   uint32
	Wnd   uint16 // in WindowUnit bytes
	Len   int    // payload length
}

// PutSegment writes s into seg's header and stamps the checksum over
// all of seg, whose payload must already be in place.
func PutSegment(seg []byte, s Segment) {
	seg[0], seg[1] = s.Flags, s.Conn
	be.PutUint32(seg[2:6], s.Seq)
	be.PutUint32(seg[6:10], s.Ack)
	be.PutUint16(seg[10:12], s.Wnd)
	seg[12], seg[13] = 0, 0
	be.PutUint16(seg[14:16], uint16(s.Len))
	be.PutUint16(seg[12:14], checksum.Sum16(seg))
}

// getSegment decodes seg's header fields without validation.
func getSegment(seg []byte) Segment {
	return Segment{
		Flags: seg[0],
		Conn:  seg[1],
		Seq:   be.Uint32(seg[2:6]),
		Ack:   be.Uint32(seg[6:10]),
		Wnd:   be.Uint16(seg[10:12]),
		Len:   int(be.Uint16(seg[14:16])),
	}
}

// ParseSegment decodes and verifies an OTP segment. The fields come back
// even with an error once seg holds a header, so a demultiplexer can
// route a damaged segment by its connection id.
func ParseSegment(seg []byte) (Segment, error) {
	if len(seg) < SegmentHeaderSize {
		return Segment{}, fmt.Errorf("%w: segment %d bytes", ErrMalformed, len(seg))
	}
	s := getSegment(seg)
	if !verify(seg, be.Uint16(seg[12:14])) {
		return s, fmt.Errorf("%w: segment checksum", ErrMalformed)
	}
	if len(seg) < SegmentHeaderSize+s.Len {
		return s, fmt.Errorf("%w: segment truncated", ErrMalformed)
	}
	return s, nil
}
