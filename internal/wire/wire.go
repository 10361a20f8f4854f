// Package wire owns every byte layout put on a link: the ALF frames
// (DATA header, CTRL, HB, FB, custody ack), the flow-id encapsulation,
// the OTP segment header and the session OFFER/ACCEPT/REJECT messages.
//
// §7 asks that an ADU's delivery information be "visible to all the
// protocol functions": endpoints, custody relays, the tracer and the
// packet printer all decode it with this one leaf package (stdlib and
// internal/checksum only). Each value has exactly one encoding and the
// parsers accept only that one (FuzzWireRoundTrip). Parsers return by
// value; the per-packet ones allocate nothing on success.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/checksum"
)

var be = binary.BigEndian

// ErrMalformed reports bytes that do not parse as the expected layout.
var ErrMalformed = errors.New("wire: malformed or corrupt packet")

// Type bytes at offset 0 of every ALF-channel packet. DATA and HB flow
// sender to receiver; CTRL, FB and CA flow back.
const (
	TypeData   = 1
	TypeCtrl   = 2
	TypeHB     = 3
	TypeFB     = 4
	TypeCA     = 5
	TypeOffer  = 10
	TypeAccept = 11
	TypeReject = 12
)

// Type reports the known type byte of pkt, or 0 for an empty packet or
// an unknown type. A parser still decides whether the rest is valid.
func Type(pkt []byte) byte {
	if len(pkt) > 0 && (pkt[0] >= TypeData && pkt[0] <= TypeCA || pkt[0] >= TypeOffer && pkt[0] <= TypeReject) {
		return pkt[0]
	}
	return 0
}

// verify checks an Internet checksum ck over msg. One's complement has
// two zeros, so 0x0000 and 0xFFFF can both verify; Sum16 writes 0xFFFF
// only over all-zero data, which no layout carries, so it is refused.
func verify(msg []byte, ck uint16) bool {
	return ck != 0xFFFF && checksum.Verify16(msg)
}

// seal stamps the checksum over msg into its trailing two bytes.
func seal(msg []byte) []byte {
	n := len(msg) - 2
	msg[n], msg[n+1] = 0, 0
	be.PutUint16(msg[n:], checksum.Sum16(msg))
	return msg
}

// sealed reports whether msg ends in a valid checksum.
func sealed(msg []byte) bool {
	return verify(msg, be.Uint16(msg[len(msg)-2:]))
}

// HeaderSize is the DATA fragment header length.
//
// Layout (big-endian):
//
//	0      type (1=DATA)
//	1      stream id
//	2:10   ADU name
//	10:18  application tag
//	18     transfer syntax id
//	19     flags (Flag*)
//	20:24  ADU total length
//	24:28  fragment offset within the ADU
//	28:30  fragment payload length
//	30:32  ADU checksum (Internet checksum of the whole plaintext ADU)
//	32:34  header checksum
//
// Note what is absent: no byte-stream sequence number. Every field
// describes the ADU — the delivery information travels with the data,
// "not just visible at the application protocol layer but to all the
// protocol functions" (§7).
const HeaderSize = 34

// DATA header flags.
const (
	// FlagEnciphered marks a scramble-keystream payload.
	FlagEnciphered = 1 << 0
	// FlagParity marks an FEC fragment: the XOR of the data fragments
	// from FragOff on, each zero-padded to FragLen.
	FlagParity = 1 << 1
	// FlagCritical marks a Critical-priority ADU, which custody relays
	// shed and evict last.
	FlagCritical = 1 << 2
	// FlagAEAD marks ChaCha20 ciphertext followed by a TagSize-byte
	// Poly1305 tag; the ADU-checksum field is zero.
	FlagAEAD = 1 << 3
)

// TagSize is the Poly1305 tag that follows the payload of a FlagAEAD
// fragment.
const TagSize = 16

// Header is a decoded DATA fragment header.
type Header struct {
	Stream   byte
	Name     uint64
	Tag      uint64
	Syntax   byte
	Flags    byte
	TotalLen int
	FragOff  int
	FragLen  int
	ADUCheck uint16
}

// PutHeader encodes h into buf[:HeaderSize] and stamps the header
// checksum.
func PutHeader(buf []byte, h *Header) {
	buf[0] = TypeData
	buf[1] = h.Stream
	be.PutUint64(buf[2:10], h.Name)
	be.PutUint64(buf[10:18], h.Tag)
	buf[18] = h.Syntax
	buf[19] = h.Flags
	be.PutUint32(buf[20:24], uint32(h.TotalLen))
	be.PutUint32(buf[24:28], uint32(h.FragOff))
	be.PutUint16(buf[28:30], uint16(h.FragLen))
	be.PutUint16(buf[30:32], h.ADUCheck)
	seal(buf[:HeaderSize])
}

// getHeader decodes pkt's header fields without validation.
func getHeader(pkt []byte) Header {
	return Header{
		Stream:   pkt[1],
		Name:     be.Uint64(pkt[2:10]),
		Tag:      be.Uint64(pkt[10:18]),
		Syntax:   pkt[18],
		Flags:    pkt[19],
		TotalLen: int(be.Uint32(pkt[20:24])),
		FragOff:  int(be.Uint32(pkt[24:28])),
		FragLen:  int(be.Uint16(pkt[28:30])),
		ADUCheck: be.Uint16(pkt[30:32]),
	}
}

// WireLen is the packet length the header describes: the header, the
// fragment payload and, under FlagAEAD, the tag.
func (h *Header) WireLen() int {
	n := HeaderSize + h.FragLen
	if h.Flags&FlagAEAD != 0 {
		n += TagSize
	}
	return n
}

// ParseHeader decodes and verifies a DATA fragment header. It returns
// the header by value so the per-packet hot path does not allocate.
func ParseHeader(pkt []byte) (Header, error) {
	if len(pkt) < HeaderSize {
		return Header{}, fmt.Errorf("%w: %d bytes", ErrMalformed, len(pkt))
	}
	if !verify(pkt[:HeaderSize], be.Uint16(pkt[32:34])) {
		return Header{}, fmt.Errorf("%w: header checksum", ErrMalformed)
	}
	if pkt[0] != TypeData {
		return Header{}, fmt.Errorf("%w: type %d", ErrMalformed, pkt[0])
	}
	h := getHeader(pkt)
	if len(pkt) < h.WireLen() {
		return Header{}, fmt.Errorf("%w: fragment truncated", ErrMalformed)
	}
	if h.FragOff+h.FragLen > h.TotalLen {
		return Header{}, fmt.Errorf("%w: bounds (%d+%d of %d)", ErrMalformed, h.FragOff, h.FragLen, h.TotalLen)
	}
	if h.FragOff%8 != 0 {
		return Header{}, fmt.Errorf("%w: unaligned fragment offset %d", ErrMalformed, h.FragOff)
	}
	return h, nil
}

// MaxNames bounds the names in one CTRL or CA frame (under an MTU).
const MaxNames = 64

// Control is a receiver control message.
//
// Layout (big-endian):
//
//	0      type (2=CTRL)
//	1      stream id
//	2:10   cumulative resolved name: every ADU named < this is settled
//	10:12  NACK count k (whole-ADU recovery requests)
//	12:..  k * 8-byte ADU names
//	..+2   checksum over the whole message
type Control struct {
	Stream byte
	Cum    uint64
	Nacks  []uint64
}

// CustodyAck is a relay's declaration that it holds complete copies of
// the named ADUs and takes over delivering them (DTN custody transfer),
// so the upstream custodian may release its own.
//
// Layout (big-endian):
//
//	0      type (5=CA)
//	1      stream id
//	2      relay id (which custodian is speaking; 0 = unspecified)
//	3      pad, zero (keeps the checksum slot aligned)
//	4:12   custody frontier: every ADU named < this is in custody
//	12:14  count k of individually-named ADUs >= the frontier
//	14:..  k * 8-byte ADU names
//	..+2   checksum over the whole message
type CustodyAck struct {
	Stream byte
	Relay  byte
	Cum    uint64
	Names  []uint64
}

// Offsets of the name count in the two list frames.
const (
	ctrlCount = 10
	caCount   = 12
)

// newList allocates a name-list frame with the count at countAt; the
// caller fills the fixed fields and seals it.
func newList(typ, stream byte, countAt int, names []uint64) []byte {
	msg := make([]byte, countAt+2+8*len(names)+2)
	msg[0], msg[1] = typ, stream
	be.PutUint16(msg[countAt:], uint16(len(names)))
	for i, name := range names {
		be.PutUint64(msg[countAt+2+8*i:], name)
	}
	return msg
}

// listOK reports whether pkt is a valid name-list frame of type typ.
func listOK(pkt []byte, typ byte, countAt int) bool {
	if len(pkt) < countAt+4 || pkt[0] != typ {
		return false
	}
	n := int(be.Uint16(pkt[countAt:]))
	return len(pkt) == countAt+2+8*n+2 && sealed(pkt)
}

// listNames decodes the names of a frame listOK accepted.
func listNames(pkt []byte, countAt int) []uint64 {
	n := int(be.Uint16(pkt[countAt:]))
	var names []uint64
	for i := 0; i < n; i++ {
		names = append(names, be.Uint64(pkt[countAt+2+8*i:]))
	}
	return names
}

// EncodeControl encodes a control message.
func EncodeControl(c Control) []byte {
	msg := newList(TypeCtrl, c.Stream, ctrlCount, c.Nacks)
	be.PutUint64(msg[2:10], c.Cum)
	return seal(msg)
}

// ParseControl decodes and verifies a control message.
func ParseControl(pkt []byte) (Control, error) {
	if !listOK(pkt, TypeCtrl, ctrlCount) {
		return Control{}, fmt.Errorf("%w: control (%d bytes)", ErrMalformed, len(pkt))
	}
	return Control{Stream: pkt[1], Cum: be.Uint64(pkt[2:10]), Nacks: listNames(pkt, ctrlCount)}, nil
}

// EncodeCustody encodes a custody acknowledgment.
func EncodeCustody(ca CustodyAck) []byte {
	msg := newList(TypeCA, ca.Stream, caCount, ca.Names)
	msg[2] = ca.Relay
	be.PutUint64(msg[4:12], ca.Cum)
	return seal(msg)
}

// ParseCustody decodes and verifies a custody acknowledgment.
func ParseCustody(pkt []byte) (CustodyAck, error) {
	if !listOK(pkt, TypeCA, caCount) || pkt[3] != 0 {
		return CustodyAck{}, fmt.Errorf("%w: custody ack (%d bytes)", ErrMalformed, len(pkt))
	}
	return CustodyAck{Stream: pkt[1], Relay: pkt[2], Cum: be.Uint64(pkt[4:12]), Names: listNames(pkt, caCount)}, nil
}

// Heartbeat declares how far the stream extends, so a receiver sees
// gaps even when the tail of the stream is lost entirely.
//
// Layout (big-endian):
//
//	0     type (3=HB)
//	1     stream id
//	2:10  next unassigned ADU name (everything below exists)
//	10:12 checksum
type Heartbeat struct {
	Stream byte
	Next   uint64
}

// HeartbeatSize is the heartbeat frame length.
const HeartbeatSize = 12

// EncodeHeartbeat encodes a heartbeat.
func EncodeHeartbeat(hb Heartbeat) []byte {
	msg := make([]byte, HeartbeatSize)
	msg[0], msg[1] = TypeHB, hb.Stream
	be.PutUint64(msg[2:10], hb.Next)
	return seal(msg)
}

// fixedOK reports whether pkt is a valid fixed-size frame.
func fixedOK(pkt []byte, typ byte, size int) bool {
	return len(pkt) == size && pkt[0] == typ && sealed(pkt)
}

// ParseHeartbeat decodes and verifies a heartbeat.
func ParseHeartbeat(pkt []byte) (Heartbeat, error) {
	if !fixedOK(pkt, TypeHB, HeartbeatSize) {
		return Heartbeat{}, fmt.Errorf("%w: heartbeat", ErrMalformed)
	}
	return Heartbeat{Stream: pkt[1], Next: be.Uint64(pkt[2:10])}, nil
}

// Feedback is the receiver's delivery report for the §3 rate-control
// loop. Counters are cumulative, so a lost report only delays the
// sender's view.
//
// Layout (big-endian):
//
//	0     type (4=FB)
//	1     stream id
//	2:6   report sequence number
//	6:14  wire bytes accepted, cumulative (headers + payload, dups and
//	      late fragments included: what the network delivered)
//	14:22 verified ADU payload bytes delivered, cumulative (goodput)
//	22:24 checksum over the whole message
type Feedback struct {
	Stream byte
	Seq    uint32
	Wire   uint64
	Good   uint64
}

// FeedbackSize is the feedback frame length.
const FeedbackSize = 24

// PutFeedback writes the report into buf[:FeedbackSize] and returns
// that slice, so periodic reports can reuse one buffer.
func PutFeedback(buf []byte, fb Feedback) []byte {
	msg := buf[:FeedbackSize]
	msg[0], msg[1] = TypeFB, fb.Stream
	be.PutUint32(msg[2:6], fb.Seq)
	be.PutUint64(msg[6:14], fb.Wire)
	be.PutUint64(msg[14:22], fb.Good)
	return seal(msg)
}

// ParseFeedback decodes and verifies a feedback report.
func ParseFeedback(pkt []byte) (Feedback, error) {
	if !fixedOK(pkt, TypeFB, FeedbackSize) {
		return Feedback{}, fmt.Errorf("%w: feedback", ErrMalformed)
	}
	return Feedback{Stream: pkt[1], Seq: be.Uint32(pkt[2:6]),
		Wire: be.Uint64(pkt[6:14]), Good: be.Uint64(pkt[14:22])}, nil
}

// FlowIDSize is the flow-id prefix a sharded endpoint puts in front of
// every ALF packet to route it without parsing the ALF header.
const FlowIDSize = 8

// PutFlowID writes the flow-id prefix into buf[:FlowIDSize].
func PutFlowID(buf []byte, id uint64) { be.PutUint64(buf[:FlowIDSize], id) }

// ParseFlowID splits an encapsulated packet into flow id and ALF
// packet; ok is false when pkt is too short.
func ParseFlowID(pkt []byte) (id uint64, inner []byte, ok bool) {
	if len(pkt) < FlowIDSize {
		return 0, nil, false
	}
	return be.Uint64(pkt[:FlowIDSize]), pkt[FlowIDSize:], true
}
