package wire

import "fmt"

// Offer is the session initiator's proposal.
//
// Layout (big-endian):
//
//	0      type (10=OFFER)
//	1      stream id
//	2      flags (bit0: derive a stream key from both key halves)
//	3      recovery policy
//	4:6    MTU
//	6:8    FEC group
//	8:16   rate (bits/s)
//	16:24  initiator key half
//	24     syntax count k
//	25:..  k syntax ids
//	..     pad to even length, zero
//	..+2   checksum
type Offer struct {
	Stream   byte
	Encrypt  bool
	Policy   byte
	MTU      uint16
	FEC      uint16
	Rate     uint64
	KeyHalf  uint64
	Syntaxes []byte
}

// Accept is the responder's answer naming the chosen transfer syntax.
//
// Layout: 0 type (11=ACCEPT), 1 stream id, 2 syntax id, 3:11 responder
// key half, 11 pad, 12:14 checksum.
type Accept struct {
	Stream  byte
	Syntax  byte
	KeyHalf uint64
}

// Reject refuses an offer.
//
// Layout: 0 type (12=REJECT), 1 stream id, 2 reason, 3 pad,
// 4:6 checksum.
type Reject struct {
	Stream byte
	Reason byte
}

// Body lengths of the session messages before padding and checksum.
const (
	offerBody  = 25
	acceptBody = 11
	rejectBody = 3
)

// newMsg allocates a message with an n-byte body, a zero pad byte when n
// is odd (the checksum must be word aligned) and the checksum slot.
func newMsg(typ, stream byte, n int) []byte {
	msg := make([]byte, n+n%2+2)
	msg[0], msg[1] = typ, stream
	return msg
}

// msgOK reports whether pkt is a valid message of type typ with an
// n-byte body.
func msgOK(pkt []byte, typ byte, n int) bool {
	return len(pkt) == n+n%2+2 && pkt[0] == typ && (n%2 == 0 || pkt[n] == 0) && sealed(pkt)
}

// EncodeOffer encodes an offer.
func EncodeOffer(o Offer) []byte {
	msg := newMsg(TypeOffer, o.Stream, offerBody+len(o.Syntaxes))
	if o.Encrypt {
		msg[2] = 1
	}
	msg[3] = o.Policy
	be.PutUint16(msg[4:6], o.MTU)
	be.PutUint16(msg[6:8], o.FEC)
	be.PutUint64(msg[8:16], o.Rate)
	be.PutUint64(msg[16:24], o.KeyHalf)
	msg[24] = byte(len(o.Syntaxes))
	copy(msg[offerBody:], o.Syntaxes)
	return seal(msg)
}

// ParseOffer decodes and verifies an offer.
func ParseOffer(pkt []byte) (Offer, error) {
	if len(pkt) <= offerBody || pkt[2] > 1 || !msgOK(pkt, TypeOffer, offerBody+int(pkt[24])) {
		return Offer{}, fmt.Errorf("%w: offer (%d bytes)", ErrMalformed, len(pkt))
	}
	k := int(pkt[24])
	return Offer{
		Stream:   pkt[1],
		Encrypt:  pkt[2] == 1,
		Policy:   pkt[3],
		MTU:      be.Uint16(pkt[4:6]),
		FEC:      be.Uint16(pkt[6:8]),
		Rate:     be.Uint64(pkt[8:16]),
		KeyHalf:  be.Uint64(pkt[16:24]),
		Syntaxes: append([]byte(nil), pkt[offerBody:offerBody+k]...),
	}, nil
}

// EncodeAccept encodes an accept.
func EncodeAccept(a Accept) []byte {
	msg := newMsg(TypeAccept, a.Stream, acceptBody)
	msg[2] = a.Syntax
	be.PutUint64(msg[3:11], a.KeyHalf)
	return seal(msg)
}

// ParseAccept decodes and verifies an accept.
func ParseAccept(pkt []byte) (Accept, error) {
	if !msgOK(pkt, TypeAccept, acceptBody) {
		return Accept{}, fmt.Errorf("%w: accept", ErrMalformed)
	}
	return Accept{Stream: pkt[1], Syntax: pkt[2], KeyHalf: be.Uint64(pkt[3:11])}, nil
}

// EncodeReject encodes a reject.
func EncodeReject(r Reject) []byte {
	msg := newMsg(TypeReject, r.Stream, rejectBody)
	msg[2] = r.Reason
	return seal(msg)
}

// ParseReject decodes and verifies a reject.
func ParseReject(pkt []byte) (Reject, error) {
	if !msgOK(pkt, TypeReject, rejectBody) {
		return Reject{}, fmt.Errorf("%w: reject", ErrMalformed)
	}
	return Reject{Stream: pkt[1], Reason: pkt[2]}, nil
}
