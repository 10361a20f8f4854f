package wire

import "fmt"

// Kind is what Classify recognized a packet as.
type Kind uint8

// Packet kinds.
const (
	KindNone    Kind = iota
	KindData         // ALF DATA fragment
	KindCtrl         // ALF control message
	KindHB           // ALF heartbeat
	KindFB           // ALF feedback report
	KindCA           // ALF custody ack
	KindSegData      // OTP segment carrying data
	KindSegAck       // OTP pure acknowledgement
)

var kindNames = [...]string{"", "alf-data", "alf-ctrl", "alf-hb", "alf-fb", "alf-ca", "otp-data", "otp-ack"}

// String names the kind as trace events show it ("" for KindNone).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return ""
}

// Class is the identity Classify reads out of a packet.
type Class struct {
	Kind Kind
	ID   byte   // stream id (ALF) or connection id (OTP)
	ADU  uint64 // DATA: ADU name; HB: next name; FB: report seq; CA: custody frontier
	Off  int64  // DATA: fragment offset; OTP data: sequence number
	Len  int    // OTP data: payload length
}

// Classify recognizes an ALF data-plane frame or an OTP segment and
// reads out its identity, without knowing which channel it came from
// and without allocating for well-formed packets.
//
// ALF type bytes (1=DATA, 2=CTRL, 3=HB) collide with OTP flag values
// (1=DATA, 2=ACK, 3=DATA|ACK), so the first byte alone cannot decide.
// Classify tries the ALF layouts first, then OTP, and checks each
// one's exact length along with its checksum: checksums alone can
// collide deterministically (an OTP segment with a zero payload folds
// to the same sum over any prefix). A packet valid under both layouts
// has odds of about 2^-16 and is classified as ALF.
func Classify(pkt []byte) Class {
	switch Type(pkt) {
	case TypeData:
		if h, err := ParseHeader(pkt); err == nil && len(pkt) == h.WireLen() {
			return Class{Kind: KindData, ID: h.Stream, ADU: h.Name, Off: int64(h.FragOff)}
		}
	case TypeCtrl:
		if listOK(pkt, TypeCtrl, ctrlCount) {
			return Class{Kind: KindCtrl, ID: pkt[1]}
		}
	case TypeHB:
		if fixedOK(pkt, TypeHB, HeartbeatSize) {
			return Class{Kind: KindHB, ID: pkt[1], ADU: be.Uint64(pkt[2:10])}
		}
	case TypeFB:
		if fixedOK(pkt, TypeFB, FeedbackSize) {
			return Class{Kind: KindFB, ID: pkt[1], ADU: uint64(be.Uint32(pkt[2:6]))}
		}
	case TypeCA:
		if listOK(pkt, TypeCA, caCount) && pkt[3] == 0 {
			return Class{Kind: KindCA, ID: pkt[1], ADU: be.Uint64(pkt[4:12])}
		}
	}
	if s, err := ParseSegment(pkt); err == nil && len(pkt) == SegmentHeaderSize+s.Len {
		switch {
		case s.Flags&SegData != 0 && s.Len > 0:
			return Class{Kind: KindSegData, ID: s.Conn, Off: int64(s.Seq), Len: s.Len}
		case s.Flags&SegAck != 0:
			return Class{Kind: KindSegAck, ID: s.Conn}
		}
	}
	return Class{}
}

// Proto is the dialect Describe decodes: OTP segments and ALF packets
// share low type values, so the caller says which a channel carries.
// ALF covers the data-plane frames and the session handshake.
type Proto int

// Dialects understood by Describe.
const (
	ALF Proto = iota
	OTP
)

// Describe renders one packet as a single line (no newline) for packet
// traces. It decodes fields without verifying checksums, so a damaged
// packet still shows what it claims to be.
func Describe(p Proto, pkt []byte) string {
	if p == OTP {
		return describeSegment(pkt)
	}
	if len(pkt) == 0 {
		return "alf: empty"
	}
	if m, ok := describeMin[pkt[0]]; ok && len(pkt) < m.n {
		return fmt.Sprintf("%s: short (%d bytes)", m.name, len(pkt))
	}
	switch pkt[0] {
	case TypeData:
		h := getHeader(pkt)
		kind := "DATA"
		if h.Flags&FlagParity != 0 {
			kind = "PARITY"
		}
		marks := ""
		if h.Flags&FlagEnciphered != 0 {
			marks += " enc"
		}
		if h.Flags&FlagAEAD != 0 {
			marks += " aead"
		}
		if h.Flags&FlagCritical != 0 {
			marks += " crit"
		}
		return fmt.Sprintf("alf %s stream=%d adu=%d tag=%#x frag=[%d:%d) of %d%s",
			kind, h.Stream, h.Name, h.Tag, h.FragOff, h.FragOff+h.FragLen, h.TotalLen, marks)
	case TypeCtrl:
		return fmt.Sprintf("alf CTRL stream=%d cum=%d nacks=%s", pkt[1], be.Uint64(pkt[2:10]), describeNames(pkt, ctrlCount))
	case TypeHB:
		return fmt.Sprintf("alf HB stream=%d next=%d", pkt[1], be.Uint64(pkt[2:10]))
	case TypeFB:
		return fmt.Sprintf("alf FB stream=%d seq=%d wire=%d delivered=%d", pkt[1],
			be.Uint32(pkt[2:6]), be.Uint64(pkt[6:14]), be.Uint64(pkt[14:22]))
	case TypeCA:
		return fmt.Sprintf("alf CA stream=%d relay=%d frontier=%d names=%s",
			pkt[1], pkt[2], be.Uint64(pkt[4:12]), describeNames(pkt, caCount))
	case TypeOffer:
		return fmt.Sprintf("session OFFER stream=%d syntaxes=%d mtu=%d policy=%d fec=%d",
			pkt[1], pkt[24], be.Uint16(pkt[4:6]), pkt[3], be.Uint16(pkt[6:8]))
	case TypeAccept:
		return fmt.Sprintf("session ACCEPT stream=%d syntax=%d", pkt[1], pkt[2])
	case TypeReject:
		return fmt.Sprintf("session REJECT stream=%d reason=%d", pkt[1], pkt[2])
	}
	// Hex, zero-padded: unknown type bytes are usually protocol
	// collisions or corruption, and those read naturally in hex
	// ("unknown type 0x41" is printable 'A', not "65").
	return fmt.Sprintf("alf: unknown type 0x%02X (%d bytes)", pkt[0], len(pkt))
}

// describeMin gives each known type its name in short-packet lines and
// the fewest bytes Describe needs to render its fields.
var describeMin = map[byte]struct {
	name string
	n    int
}{
	TypeData: {"alf data", HeaderSize}, TypeCtrl: {"alf ctrl", ctrlCount + 4}, TypeHB: {"alf hb", HeartbeatSize},
	TypeFB: {"alf fb", FeedbackSize}, TypeCA: {"alf ca", caCount + 4},
	TypeOffer: {"session OFFER", offerBody}, TypeAccept: {"session ACCEPT", 3}, TypeReject: {"session REJECT", 3},
}

// describeNames renders a name-list frame's count and, when the frame
// is long enough to hold them, its first eight names.
func describeNames(pkt []byte, countAt int) string {
	n := int(be.Uint16(pkt[countAt:]))
	if n == 0 || len(pkt) < countAt+2+8*n {
		return fmt.Sprint(n)
	}
	names, more := listNames(pkt, countAt), ""
	if n > 8 {
		names, more = names[:8], " …"
	}
	s := fmt.Sprint(names)
	return fmt.Sprintf("%d %s%s]", n, s[:len(s)-1], more)
}

func describeSegment(seg []byte) string {
	if len(seg) < SegmentHeaderSize {
		return fmt.Sprintf("otp: short (%d bytes)", len(seg))
	}
	s := getSegment(seg)
	kind := ""
	if s.Flags&SegData != 0 {
		kind += "DATA "
	}
	if s.Flags&SegAck != 0 {
		kind += "ACK "
	}
	if kind == "" {
		kind = "? "
	}
	return fmt.Sprintf("otp %sconn=%d seq=%d ack=%d wnd=%d len=%d",
		kind, s.Conn, s.Seq, s.Ack, int(s.Wnd)*WindowUnit, s.Len)
}
