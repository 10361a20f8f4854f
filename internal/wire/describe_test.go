package wire_test

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	alf "repro/internal/core"
	"repro/internal/otp"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

func TestDescribeALFData(t *testing.T) {
	s := sim.NewScheduler()
	var pkts [][]byte
	snd, err := alf.NewSender(s, func(p []byte) error {
		pkts = append(pkts, append([]byte(nil), p...))
		return nil
	}, alf.Config{MTU: 128 + alf.HeaderSize, FECGroup: 2, Key: 5, StreamID: 9})
	if err != nil {
		t.Fatal(err)
	}
	snd.Send(0xBEEF, xcode.SyntaxRaw, make([]byte, 300))

	var data, parity int
	for _, p := range pkts {
		line := wire.Describe(wire.ALF, p)
		switch {
		case strings.Contains(line, "PARITY"):
			parity++
		case strings.Contains(line, "DATA"):
			data++
			if !strings.Contains(line, "stream=9") || !strings.Contains(line, "tag=0xbeef") {
				t.Errorf("data line missing fields: %q", line)
			}
			if !strings.Contains(line, "enc") {
				t.Errorf("enciphered flag not shown: %q", line)
			}
		}
	}
	if data != 3 || parity == 0 {
		t.Errorf("described %d data, %d parity fragments", data, parity)
	}
}

func TestDescribeALFControlAndHB(t *testing.T) {
	// Generate a real control message via a receiver.
	s := sim.NewScheduler()
	var ctrl []byte
	rcv, _ := alf.NewReceiver(s, func(p []byte) error {
		ctrl = append([]byte(nil), p...)
		return nil
	}, alf.Config{NackInterval: time.Millisecond})
	snd, _ := alf.NewSender(s, func(p []byte) error {
		rcv.HandlePacket(p)
		return nil
	}, alf.Config{NackInterval: time.Millisecond})
	snd.Send(0, xcode.SyntaxRaw, []byte{1, 2, 3})
	s.RunUntil(sim.Time(10 * time.Millisecond))

	if ctrl == nil {
		t.Fatal("no control message captured")
	}
	line := wire.Describe(wire.ALF, ctrl)
	if !strings.Contains(line, "CTRL") || !strings.Contains(line, "cum=1") {
		t.Errorf("control line: %q", line)
	}
}

func TestDescribeOTP(t *testing.T) {
	s := sim.NewScheduler()
	var seg []byte
	conn := otp.New(s, func(p []byte) error {
		if seg == nil {
			seg = append([]byte(nil), p...)
		}
		return nil
	}, otp.Config{ConnID: 4})
	conn.Send(make([]byte, 100))
	line := wire.Describe(wire.OTP, seg)
	if !strings.Contains(line, "DATA") || !strings.Contains(line, "conn=4") ||
		!strings.Contains(line, "len=100") {
		t.Errorf("otp line: %q", line)
	}
}

func TestDescribeNeverPanics(t *testing.T) {
	f := func(pkt []byte) bool {
		wire.Describe(wire.ALF, pkt)
		wire.Describe(wire.OTP, pkt)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDescribeUnknownType pins the rendering of type bytes no ALF
// packet uses: an explicit hex line, never a misparse of another
// format and never a panic.
func TestDescribeUnknownType(t *testing.T) {
	cases := []struct {
		pkt  []byte
		want string
	}{
		{[]byte{0x00}, "alf: unknown type 0x00 (1 bytes)"},
		{[]byte{0x41, 1, 2, 3}, "alf: unknown type 0x41 (4 bytes)"},
		{[]byte{0xFF, 0xFF}, "alf: unknown type 0xFF (2 bytes)"},
	}
	for _, c := range cases {
		if got := wire.Describe(wire.ALF, c.pkt); got != c.want {
			t.Errorf("Describe(%v) = %q, want %q", c.pkt, got, c.want)
		}
	}
}

// FuzzDescribe drives both decoders with arbitrary bytes. Seeds cover
// every known type byte plus unknown ones, so the corpus exercises the
// real parse paths, not just the early-exit guards.
func FuzzDescribe(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 9, 0, 0, 0, 0, 0, 0, 0, 7})             // ALF data, truncated
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0}) // ALF ctrl shape
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0})       // ALF hb shape
	f.Add([]byte{0x41, 0x41, 0x41, 0x41})                   // unknown type
	f.Add([]byte{0xFF})                                     // unknown type, minimal
	f.Add(make([]byte, 64))                                 // zeros
	f.Fuzz(func(t *testing.T, pkt []byte) {
		for _, proto := range []wire.Proto{wire.ALF, wire.OTP} {
			if line := wire.Describe(proto, pkt); line == "" {
				t.Errorf("Describe(%d, %x) returned empty", proto, pkt)
			}
		}
	})
}

// TestDescribeFrames pins the line each frame renders as, including the
// header flags a relay acts on and the custody ack's identity.
func TestDescribeFrames(t *testing.T) {
	data := func(flags byte) []byte {
		h := wire.Header{Stream: 2, Name: 7, Tag: 0xAB, Flags: flags, TotalLen: 1024, FragOff: 512, FragLen: 256}
		pkt := make([]byte, h.WireLen())
		wire.PutHeader(pkt, &h)
		return pkt
	}
	cases := []struct {
		name string
		pkt  []byte
		want string
	}{
		{"data", data(0), "alf DATA stream=2 adu=7 tag=0xab frag=[512:768) of 1024"},
		{"data-enc", data(wire.FlagEnciphered), "alf DATA stream=2 adu=7 tag=0xab frag=[512:768) of 1024 enc"},
		{"data-aead", data(wire.FlagAEAD), "alf DATA stream=2 adu=7 tag=0xab frag=[512:768) of 1024 aead"},
		{"data-critical", data(wire.FlagCritical), "alf DATA stream=2 adu=7 tag=0xab frag=[512:768) of 1024 crit"},
		{"parity-aead-critical", data(wire.FlagParity | wire.FlagAEAD | wire.FlagCritical),
			"alf PARITY stream=2 adu=7 tag=0xab frag=[512:768) of 1024 aead crit"},
		{"custody-ack", wire.EncodeCustody(wire.CustodyAck{Stream: 3, Relay: 7, Cum: 42, Names: []uint64{50, 99, 1 << 40}}),
			"alf CA stream=3 relay=7 frontier=42 names=3 [50 99 1099511627776]"},
		{"custody-ack-frontier-only", wire.EncodeCustody(wire.CustodyAck{Stream: 1, Relay: 2, Cum: 5}),
			"alf CA stream=1 relay=2 frontier=5 names=0"},
		{"control", wire.EncodeControl(wire.Control{Stream: 4, Cum: 9, Nacks: []uint64{10, 12}}),
			"alf CTRL stream=4 cum=9 nacks=2 [10 12]"},
		{"heartbeat", wire.EncodeHeartbeat(wire.Heartbeat{Stream: 5, Next: 11}), "alf HB stream=5 next=11"},
		{"feedback", wire.PutFeedback(make([]byte, wire.FeedbackSize), wire.Feedback{Stream: 6, Seq: 3, Wire: 4096, Good: 2048}),
			"alf FB stream=6 seq=3 wire=4096 delivered=2048"},
		{"offer", wire.EncodeOffer(wire.Offer{Stream: 1, Policy: 2, MTU: 1500, FEC: 4, Syntaxes: []byte{1, 3}}),
			"session OFFER stream=1 syntaxes=2 mtu=1500 policy=2 fec=4"},
		{"accept", wire.EncodeAccept(wire.Accept{Stream: 1, Syntax: 3}), "session ACCEPT stream=1 syntax=3"},
		{"reject", wire.EncodeReject(wire.Reject{Stream: 1, Reason: 2}), "session REJECT stream=1 reason=2"},
		{"short-ca", []byte{wire.TypeCA, 1, 2}, "alf ca: short (3 bytes)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := wire.Describe(wire.ALF, c.pkt); got != c.want {
				t.Errorf("Describe = %q, want %q", got, c.want)
			}
		})
	}
}
