package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xcode"
)

func TestLoggerEndToEnd(t *testing.T) {
	s := sim.NewScheduler()
	n := netsim.New(s, 1)
	a := n.NewNode("a")
	b := n.NewNode("b")
	ab, ba := n.NewDuplex(a, b, netsim.LinkConfig{Delay: time.Millisecond})

	var buf bytes.Buffer
	lg := &Logger{W: &buf, Sched: s}
	snd, _ := alf.NewSender(s, lg.WrapSend("snd", ab.Send), alf.Config{})
	rcv, _ := alf.NewReceiver(s, lg.WrapSend("rcv", ba.Send), alf.Config{})
	a.SetHandler(lg.WrapHandler("snd", func(p *netsim.Packet) { snd.HandleControl(p.Payload) }))
	b.SetHandler(lg.WrapHandler("rcv", func(p *netsim.Packet) { rcv.HandlePacket(p.Payload) }))

	snd.Send(0, xcode.SyntaxRaw, make([]byte, 100))
	s.Run()

	out := buf.String()
	if !strings.Contains(out, "-> snd") || !strings.Contains(out, "<- rcv") {
		t.Errorf("directions missing:\n%s", out)
	}
	if !strings.Contains(out, "DATA") || !strings.Contains(out, "CTRL") {
		t.Errorf("protocol lines missing:\n%s", out)
	}
	if lg.Lines == 0 {
		t.Error("no lines counted")
	}
}

func TestLoggerLimit(t *testing.T) {
	var buf bytes.Buffer
	lg := &Logger{W: &buf, Sched: sim.NewScheduler()}
	lg.Limit = 2
	send := lg.WrapSend("x", func([]byte) error { return nil })
	for i := 0; i < 5; i++ {
		send([]byte{1})
	}
	out := buf.String()
	if strings.Count(out, "\n") != 3 { // 2 lines + truncation notice
		t.Errorf("output:\n%s", out)
	}
	if !strings.Contains(out, "truncated") {
		t.Error("no truncation notice")
	}
}
