package relay_test

import (
	"testing"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// FuzzRelayIngress throws arbitrary bytes at a custody relay from both
// sides of the chain rig — on the data direction, as if from the
// sender, and on the control direction, as if from the receiver — in
// the middle of real traffic whose downstream hop is dark, so the
// store is already under pressure. The relay must never panic, and its
// custody store must never pass StorageLimit, whatever the input.
func FuzzRelayIngress(f *testing.F) {
	s := sim.NewScheduler()
	var frames [][]byte
	snd, err := alf.NewSender(s, func(p []byte) error {
		frames = append(frames, append([]byte(nil), p...))
		return nil
	}, alf.Config{Custody: true, MTU: 512 + alf.HeaderSize})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := snd.SendClass(1, xcode.SyntaxRaw, payload(0, 1200), alf.Critical); err != nil {
		f.Fatal(err)
	}
	frames = append(frames, wire.EncodeHeartbeat(wire.Heartbeat{Next: 4}))
	ctrl := [][]byte{
		wire.EncodeControl(wire.Control{Cum: 1, Nacks: []uint64{0, 2, 1 << 40}}),
		wire.EncodeCustody(wire.CustodyAck{Relay: 9, Cum: 2, Names: []uint64{0, 3}}),
		{byte(wire.TypeCA)},
	}
	for i, p := range frames {
		f.Add(p, ctrl[i%len(ctrl)])
	}
	f.Add([]byte{}, []byte{})

	const limit = 4 << 10
	hop := netsim.LinkConfig{RateBps: 50e6, Delay: 5 * time.Millisecond}
	f.Fuzz(func(t *testing.T, data, ctrl []byte) {
		c := newChain(t, hop, hop,
			alf.Config{Custody: true, HeartbeatLimit: 1 << 20, MTU: 512 + alf.HeaderSize},
			relay.Config{StorageLimit: limit, CustodyTimer: 5 * time.Millisecond,
				HealPoll: 20 * time.Millisecond})
		bounded := func(after string) {
			t.Helper()
			if got := c.rly.StoredBytes(); got > limit {
				t.Fatalf("after %s: custody store holds %d bytes, bound is %d", after, got, limit)
			}
			if got := c.rly.Stats.MaxStoredBytes; got > limit {
				t.Fatalf("after %s: custody store peaked at %d bytes, bound is %d", after, got, limit)
			}
		}

		// Real traffic first: 4 x 1200 B against a 4 KiB store, with
		// the downstream hop dark, so eviction is live.
		c.rd.SetDown(true)
		for i := uint64(0); i < 4; i++ {
			if _, err := c.snd.Send(i, xcode.SyntaxRaw, payload(i, 1200)); err != nil {
				t.Fatal(err)
			}
		}
		c.sched.RunFor(20 * time.Millisecond)
		bounded("real traffic")

		for _, in := range []struct {
			link *netsim.Link
			pkt  []byte
			what string
		}{
			{c.su, data, "data input"},
			{c.dr, ctrl, "control input"},
			{c.su, data, "replayed data input"},
		} {
			_ = in.link.Send(in.pkt)
			c.sched.RunFor(20 * time.Millisecond)
			bounded(in.what)
		}
		c.rd.SetDown(false)
		c.sched.RunFor(200 * time.Millisecond)
		bounded("heal")
	})
}
