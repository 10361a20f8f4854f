package alf

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// TestADUDeadlineShedsRetentionDuringBlackout: with both directions of
// the path down, a SenderBuffered stream must not retain stale ADUs
// past the configured give-up deadline.
func TestADUDeadlineShedsRetentionDuringBlackout(t *testing.T) {
	cfg := Config{
		ADUDeadline:       100 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
	}
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, cfg, 3)
	p.ab.SetDown(true)
	p.ba.SetDown(true)
	var expired []uint64
	p.snd.OnExpire = func(name uint64) { expired = append(expired, name) }
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := p.snd.Send(uint64(i), xcode.SyntaxRaw, payload(600, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if p.snd.BufferedADUs() != n {
		t.Fatalf("buffered = %d before deadline", p.snd.BufferedADUs())
	}
	p.sched.RunUntil(sim.Time(0).Add(time.Second))
	if p.snd.BufferedADUs() != 0 || p.snd.BufferedBytes() != 0 {
		t.Errorf("retention not shed: %d ADUs, %d bytes",
			p.snd.BufferedADUs(), p.snd.BufferedBytes())
	}
	if p.snd.Stats.DeadlineDrops != n || len(expired) != n {
		t.Errorf("deadline drops = %d, OnExpire calls = %d, want %d",
			p.snd.Stats.DeadlineDrops, len(expired), n)
	}
	if len(p.adus) != 0 {
		t.Error("delivery through a down link")
	}
}

// TestADUDeadlineDoesNotShedConfirmedTraffic: on a healthy path the
// deadline must never fire — cumulative acks release retention first.
func TestADUDeadlineDoesNotShedConfirmedTraffic(t *testing.T) {
	cfg := Config{
		ADUDeadline:  time.Second,
		NackInterval: 5 * time.Millisecond,
	}
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, cfg, 4)
	const n = 20
	for i := 0; i < n; i++ {
		p.snd.Send(uint64(i), xcode.SyntaxRaw, payload(600, byte(i)))
	}
	p.sched.Run()
	if len(p.adus) != n {
		t.Fatalf("delivered %d of %d", len(p.adus), n)
	}
	if p.snd.Stats.DeadlineDrops != 0 {
		t.Errorf("deadline drops = %d on a healthy path", p.snd.Stats.DeadlineDrops)
	}
	if p.snd.BufferedADUs() != 0 {
		t.Errorf("retention = %d after full confirmation", p.snd.BufferedADUs())
	}
}

// TestExpiredADUNacksGoUnfilled: once the deadline sheds an ADU, later
// NACKs for it are counted unfilled and the receiver eventually gives
// the ADU up — exactly once, on each side of the accounting.
func TestExpiredADUNacksGoUnfilled(t *testing.T) {
	cfg := Config{
		ADUDeadline:  50 * time.Millisecond,
		NackDelay:    5 * time.Millisecond,
		NackInterval: 5 * time.Millisecond,
		HoldTime:     200 * time.Millisecond,
		MaxNacks:     3,
	}
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, cfg, 5)
	// Cut only the data direction: control (NACKs) still reaches the
	// sender, but nothing the sender emits arrives.
	p.ab.SetDown(true)
	p.snd.Send(0, xcode.SyntaxRaw, payload(600, 1))
	// The receiver learns of ADU 0 from a heartbeat once the link heals,
	// after the retention deadline has already fired.
	p.sched.RunUntil(sim.Time(0).Add(100 * time.Millisecond))
	if p.snd.BufferedADUs() != 0 {
		t.Fatal("deadline did not shed during the outage")
	}
	p.ab.SetDown(false)
	p.sched.RunUntil(sim.Time(0).Add(2 * time.Second))
	if p.snd.Stats.UnfilledNacks == 0 {
		t.Error("no unfilled NACKs recorded for the shed ADU")
	}
	if len(p.lost) != 1 || p.lost[0] != 0 {
		t.Errorf("lost = %v, want exactly [0]", p.lost)
	}
	if len(p.adus) != 0 {
		t.Error("shed ADU delivered")
	}
}

// TestHeartbeatBackoffCapsProbeRate: during sustained silence the
// heartbeat interval must decay toward HeartbeatMaxInterval instead of
// probing at the data-plane cadence forever.
func TestHeartbeatBackoffCapsProbeRate(t *testing.T) {
	s := sim.NewScheduler()
	var times []sim.Time
	snd, err := NewSender(s, func(p []byte) error {
		if wire.Type(p) == wire.TypeHB {
			times = append(times, s.Now())
		}
		return nil
	}, Config{
		HeartbeatInterval:    10 * time.Millisecond,
		HeartbeatMaxInterval: 160 * time.Millisecond,
		HeartbeatLimit:       1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	snd.Send(0, xcode.SyntaxRaw, payload(100, 1))
	s.RunUntil(sim.Time(0).Add(10 * time.Second))

	// Unbacked-off, 10 s / 10 ms ≈ 1000 heartbeats. With doubling every
	// two misses up to 160 ms (±25% jitter) the steady state is ≥120 ms
	// per probe, so well under 150 total.
	if len(times) < 10 || len(times) > 150 {
		t.Fatalf("heartbeats = %d, want backed-off count in [10,150]", len(times))
	}
	// Late-phase gaps sit in the jittered cap window [0.75x, 1.25x].
	last := times[len(times)-5:]
	for i := 1; i < len(last); i++ {
		gap := last[i].Sub(last[i-1])
		if gap < 120*time.Millisecond || gap > 200*time.Millisecond {
			t.Errorf("late heartbeat gap %v outside jittered cap window", gap)
		}
	}
	// Jitter: the late gaps must not all be identical.
	allEqual := true
	for i := 2; i < len(last); i++ {
		if last[i].Sub(last[i-1]) != last[1].Sub(last[0]) {
			allEqual = false
		}
	}
	if allEqual {
		t.Error("heartbeat gaps show no jitter")
	}
}

// TestHeartbeatLimitStillSilencesDeadPath: the backoff must not defeat
// the hard heartbeat cap.
func TestHeartbeatLimitStillSilencesDeadPath(t *testing.T) {
	s := sim.NewScheduler()
	sent := 0
	snd, err := NewSender(s, func(p []byte) error {
		if wire.Type(p) == wire.TypeHB {
			sent++
		}
		return nil
	}, Config{HeartbeatInterval: 10 * time.Millisecond, HeartbeatLimit: 5})
	if err != nil {
		t.Fatal(err)
	}
	snd.Send(0, xcode.SyntaxRaw, payload(100, 1))
	s.Run()
	if sent != 5 {
		t.Errorf("heartbeats = %d, want exactly HeartbeatLimit=5", sent)
	}
}

// TestRetentionCallbacksInNameOrder: releases and expiries reach the
// application oldest name first, whatever the run. Twenty ADUs leave
// at one instant; a cumulative ack settles the first ten and the
// deadline sheds the rest, and both callback sequences must ascend on
// every repetition.
func TestRetentionCallbacksInNameOrder(t *testing.T) {
	const n, cum = 20, 10
	for run := 0; run < 20; run++ {
		s := sim.NewScheduler()
		snd, err := NewSender(s, func([]byte) error { return nil }, Config{
			ADUDeadline: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var released, expired []uint64
		snd.OnRelease = func(name uint64) { released = append(released, name) }
		snd.OnExpire = func(name uint64) { expired = append(expired, name) }
		for i := 0; i < n; i++ {
			if _, err := snd.Send(uint64(i), xcode.SyntaxRaw, payload(300, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := snd.HandleControl(wire.EncodeControl(wire.Control{Cum: cum})); err != nil {
			t.Fatal(err)
		}
		if err := s.RunUntil(sim.Time(0).Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		if len(released) != n || len(expired) != n-cum {
			t.Fatalf("run %d: %d releases, %d expiries, want %d and %d",
				run, len(released), len(expired), n, n-cum)
		}
		for i, name := range released {
			if name != uint64(i) {
				t.Fatalf("run %d: OnRelease order %v, want ascending", run, released)
			}
		}
		for i, name := range expired {
			if name != uint64(cum+i) {
				t.Fatalf("run %d: OnExpire order %v, want ascending from %d", run, expired, cum)
			}
		}
	}
}
