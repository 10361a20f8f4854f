package invariant

import (
	"reflect"
	"testing"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// adu is ADU k of the workload, intact, delivered under name.
func adu(name, k uint64, n int) alf.ADU {
	b := make([]byte, n)
	for i := range b {
		b[i] = pattern(i, k)
	}
	return alf.ADU{Name: name, Tag: Tag(k), Data: b}
}

// TestLedgerRules feeds the ledger a clean account, then one row's
// fault, and expects exactly the one violation that names it. Names
// 0..2 carry ADUs 10..12 (wire names and submission indices diverge,
// as under shedding); name 1 is delivered and name 2 lost, and the
// rows act on name 0. Critical must arrive.
func TestLedgerRules(t *testing.T) {
	const size = 64
	for _, tc := range []struct {
		name   string
		fault  func(l *Ledger)
		broken []uint64
	}{
		{"clean", func(l *Ledger) { l.Deliver(adu(0, 10, size)) }, nil},
		{"duplicated", func(l *Ledger) {
			l.Deliver(adu(0, 10, size))
			l.Deliver(adu(0, 10, size))
		}, []uint64{0}},
		{"damaged", func(l *Ledger) {
			a := adu(0, 10, size)
			a.Data[size/2] ^= 1
			l.Deliver(a)
		}, []uint64{0}},
		{"truncated", func(l *Ledger) {
			a := adu(0, 10, size)
			a.Data = a.Data[:size-1]
			l.Deliver(a)
		}, []uint64{0}},
		{"mis-tagged", func(l *Ledger) {
			a := adu(0, 10, size)
			a.Tag++
			l.Deliver(a)
		}, []uint64{0}},
		{"cross-ADU mixup", func(l *Ledger) { l.Deliver(adu(0, 11, size)) }, []uint64{0}},
		{"unknown", func(l *Ledger) {
			l.Deliver(adu(0, 10, size))
			l.Deliver(adu(9, 19, size))
		}, []uint64{9}},
		{"delivered and lost", func(l *Ledger) {
			l.Deliver(adu(0, 10, size))
			l.Lose(0)
		}, []uint64{0}},
		{"lost twice", func(l *Ledger) {
			l.Lose(0)
			l.Lose(0)
		}, []uint64{0}},
		{"unaccounted", func(l *Ledger) {}, []uint64{0}},
		{"expired twice", func(l *Ledger) {
			l.Expire(0)
			l.Expire(0)
			l.Lose(0)
		}, []uint64{0}},
		{"must-arrive lost", func(l *Ledger) {
			l.Deliver(adu(0, 10, size))
			l.Submit(3, 13, alf.Critical)
			l.Lose(3)
		}, []uint64{3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := New(size, alf.Critical)
			for name := uint64(0); name < 3; name++ {
				l.Submit(name, 10+name, alf.Standard)
			}
			l.Deliver(adu(1, 11, size))
			l.Lose(2)
			tc.fault(l)

			var v Verdict
			broken := l.Check(&v, "").Broken
			want := 1
			if tc.broken == nil {
				want = 0
			}
			if len(v.Violations) != want {
				t.Fatalf("%d violations %q, want %d", len(v.Violations), v.Violations, want)
			}
			if len(broken) != len(tc.broken) || (len(broken) > 0 && broken[0] != tc.broken[0]) {
				t.Errorf("broken names %v, want %v", broken, tc.broken)
			}
			if v.Passed() != (want == 0) {
				t.Errorf("Passed() = %v with %d violations", v.Passed(), want)
			}
		})
	}
}

// TestLedgerTally: Check counts distinct ADUs by outcome, and Open
// tracks the unsettled set the real-socket soak waits on.
func TestLedgerTally(t *testing.T) {
	l := New(8, alf.Critical)
	for k := uint64(0); k < 5; k++ {
		l.Submit(k, k, Class(k))
	}
	if l.Open() != 5 {
		t.Fatalf("Open() = %d before any outcome, want 5", l.Open())
	}
	l.Deliver(adu(1, 1, 8))
	l.Deliver(adu(1, 1, 8))
	bad := adu(2, 2, 8)
	bad.Data[0]++
	l.Deliver(bad)
	l.Lose(0) // Critical
	l.Lose(3)
	var v Verdict
	got := l.Check(&v, "")
	got.Broken = nil
	want := Tally{Delivered: 2, Lost: 2, MustLost: 1, Duplicated: 1, Damaged: 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Check tally %+v, want %+v", got, want)
	}
	if l.Open() != 1 {
		t.Errorf("Open() = %d, want 1 (name 4)", l.Open())
	}
}

// TestPayloadVerifies: the reusable send buffer holds the same pattern
// the ledger verifies against, and refilling it does not allocate.
func TestPayloadVerifies(t *testing.T) {
	l := New(100)
	l.Submit(0, 7, alf.Standard)
	l.Deliver(alf.ADU{Name: 0, Tag: Tag(7), Data: l.Payload(7)})
	var v Verdict
	if l.Check(&v, ""); !v.Passed() {
		t.Fatalf("Payload(7) does not verify as ADU 7: %q", v.Violations)
	}
	if allocs := testing.AllocsPerRun(100, func() { l.Payload(3) }); allocs != 0 {
		t.Errorf("Payload allocates %v times per call after the first", allocs)
	}
}

// TestDrainAndQuiescent: a rig that goes idle drains without a
// violation; one that keeps rescheduling itself is a livelock; a link
// left down is reported.
func TestDrainAndQuiescent(t *testing.T) {
	var v Verdict
	s := sim.NewScheduler()
	s.After(3*time.Second, func() {})
	if n := Drain(&v, s, sim.Time(0).Add(time.Second), 5*time.Second); !v.Passed() || n != 1 {
		t.Fatalf("idle rig: %d events, %q; want 1 and no violation", n, v.Violations)
	}

	s = sim.NewScheduler()
	var tick func()
	tick = func() { s.After(time.Millisecond, tick) }
	tick()
	if Drain(&v, s, sim.Time(0).Add(time.Second), time.Second); len(v.Violations) != 1 {
		t.Fatalf("self-rescheduling rig: %q, want one livelock violation", v.Violations)
	}

	v = Verdict{}
	s = sim.NewScheduler()
	net := netsim.New(s, 1)
	a, b := net.NewNode("a"), net.NewNode("b")
	ab := net.NewLink(a, b, netsim.LinkConfig{})
	Quiescent(&v, net)
	if !v.Passed() {
		t.Fatalf("idle network: %q", v.Violations)
	}
	ab.SetDown(true)
	Quiescent(&v, net)
	if len(v.Violations) != 1 {
		t.Errorf("link left down: %q, want one violation", v.Violations)
	}
}
