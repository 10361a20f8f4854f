// Package invariant is the one written statement of ALF's delivery
// contract (§5 of the paper: each ADU reaches the application whole,
// or is reported lost as a unit) and of the quiescence a run must
// reach afterwards. The chaos, overload and DTN soaks (faults/soak)
// and the real-socket soak (udplink) all check through it, so a
// simulated run and a kernel-socket run obey the very same rules:
// a Ledger accounts every ADU against the deterministic workload
// (Tag, Class, Ledger.Payload), Drain runs a scheduler to quiescence under a
// livelock bound, and Quiescent reports any state a drained rig holds.
package invariant

import (
	"fmt"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Verdict collects the invariant violations of one run, one readable
// line each. A harness result embeds it.
type Verdict struct {
	Violations []string
}

// Passed reports whether every invariant held.
func (v *Verdict) Passed() bool { return len(v.Violations) == 0 }

// Violatef records one violation.
func (v *Verdict) Violatef(format string, args ...any) {
	v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
}

// Tag is the deterministic tag of the k-th submitted ADU.
func Tag(k uint64) uint64 { return k*2654435761 + 7 }

// pattern is byte i of the k-th submitted ADU's payload. Any
// corruption or cross-ADU mixup changes some byte of it.
func pattern(i int, k uint64) byte { return byte(uint64(i)*167 + k*59 + 13) }

// Class is the standard priority mix: per ten ADUs, one Critical,
// three Standard and six Droppable — a control/keyframe/filler split
// derived from the submission index alone.
func Class(k uint64) alf.Priority {
	switch k % 10 {
	case 0:
		return alf.Critical
	case 1, 2, 3:
		return alf.Standard
	default:
		return alf.Droppable
	}
}

// entry is the ledger's record of one wire name.
type entry struct {
	k         uint64 // submission index: the tag and payload seed
	class     alf.Priority
	submitted bool
	damaged   bool // the first delivery's tag or payload was wrong
	delivered int
	lost      int
	expired   int
}

// Ledger is the delivery account of one stream, indexed by wire name
// (names count up from zero), so it reports in name order without a
// sort. Every harness feeds it from its single-threaded event loop.
type Ledger struct {
	size    int
	must    [3]bool // by alf.Priority: the classes that must arrive
	entries []entry
	unknown []uint64 // delivered names that were never submitted
	open    int      // submitted names neither delivered nor lost yet
	scratch []byte
}

// New returns a ledger for ADUs of aduBytes payload bytes each. An ADU
// of a class in must may never be reported lost.
func New(aduBytes int, must ...alf.Priority) *Ledger {
	l := &Ledger{size: aduBytes, scratch: make([]byte, aduBytes)}
	for _, c := range must {
		l.must[c] = true
	}
	return l
}

// Payload returns the k-th ADU's payload in a buffer the ledger
// reuses: it stays valid until the next call, which suits Send (the
// sender copies before it returns).
func (l *Ledger) Payload(k uint64) []byte {
	for i := range l.scratch {
		l.scratch[i] = pattern(i, k)
	}
	return l.scratch
}

// entry returns the record of a submitted name, or nil.
func (l *Ledger) entry(name uint64) *entry {
	if name >= uint64(len(l.entries)) || !l.entries[name].submitted {
		return nil
	}
	return &l.entries[name]
}

// Submit records that the sender accepted the k-th ADU of the
// workload under wire name name.
func (l *Ledger) Submit(name, k uint64, class alf.Priority) {
	for uint64(len(l.entries)) <= name {
		l.entries = append(l.entries, entry{})
	}
	l.entries[name] = entry{k: k, class: class, submitted: true}
	l.open++
}

// Deliver records one delivery, verifying the tag and the payload in
// place (adu.Data need not outlive the call).
func (l *Ledger) Deliver(adu alf.ADU) {
	e := l.entry(adu.Name)
	if e == nil {
		l.unknown = append(l.unknown, adu.Name)
		return
	}
	if e.delivered++; e.delivered > 1 {
		return
	}
	if e.lost == 0 {
		l.open--
	}
	e.damaged = adu.Tag != Tag(e.k) || len(adu.Data) != l.size
	for i, c := range adu.Data {
		if c != pattern(i, e.k) {
			e.damaged = true
			break
		}
	}
}

// Lose records one loss report from the receiver.
func (l *Ledger) Lose(name uint64) {
	if e := l.entry(name); e != nil {
		if e.lost++; e.lost == 1 && e.delivered == 0 {
			l.open--
		}
	}
}

// Expire records that the sender's retention deadline shed name.
func (l *Ledger) Expire(name uint64) {
	if e := l.entry(name); e != nil {
		e.expired++
	}
}

// Open returns the number of submitted ADUs neither delivered nor
// reported lost yet.
func (l *Ledger) Open() int { return l.open }

// Tally counts distinct submitted ADUs by outcome.
type Tally struct {
	Delivered  int // delivered at least once
	Lost       int // reported lost at least once
	MustLost   int // lost although their class must arrive
	Duplicated int // delivered more than once
	Damaged    int // first delivered with a wrong tag or payload
	// Broken names every ADU that broke a rule, in name order.
	Broken []uint64
}

// Check records a violation, prefixed by prefix, for every broken
// rule: each submitted ADU is delivered or reported lost, exactly once
// and never both; a delivery carries the submitted tag and payload; no
// name is delivered that was never submitted; no ADU expires twice;
// and no ADU of a must-arrive class is lost. It returns the tally.
func (l *Ledger) Check(v *Verdict, prefix string) (t Tally) {
	for i := range l.entries {
		e, name, n := &l.entries[i], uint64(i), len(v.Violations)
		if !e.submitted {
			continue
		}
		switch {
		case e.delivered > 1:
			v.Violatef("%sADU %d delivered %d times", prefix, name, e.delivered)
		case e.lost > 1:
			v.Violatef("%sADU %d reported lost %d times", prefix, name, e.lost)
		case e.delivered == 1 && e.lost == 1:
			v.Violatef("%sADU %d both delivered and reported lost", prefix, name)
		case e.delivered == 0 && e.lost == 0:
			v.Violatef("%sADU %d unaccounted for (neither delivered nor lost)", prefix, name)
		case e.lost == 1 && l.must[e.class]:
			v.Violatef("%sADU %d lost, but class %s must arrive", prefix, name, e.class)
		}
		if e.delivered > 0 && e.damaged {
			v.Violatef("%sADU %d delivered with a wrong tag or payload", prefix, name)
			t.Damaged++
		}
		if e.expired > 1 {
			v.Violatef("%sADU %d expired %d times at the sender", prefix, name, e.expired)
		}
		if len(v.Violations) > n {
			t.Broken = append(t.Broken, name)
		}
		if e.delivered > 0 {
			t.Delivered++
		}
		if e.delivered > 1 {
			t.Duplicated++
		}
		if e.lost > 0 {
			t.Lost++
			if l.must[e.class] {
				t.MustLost++
			}
		}
	}
	for _, name := range l.unknown {
		v.Violatef("%sADU %d delivered but never submitted", prefix, name)
		t.Broken = append(t.Broken, name)
	}
	return t
}

// maxDrainEvents bounds the events a drain may fire past the horizon.
const maxDrainEvents = 5_000_000

// Drain runs s to horizon, then on until its event queue empties: a
// rig whose faults have healed must go quiet on its own. Tail work
// (hold-time give-ups, dead-connection fuses) may run up to slack
// virtual time and a fixed event budget past horizon; exceeding either
// is a recovery livelock, recorded in v. It returns the number of
// events fired after horizon.
func Drain(v *Verdict, s *sim.Scheduler, horizon sim.Time, slack sim.Duration) uint64 {
	s.RunUntil(horizon)
	start := s.Fired()
	for s.Step() {
		if s.Now() > horizon.Add(slack) || s.Fired()-start > maxDrainEvents {
			v.Violatef("livelock: events still firing at %v, %d past the horizon",
				s.Now(), s.Fired()-start)
			break
		}
	}
	return s.Fired() - start
}

// Stream is one sender/receiver pair under test.
type Stream struct {
	Snd *alf.Sender
	Rcv *alf.Receiver
}

// Idle reports whether neither endpoint holds live state: nothing
// retained or backlogged at the sender, nothing partial or tracked
// missing at the receiver.
func (st Stream) Idle() bool {
	return st.Snd.BufferedADUs() == 0 && st.Snd.Backlog() == 0 &&
		st.Rcv.Pending() == 0 && st.Rcv.Missing() == 0
}

// Quiescent records a violation for every stream and every link of
// net (nil off the simulator) that still holds live state after a
// drain: a stream that is not Idle, a link left down, holding or
// queueing packets.
func Quiescent(v *Verdict, net *netsim.Network, streams ...Stream) {
	for _, st := range streams {
		if !st.Idle() {
			v.Violatef("stream %d: not quiet after drain: sender retains %d ADUs "+
				"with %v pacer backlog, receiver holds %d partial and tracks %d missing",
				st.Snd.Config().StreamID, st.Snd.BufferedADUs(), st.Snd.Backlog(),
				st.Rcv.Pending(), st.Rcv.Missing())
		}
	}
	if net == nil {
		return
	}
	for _, l := range net.Links() {
		if l.Down() || l.HeldLen() != 0 || l.QueueLen() != 0 {
			v.Violatef("link %s->%s not quiet after drain: down %v, %d held, %d queued",
				l.From().Name(), l.To().Name(), l.Down(), l.HeldLen(), l.QueueLen())
		}
	}
}
