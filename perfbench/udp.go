package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"time"

	"repro/internal/buf"
	alf "repro/internal/core"
	"repro/internal/sim"
	"repro/internal/udplink"
	"repro/internal/xcode"
)

// udp-lossy-aead: the real-socket path. Two loopback UDP sockets under
// one udplink.Clock carry a SuiteAEAD SenderBuffered stream, offered
// open loop from a scheduler timer. The receive handler discards a
// seeded 2% of data datagrams, so the recovery path (NACK scan,
// whole-ADU resend, retention release) runs all the time and sets the
// tail latency.
const (
	udpADU   = 8 << 10
	udpEvery = time.Millisecond // one ADU due per tick
	udpWarm  = 300              // ADUs offered before the measured window
	udpDrain = 15 * time.Second // after the last ADU, for recovery to finish
	udpLoss  = 0.02
)

// slice is a stretch of the measured window, traced or not: the
// process snapshot taken when it began and what it measured. Deliveries
// count toward the slice they happen in, latencies toward the slice
// their ADU was due in.
type slice struct {
	from   uint64 // first ADU index due in it
	traced bool
	at     snapshot
	w      window
}

type udpRig struct {
	sched      *sim.Scheduler
	clk        *udplink.Clock
	pool       *buf.Pool
	conns      [2]*net.UDPConn
	sndLink    *udplink.Link // the sender's socket: data out, control in
	rcvLink    *udplink.Link // the receiver's socket: data in, control out
	snd        *alf.Sender
	rcv        *alf.Receiver
	led        *ledger
	pay        *payloads
	rng        splitmix
	lossThresh uint64

	rec        *recorder // the traced slices' spans
	tr         *recorder // rec inside a traced slice, else nil
	cur        uint64    // tag+1 inside Send; 0 for resends
	start      int64     // nowNS as the clock starts: virtual time 0
	next       uint64    // ADUs offered so far
	total      uint64
	slices     []slice // the last one only marks the window's end
	step       uint64  // ADUs per slice
	si         int     // index of the slice in progress, or -1
	win        *window // &slices[si].w, or nil outside the window
	due        []int64
	lag        timing // due to Send, for ADUs due in the measured window
	backlog    []int  // offered minus delivered, at each measured tick
	deliveries int64
	bytes      int64
	unique     uint64
	dropped    int64
	genDone    int64 // nowNS when the generator finished, or 0
}

func newUDPRig(seed uint64, led *ledger, pay *payloads) (*udpRig, error) {
	g := &udpRig{sched: sim.NewScheduler(), pool: buf.NewPool(), led: led, pay: pay, rng: splitmix(seed ^ 0x10557), si: -1}
	g.lossThresh = uint64(udpLoss * math.Exp2(64))
	for i := range g.conns {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns[i] = c
	}
	g.clk = udplink.NewClock(g.sched, udplink.Config{Pool: g.pool})
	g.sndLink = g.clk.NewLink(g.conns[0], g.conns[1].LocalAddr())
	g.rcvLink = g.clk.NewLink(g.conns[1], g.conns[0].LocalAddr())
	// Recovery timing is the library default (20 ms NACK delay and
	// scan), so the tail is what an unconfigured stream sees.
	cfg := alf.Config{Policy: alf.SenderBuffered, Suite: alf.SuiteAEAD, Key: seed | 1, Pool: g.pool}
	snd, err := alf.NewSender(g.sched, g.sndLink.Send, cfg)
	if err != nil {
		g.close()
		return nil, err
	}
	snd.SendRef = func(ref *buf.Ref) error {
		sp := g.tr.begin(kSendRef, g.cur)
		err := g.sndLink.SendRef(ref)
		g.tr.end(sp)
		return err
	}
	rcv, err := alf.NewReceiver(g.sched, g.rcvLink.Send, cfg)
	if err != nil {
		g.close()
		return nil, err
	}
	rcv.OnADU = g.onADU
	g.rcvLink.SetHandler(func(p []byte) {
		// Only datagrams longer than a header carry fragment payload.
		if len(p) > alf.HeaderSize && g.rng.next() < g.lossThresh {
			g.dropped++
			return
		}
		sp := g.tr.begin(kHandle, 0)
		_ = rcv.HandlePacket(p)
		g.tr.end(sp)
	})
	g.sndLink.SetHandler(func(p []byte) { _ = snd.HandleControl(p) })
	g.snd, g.rcv = snd, rcv
	return g, nil
}

func (g *udpRig) close() {
	for _, c := range g.conns {
		if c != nil {
			c.Close()
		}
	}
}

func (g *udpRig) onADU(a alf.ADU) {
	at := nowNS()
	g.tr.claim(a.Tag + 1)
	sp := g.tr.begin(kOnADU, a.Tag+1)
	if g.led.deliver(a.Tag, a.Data) {
		g.unique++
		if a.Tag >= udpWarm && a.Tag < g.total {
			s := &g.slices[(a.Tag-udpWarm)/g.step].w
			s.lat = append(s.lat, us(time.Duration(at-g.due[a.Tag])))
		}
	}
	if g.win != nil {
		g.win.adus++
		g.win.bytes += int64(len(a.Data))
	}
	g.deliveries++
	g.bytes += int64(len(a.Data))
	a.Release()
	g.tr.end(sp)
}

// tick offers the ADU that is due now, switching measurement slices at
// their boundaries. The scheduler fires it once per millisecond of
// virtual time, which the clock keeps equal to wall time since Run
// began: a tick that runs late still fires, back to back with the next,
// and its ADU counts as due at the tick's scheduled time. How late a
// tick runs (bench.gen_lag_*) is mostly how late the clock wakes from
// its idle sleep: Go's netpoller on Linux sleeps in whole milliseconds,
// so up to 1 ms on an idle host. That lateness is the clock's, and the
// latency figures charge it to the stack.
func (g *udpRig) tick() bool {
	due := g.start + int64(g.sched.Now())
	now := nowNS()
	if g.si+1 < len(g.slices) && g.next == g.slices[g.si+1].from {
		g.switchSlice()
	}
	if g.next == g.total {
		g.genDone = now
		return false
	}
	tag := g.led.submit()
	tk := g.tr.begin(kTick, tag+1)
	g.due[tag] = due
	g.cur = tag + 1
	sp := g.tr.begin(kSend, g.cur)
	_, err := g.snd.Send(tag, xcode.SyntaxRaw, g.pay.get(tag))
	g.tr.end(sp)
	g.cur = 0
	if err != nil {
		g.led.refuse(tag)
	}
	if g.si >= 0 {
		g.lag = append(g.lag, us(time.Duration(now-due)))
		g.backlog = append(g.backlog, int(g.next+1-g.unique))
	}
	g.next++
	g.tr.end(tk)
	return true
}

// switchSlice closes the slice in progress and opens the next one (the
// last boundary, at total, opens nothing).
func (g *udpRig) switchSlice() {
	snap := takeSnapshot()
	if g.si >= 0 {
		g.win.d = between(g.slices[g.si].at, snap)
	}
	g.si++
	g.win, g.tr = nil, nil
	if g.si < len(g.slices)-1 {
		g.slices[g.si].at = snap
		g.win = &g.slices[g.si].w
		if g.slices[g.si].traced {
			g.tr = g.rec
		}
	}
}

// drained reports whether every offered ADU has been delivered and both
// endpoints have settled, or records a violation once recovery has had
// udpDrain to finish.
func (g *udpRig) drained(r *report) bool {
	if g.genDone == 0 {
		return false
	}
	if g.unique == g.next && g.snd.BufferedADUs() == 0 && g.rcv.Pending() == 0 && g.rcv.Missing() == 0 {
		return true
	}
	if nowNS()-g.genDone > int64(udpDrain) {
		r.violate("not drained %v after the last ADU: %d of %d delivered, %d retained, %d partial, %d missing",
			udpDrain, g.unique, g.next, g.snd.BufferedADUs(), g.rcv.Pending(), g.rcv.Missing())
		return true
	}
	return false
}

// growing reports whether the backlog in the last quarter of the
// measured window exceeds the first quarter's by more than 50 ADUs
// (50 ms of offered load): the stack did not keep up with the rate.
func growing(backlog []int) (first, last float64, grew bool) {
	q := len(backlog) / 4
	if q == 0 {
		return 0, 0, false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	first, last = mean(backlog[:q]), mean(backlog[len(backlog)-q:])
	return first, last, last > first+50
}

func runUDP(o options, r *report) error {
	// The window is cut into slices: one-second stretches, or untraced
	// and traced slices alternating. It spans a whole number of them.
	step := uint64(time.Second / udpEvery)
	if o.trace {
		step = uint64(traceSlice / udpEvery)
	}
	measured := uint64(o.seconds*float64(time.Second/udpEvery)+float64(step)-1) / step * step
	total := udpWarm + measured
	pay := newPayloads(o.seed, udpADU, 1024)
	led := newLedger(pay, int(total))

	// Half the set-ups are timed before the run and half after it, so
	// setup_s samples the host at both ends of the window.
	var setups []float64
	build := func() (*udpRig, error) {
		var rig *udpRig
		t, err := setupTime(func() (err error) {
			rig, err = newUDPRig(o.seed, led, pay)
			return err
		})
		setups = append(setups, t)
		return rig, err
	}
	buildAndClose := func() error {
		for i := 0; i < setupRepeats/2; i++ {
			rig, err := build()
			if err != nil {
				return err
			}
			rig.close()
		}
		return nil
	}
	if err := buildAndClose(); err != nil {
		return err
	}
	g, err := build()
	if err != nil {
		return err
	}
	defer g.close()
	g.total = total
	g.due = make([]int64, total)
	g.lag = make(timing, 0, measured)
	g.backlog = make([]int, 0, measured)
	g.step = step
	if o.trace {
		g.rec = newRecorder(spanCap)
	}
	for from := uint64(udpWarm); from < total; from += g.step {
		g.slices = append(g.slices, slice{from: from, traced: o.trace && (from-udpWarm)/g.step%2 == 1})
	}
	g.slices = append(g.slices, slice{from: total})

	runtime.GC() // start each window from the same heap state
	g.sched.Every(udpEvery, g.tick)
	g.start = nowNS()
	g.clk.Run(func() bool { return g.drained(r) })
	g.clk.Stop()
	if err := buildAndClose(); err != nil {
		return err
	}

	if first, last, grew := growing(g.backlog); grew {
		r.violate("backlog grew from %.1f to %.1f ADUs over the window: the stack fell behind the offered rate", first, last)
	}
	checkCore(r, g.snd.Stats, g.rcv.Stats, int64(g.next), g.deliveries, g.bytes)
	failedFrac(r, led)
	sort.Float64s(g.lag)
	if len(g.lag) == 0 {
		return fmt.Errorf("no ADU was offered in the measured window")
	}
	lag50, lag99 := quantile(g.lag, ladder[0]), quantile(g.lag, ladder[2])
	r.note("generator lag p50=%.1f us p99=%.1f us; injected drops=%d; reader drops=%d",
		lag50, lag99, g.dropped, g.sndLink.Dropped()+g.rcvLink.Dropped())
	var w, tw window
	for _, s := range g.slices[:len(g.slices)-1] {
		switch {
		case s.traced:
			tw.add(s.w)
		case o.trace:
			w.add(s.w)
		default:
			if err := s.w.stretch(); err != nil {
				return err
			}
			w.add(s.w)
		}
	}
	if !o.trace {
		return endToEnd(r, w, setups)
	}

	cpuPer := func(w window) float64 { return us(w.d.cpu) / float64(w.adus) }
	base, traced := cpuPer(w), cpuPer(tw)
	layerTimes(r, selfTimes(g.rec.spans), len(g.rec.spans), tw.adus, base, traced)
	r.set("udplink.datagrams_per_adu", float64(g.sndLink.Sent()+g.rcvLink.Sent())/float64(g.snd.Stats.ADUs))
	r.set("udplink.reader_drops", float64(g.sndLink.Dropped()+g.rcvLink.Dropped()))
	r.set("udplink.sys_cpu_us_per_adu", us(w.d.sys)/float64(w.adus))
	r.set("udplink.vcsw_per_adu", float64(w.d.vcsw)/float64(w.adus))
	r.set("udplink.residual_cpu_us_per_adu", base-
		r.metrics["core.sender.send_us"]-r.metrics["core.receiver.handle_us"]-r.metrics["bench.verify_us"])
	r.set("bench.gen_lag_p50_us", lag50)
	r.set("bench.gen_lag_p99_us", lag99)
	coreLayers(r, g.snd.Stats, g.rcv.Stats, g.pool.Stats(), g.sched.Fired())
	runtimeLayers(r, w)
	kernels(r, 0)
	notApplicable(r, "netsim.forward_us", "netsim.max_queue", "ledger.residual_tolerance", "ilp.kernel_share",
		"core.sharded.epoch_us_p50", "core.sharded.epoch_us_p99", "core.sharded.add_flow_us", "core.sharded.virtual_Mbps")
	return writeSpans(o.spans, o.host, []*recorder{g.rec})
}
