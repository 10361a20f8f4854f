package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/buf"
	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xcode"
)

// bulkADU is the sim-bulk-aead ADU size: eight 1 KiB fragments.
const bulkADU = 8 << 10

// bulk is one sim-bulk-aead client: a SuiteAEAD NoRetransmit stream
// over a two-hop zero-delay, loss-free netsim route, driven as a closed
// loop with one ADU outstanding. Per-byte passes (the fused ChaCha20-Poly1305
// seal and open, the copy into reassembly) do most of the work here.
type bulk struct {
	sched *sim.Scheduler
	pool  *buf.Pool
	links []*netsim.Link
	snd   *alf.Sender
	rcv   *alf.Receiver
	led   *ledger

	tr         *recorder // nil outside the traced window
	win        *window   // nil outside a measured window
	cur        uint64    // tag+1 of the ADU in flight
	sent       int64     // nowNS when it was submitted
	delivered  int64
	bytes      int64
	handleErrs int64
}

func newBulk(seed uint64, led *ledger) (*bulk, error) {
	g := &bulk{sched: sim.NewScheduler(), pool: buf.NewPool(), led: led}
	n := netsim.New(g.sched, int64(seed))
	n.SetPool(g.pool)
	src, rtr, dst := n.NewNode("src"), n.NewRouter("rtr"), n.NewNode("dst")
	sl, _ := n.NewDuplex(src, rtr.Node, netsim.LinkConfig{})
	rd, _ := n.NewDuplex(rtr.Node, dst, netsim.LinkConfig{})
	rtr.AddRoute(dst, rd)
	g.links = n.Links()

	cfg := alf.Config{Policy: alf.NoRetransmit, Suite: alf.SuiteAEAD, Key: seed | 1, Pool: g.pool}
	snd, err := alf.NewSender(g.sched, func(p []byte) error { return netsim.SendVia(sl, dst, p) }, cfg)
	if err != nil {
		return nil, err
	}
	snd.SendRef = func(ref *buf.Ref) error {
		sp := g.tr.begin(kSendRef, g.cur)
		err := netsim.SendRefVia(sl, dst, ref)
		g.tr.end(sp)
		return err
	}
	// The receiver never sends: virtual time does not advance, so its
	// timers never fire.
	rcv, err := alf.NewReceiver(g.sched, nil, cfg)
	if err != nil {
		return nil, err
	}
	rcv.OnADU = g.onADU
	dst.SetHandler(func(p *netsim.Packet) {
		sp := g.tr.begin(kHandle, g.cur)
		if err := rcv.HandlePacket(p.Payload); err != nil {
			g.handleErrs++
		}
		g.tr.end(sp)
	})
	g.snd, g.rcv = snd, rcv
	return g, nil
}

func (g *bulk) onADU(a alf.ADU) {
	at := nowNS()
	sp := g.tr.begin(kOnADU, a.Tag+1)
	if g.led.deliver(a.Tag, a.Data) && g.win != nil {
		g.win.adus++
		g.win.bytes += int64(len(a.Data))
		g.win.lat = append(g.win.lat, float64(at-g.sent)/1e3)
	}
	g.delivered++
	g.bytes += int64(len(a.Data))
	a.Release()
	g.tr.end(sp)
}

// step sends one ADU and drains everything it scheduled at the current
// instant, which delivers it.
func (g *bulk) step(pay *payloads) {
	tag := g.led.submit()
	g.cur = tag + 1
	g.sent = nowNS()
	sp := g.tr.begin(kSend, g.cur)
	_, err := g.snd.Send(tag, xcode.SyntaxRaw, pay.get(tag))
	g.tr.end(sp)
	if err != nil {
		g.led.refuse(tag)
		return
	}
	sp = g.tr.begin(kDrain, g.cur)
	_ = g.sched.RunUntil(g.sched.Now())
	g.tr.end(sp)
}

// bulkClients is how many closed loops run at once, each with its own
// stream and route and one ADU outstanding: one per CPU of the two-CPU
// virtual machine this was tuned on. There a loop's per-ADU time swings
// between about 45 and 85 us every few seconds with the load other
// guests put on the host; one loop per CPU samples both CPUs' swings in
// every stretch.
const bulkClients = 2

// loop runs the closed loop until end (nowNS) and returns what it
// delivered.
func (g *bulk) loop(pay *payloads, end int64) window {
	w := &window{lat: make(timing, 0, 1<<15)}
	g.win = w
	for nowNS() < end {
		g.step(pay)
	}
	g.win = nil
	return *w
}

// measureBulk runs every client's loop for d, in parallel.
func measureBulk(rigs []*bulk, pay *payloads, d time.Duration) window {
	a := takeSnapshot()
	ws := make([]window, len(rigs))
	var wg sync.WaitGroup
	for i, g := range rigs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws[i] = g.loop(pay, a.wall+int64(d))
		}()
	}
	wg.Wait()
	b := takeSnapshot()
	var w window
	for _, x := range ws {
		w.add(x)
	}
	w.d = between(a, b)
	return w
}

func runBulk(o options, r *report) error {
	pay := newPayloads(o.seed, bulkADU, 256)
	rigs := make([]*bulk, bulkClients)
	leds := make([]*ledger, bulkClients)
	for i := range rigs {
		leds[i] = newLedger(pay, 1<<20)
		g, err := newBulk(o.seed+uint64(i), leds[i])
		if err != nil {
			return err
		}
		rigs[i] = g
	}
	measureBulk(rigs, pay, warmup)

	secs := time.Duration(o.seconds * float64(time.Second))
	runtime.GC() // start each window from the same heap state
	if !o.trace {
		// Set-ups are timed between one-second stretches of the window,
		// so setup_s samples the host over the whole run as the window
		// does.
		var w window
		var setups []float64
		for t := time.Duration(0); t < secs; t += time.Second {
			s := measureBulk(rigs, pay, min(time.Second, secs-t))
			if err := s.stretch(); err != nil {
				return err
			}
			w.add(s)
			for i := 0; i < setupsPerSecond; i++ {
				t, err := setupTime(func() error {
					_, err := newBulk(o.seed, newLedger(pay, 0))
					return err
				})
				if err != nil {
					return err
				}
				setups = append(setups, t)
			}
		}
		if err := endToEnd(r, w, setups); err != nil {
			return err
		}
	} else {
		var w, tw window
		var self [numKinds]int64
		spans := 0
		recs := make([]*recorder, bulkClients)
		for i := range recs {
			recs[i] = newRecorder(1 << 16)
		}
		trace := func(on bool) {
			for i, g := range rigs {
				g.tr = nil
				if on {
					g.tr = recs[i]
				}
			}
		}
		// Each traced slice's self times are summed as it ends and its
		// spans dropped, so memory stays bounded; the last slice's spans
		// are the ones written out.
		for t := time.Duration(0); t < secs; t += 2 * traceSlice {
			trace(false)
			w.add(measureBulk(rigs, pay, traceSlice))
			for _, rec := range recs {
				rec.spans = rec.spans[:0]
			}
			trace(true)
			tw.add(measureBulk(rigs, pay, traceSlice))
			for _, rec := range recs {
				for k, v := range selfTimes(rec.spans) {
					self[k] += v
				}
				spans += rec.len()
			}
		}
		trace(false)
		// Each client is one thread, so the per-ADU cost the layers add
		// up to is CPU time.
		base := us(w.d.cpu) / float64(w.adus)
		traced := us(tw.d.cpu) / float64(tw.adus)
		layerTimes(r, self, spans, tw.adus, base, traced)
		// The SendRef callback is netsim.SendRefVia, the route's enqueue,
		// so its self time counts as forwarding.
		r.set("netsim.forward_us", us(time.Duration(self[kDrain]+self[kSendRef]))/float64(tw.adus))
		// The route is loss-free and one ADU is in flight per client, so
		// the layers must account for the loops' whole cost.
		const tolerance = 0.2
		r.set("ledger.residual_tolerance", tolerance)
		if res := r.metrics["ledger.residual_frac"]; res > tolerance || res < -tolerance {
			r.violate("ledger.residual_frac %.3f outside +/-%.2f: the layers do not add up to the loop", res, tolerance)
		}
		runtimeLayers(r, w)
		kernels(r, base)
		// The clients are identical; the first one's counters stand for
		// both.
		g := rigs[0]
		var maxQ int64
		for _, l := range g.links {
			maxQ = max(maxQ, l.Stats.MaxQueue)
		}
		r.set("netsim.max_queue", float64(maxQ))
		coreLayers(r, g.snd.Stats, g.rcv.Stats, g.pool.Stats(), g.sched.Fired())
		notApplicable(r, "core.sharded.epoch_us_p50", "core.sharded.epoch_us_p99",
			"core.sharded.add_flow_us", "core.sharded.virtual_Mbps",
			"udplink.datagrams_per_adu", "udplink.reader_drops", "udplink.sys_cpu_us_per_adu",
			"udplink.vcsw_per_adu", "udplink.residual_cpu_us_per_adu",
			"bench.gen_lag_p50_us", "bench.gen_lag_p99_us")
		if err := writeSpans(o.spans, o.host, recs); err != nil {
			return err
		}
	}

	for i, g := range rigs {
		if g.handleErrs != 0 {
			r.violate("HandlePacket returned %d errors on a clean route", g.handleErrs)
		}
		checkCore(r, g.snd.Stats, g.rcv.Stats, int64(len(leds[i].n)), g.delivered, g.bytes)
	}
	failedFrac(r, leds...)
	return nil
}
