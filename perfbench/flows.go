package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/buf"
	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xcode"
)

// sim-flows-small: many small cleartext flows on a sharded endpoint, a
// throughput run in virtual time where wall time is pure CPU. Each ADU
// is one fragment, so per-packet control (header stamp and parse, the
// pacer, scheduler events, netsim forwarding, buffer pool traffic, flow
// demux) does nearly all the work, and 16k flows push per-flow state
// past the caches. The settings follow the FlowScale experiment.
//
// ADU latency here is virtual time, the delay the simulated network
// imposes, exact per seed: the seed places flows on shards, and so sets
// each trunk's load. Wall time between a Send and its delivery would
// only measure how the epoch barriers happened to interleave the shards.
const (
	flowsN      = 16384
	flowADUs    = 8
	flowBytes   = 128
	flowShards  = 2
	flowTrunk   = 1e9 // per-shard trunk, bits/s
	flowLoad    = 1.1 // offered load as a share of trunk capacity
	flowTotal   = flowsN * flowADUs
	flowEncap   = 8 // flow-id prefix on every trunk packet
	minFlowRuns = 2 // passes per run, so repetition is always checked
)

// flowsPass is one complete transfer: a fresh sharded endpoint carrying
// every flow's ADUs to quiescence.
type flowsPass struct {
	ep  *alf.Sharded
	led *ledger
	pay *payloads

	sent      []sim.Time  // virtual time of each Send, by tag
	lat       []timing    // per shard
	tr        []*recorder // per shard; nil entries record nothing
	cur       []uint64    // per shard: tag+1 being sent
	delivered []int64     // per shard
	bytes     []int64     // per shard
	epochs    []int64     // nowNS at each barrier

	setup   float64       // thread CPU seconds
	addFlow time.Duration // wall time in AddFlow
	w       window
	fired   uint64
	vMbps   float64
}

// flowDriver submits one flow's ADUs as a self-rescheduling event on
// pooled scheduler events, so the generator itself does not allocate.
type flowDriver struct {
	p    *flowsPass
	f    *alf.Flow
	sh   int
	base uint64
	k    int
	gap  sim.Duration
}

func fireDriver(arg any) { arg.(*flowDriver).fire() }

func (d *flowDriver) fire() {
	p := d.p
	tr := p.tr[d.sh]
	tag := d.base + uint64(d.k)
	tk := tr.begin(kTick, tag+1)
	p.cur[d.sh] = tag + 1
	p.sent[tag] = d.f.Shard().Scheduler().Now()
	sp := tr.begin(kSend, tag+1)
	_, err := d.f.Sender.Send(tag, xcode.SyntaxRaw, p.pay.get(tag))
	tr.end(sp)
	if err != nil {
		p.led.refuse(tag)
	}
	d.k++
	if d.k < flowADUs {
		d.f.Shard().Scheduler().AfterCall(d.gap, fireDriver, d)
	}
	tr.end(tk)
}

// flowIDs draws the seed's distinct flow ids; the seed thereby decides
// how flows spread over the shards.
func flowIDs(seed uint64) []alf.FlowID {
	rng := splitmix(seed)
	seen := make(map[alf.FlowID]bool, flowsN)
	ids := make([]alf.FlowID, 0, flowsN)
	for len(ids) < flowsN {
		id := alf.FlowID(rng.next())
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

func runFlowsPass(seed uint64, ids []alf.FlowID, pay *payloads, recs []*recorder) (*flowsPass, error) {
	p := &flowsPass{
		pay:       pay,
		led:       newLedger(pay, flowTotal),
		sent:      make([]sim.Time, flowTotal),
		lat:       make([]timing, flowShards),
		tr:        make([]*recorder, flowShards),
		cur:       make([]uint64, flowShards),
		delivered: make([]int64, flowShards),
		bytes:     make([]int64, flowShards),
	}
	for sh := range p.lat {
		p.lat[sh] = make(timing, 0, flowTotal/flowShards*5/4)
	}
	for range flowTotal {
		p.led.submit()
	}
	copy(p.tr, recs)
	runtime.GC() // start each window from the same heap state

	setup, err := setupTime(func() error { return p.build(seed, ids, recs != nil) })
	if err != nil {
		return nil, err
	}
	p.setup = setup
	ep := p.ep

	a := takeSnapshot()
	if err := ep.Run(); err != nil {
		return nil, err
	}
	p.w.d = between(a, takeSnapshot())
	for sh := range p.lat {
		p.w.adus += p.delivered[sh]
		p.w.bytes += p.bytes[sh]
		p.w.lat = append(p.w.lat, p.lat[sh]...)
	}
	p.fired = ep.Fired()
	if last := ep.LastDelivery().Seconds(); last > 0 {
		p.vMbps = float64(ep.Stats().Recv.DeliveredBytes) * 8 / 1e6 / last
	}
	return p, nil
}

// build creates the pass's sharded endpoint and flows and schedules
// every flow's first ADU: the pass's set-up.
func (p *flowsPass) build(seed uint64, ids []alf.FlowID, traced bool) error {
	cfg := alf.ShardedConfig{
		Shards:  flowShards,
		Workers: flowShards,
		Seed:    int64(seed),
		Flow: alf.Config{
			Policy: alf.NoRetransmit,
			Suite:  alf.SuiteNone,
			// Slow heartbeats, as in FlowScale: every flow is live for
			// most of the run and 20 ms probes would swamp the events.
			HeartbeatInterval:    time.Second,
			HeartbeatMaxInterval: time.Second,
		},
		Link: netsim.LinkConfig{RateBps: flowTrunk, Delay: 200 * time.Microsecond},
	}
	if traced {
		cfg.OnBarrier = func(sim.Time) { p.epochs = append(p.epochs, nowNS()) }
	}
	ep, err := alf.NewSharded(cfg)
	if err != nil {
		return err
	}
	p.ep = ep
	// Each shard's flows offer flowLoad x its trunk: one ADU per flow
	// per gap, flow starts spread evenly over one gap.
	perShard := flowsN / flowShards
	wireBits := float64(flowBytes+alf.HeaderSize+flowEncap) * 8
	gap := sim.Duration(float64(perShard) * wireBits / (flowLoad * flowTrunk) * 1e9)
	var nth [flowShards]int
	for i, id := range ids {
		t := time.Now()
		f, err := ep.AddFlow(id)
		p.addFlow += time.Since(t)
		if err != nil {
			return err
		}
		sh := f.Shard().Index()
		d := &flowDriver{p: p, f: f, sh: sh, base: uint64(i * flowADUs), gap: gap}
		p.wrap(f, sh, d.base)
		f.Shard().Scheduler().AtCall(sim.Time(gap*sim.Duration(nth[sh])/sim.Duration(perShard)), fireDriver, d)
		nth[sh]++
	}
	return nil
}

// wrap puts the benchmark's wrappers around flow f's SendRef and OnADU.
// The originals stay in the chain: OnADU's keeps LastDelivery current
// and recycles the ADU.
func (p *flowsPass) wrap(f *alf.Flow, sh int, lo uint64) {
	sendRef := f.Sender.SendRef
	f.Sender.SendRef = func(ref *buf.Ref) error {
		tr := p.tr[sh]
		sp := tr.begin(kSendRef, p.cur[sh])
		err := sendRef(ref)
		tr.end(sp)
		return err
	}
	onADU := f.Receiver.OnADU
	sched := f.Shard().Scheduler()
	f.Receiver.OnADU = func(a alf.ADU) {
		at := sched.Now()
		tr := p.tr[sh]
		sp := tr.begin(kOnADU, a.Tag+1)
		if a.Tag < lo || a.Tag >= lo+flowADUs {
			p.led.unknown.Add(1) // another flow's ADU
		} else if p.led.deliver(a.Tag, a.Data) {
			p.lat[sh] = append(p.lat[sh], us(at.Sub(p.sent[a.Tag])))
		}
		p.delivered[sh]++
		p.bytes[sh] += int64(len(a.Data))
		onADU(a)
		tr.end(sp)
	}
}

// check verifies one pass's endpoint counters against the benchmark's
// own, and its virtual-time results against the first pass's (they are
// a pure function of the seed). The pass's ledger is checked with the
// others at the end of the run.
func (p *flowsPass) check(r *report, first *flowsPass) {
	st := p.ep.Stats()
	checkCore(r, st.Send, st.Recv, flowTotal, p.w.adus, p.w.bytes)
	if first != nil && (p.fired != first.fired || p.vMbps != first.vMbps) {
		r.violate("pass repeated with %d events / %.6f vMb/s, first pass had %d / %.6f",
			p.fired, p.vMbps, first.fired, first.vMbps)
	}
}

func runFlows(o options, r *report) error {
	pay := newPayloads(o.seed, flowBytes, flowTotal)
	ids := flowIDs(o.seed)
	secs := time.Duration(o.seconds * float64(time.Second))

	// A warm-up pass fills caches and the runtime's heap before any
	// pass is timed; it is checked like the rest.
	first, err := runFlowsPass(o.seed, ids, pay, nil)
	if err != nil {
		return err
	}
	first.check(r, nil)
	leds := []*ledger{first.led}
	// Keep what the per-layer report needs from the first pass, and let
	// its endpoint go.
	st := first.ep.Stats()
	var pool buf.Stats
	for i := 0; i < first.ep.Shards(); i++ {
		ps := first.ep.Shard(i).Pool().Stats()
		pool.Gets += ps.Gets
		pool.News += ps.News
	}
	first.ep = nil

	var setups []float64
	var addFlow time.Duration
	var w, tw window
	var self [numKinds]int64
	var spans int
	var epochs timing
	var last []*recorder
	for runs := 0; runs < minFlowRuns || w.d.wall+tw.d.wall < secs; runs++ {
		var recs []*recorder
		if o.trace && runs%2 == 1 {
			recs = make([]*recorder, flowShards)
			for i := range recs {
				recs[i] = newRecorder(flowTotal / flowShards * 5)
			}
		}
		p, err := runFlowsPass(o.seed, ids, pay, recs)
		if err != nil {
			return err
		}
		p.check(r, first)
		leds = append(leds, p.led)
		setups = append(setups, p.setup)
		addFlow += p.addFlow
		if recs == nil {
			if err := p.w.stretch(); err != nil {
				return err
			}
			w.add(p.w)
			continue
		}
		tw.add(p.w)
		for _, rec := range recs {
			for k, v := range selfTimes(rec.spans) {
				self[k] += v
			}
			spans += rec.len()
		}
		for i := 1; i < len(p.epochs); i++ {
			epochs = append(epochs, float64(p.epochs[i]-p.epochs[i-1])/1e3)
		}
		last = recs
	}
	failedFrac(r, leds...)
	if !o.trace {
		return endToEnd(r, w, setups)
	}

	// Two workers run the shards in parallel, so the per-ADU cost the
	// layers add up to is CPU time, not wall time.
	base := us(w.d.cpu) / float64(w.adus)
	traced := us(tw.d.cpu) / float64(tw.adus)
	layerTimes(r, self, spans, tw.adus, base, traced)
	sort.Float64s(epochs)
	if len(epochs) == 0 {
		return fmt.Errorf("no barrier epochs were timed")
	}
	r.set("core.sharded.epoch_us_p50", quantile(epochs, ladder[0]))
	r.set("core.sharded.epoch_us_p99", quantile(epochs, ladder[2]))
	r.note("barrier epochs timed=%d", len(epochs))
	r.set("core.sharded.add_flow_us", us(addFlow)/float64(flowsN*len(setups)))
	r.set("core.sharded.virtual_Mbps", first.vMbps)
	coreLayers(r, st.Send, st.Recv, pool, first.fired)
	r.set("netsim.max_queue", float64(st.Trunk.MaxQueue))
	runtimeLayers(r, w)
	kernels(r, 0)
	notApplicable(r, "core.receiver.handle_us", "netsim.forward_us", "ledger.residual_tolerance", "ilp.kernel_share",
		"udplink.datagrams_per_adu", "udplink.reader_drops", "udplink.sys_cpu_us_per_adu",
		"udplink.vcsw_per_adu", "udplink.residual_cpu_us_per_adu",
		"bench.gen_lag_p50_us", "bench.gen_lag_p99_us")
	r.note("spans cover the generator, Send, SendRef and OnADU; the receive path runs inside alf.Sharded, out of the benchmark's reach")
	return writeSpans(o.spans, o.host, last)
}
