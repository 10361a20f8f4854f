// Command perfbench is the repository's benchmark: it drives the ALF/ILP
// stack through its public APIs on three workloads, checks every
// delivered ADU, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run, --trace 1). The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload sim-bulk-aead --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	sim-bulk-aead    closed loop, 8 KiB AEAD ADUs over a two-hop netsim route
//	sim-flows-small  16384 flows x 8 x 128 B cleartext ADUs on alf.Sharded
//	udp-lossy-aead   open loop, 1000 x 8 KiB AEAD ADUs/s over loopback UDP, 2% loss
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"
)

// gated lists the end-to-end metrics BENCHMARK.json bounds; an
// untraced run reports exactly these in its JSON line.
var gated = []string{"goodput_MBps", "adu_latency_p50_us", "adu_latency_p99_us", "cpu_us_per_adu", "setup_s"}

// perLayer lists the metrics a traced run reports in its JSON line.
var perLayer = []string{
	"core.sender.send_us", "core.receiver.handle_us", "netsim.forward_us", "bench.verify_us",
	"ledger.residual_frac", "ledger.residual_tolerance", "trace.overhead_frac",
	"ilp.seal_MBps", "ilp.open_MBps", "cipher.block_MBps", "host.copy_MBps", "ilp.kernel_share",
	"core.sender.wire_bytes_per_adu", "core.useful_frac", "core.sender.resent_frac",
	"core.receiver.nacks_per_adu", "core.receiver.dup_frags", "core.receiver.late_frags",
	"core.receiver.auth_fails", "buf.miss_frac", "sim.events_per_adu",
	"core.sharded.epoch_us_p50", "core.sharded.epoch_us_p99", "core.sharded.add_flow_us",
	"core.sharded.virtual_Mbps", "netsim.max_queue",
	"udplink.datagrams_per_adu", "udplink.reader_drops", "udplink.sys_cpu_us_per_adu",
	"udplink.vcsw_per_adu", "udplink.residual_cpu_us_per_adu",
	"runtime.gc_cycles_per_kadu", "runtime.gc_pause_p99_us",
	"bench.gen_lag_p50_us", "bench.gen_lag_p99_us",
	"allocs_per_adu", "failed_frac",
}

// units of every metric either kind of run can report.
var units = map[string]string{
	"goodput_MBps": "MB/s", "adu_latency_p50_us": "us", "adu_latency_p99_us": "us",
	"cpu_us_per_adu": "us", "allocs_per_adu": "count", "failed_frac": "ratio", "setup_s": "s",
	"core.sender.send_us": "us", "core.receiver.handle_us": "us", "netsim.forward_us": "us",
	"bench.verify_us": "us", "ledger.residual_frac": "ratio", "ledger.residual_tolerance": "ratio",
	"trace.overhead_frac": "ratio", "ilp.seal_MBps": "MB/s", "ilp.open_MBps": "MB/s",
	"cipher.block_MBps": "MB/s", "host.copy_MBps": "MB/s", "ilp.kernel_share": "ratio",
	"core.sender.wire_bytes_per_adu": "bytes", "core.useful_frac": "ratio",
	"core.sender.resent_frac": "ratio", "core.receiver.nacks_per_adu": "count",
	"core.receiver.dup_frags": "count", "core.receiver.late_frags": "count",
	"core.receiver.auth_fails": "count", "buf.miss_frac": "ratio", "sim.events_per_adu": "count",
	"core.sharded.epoch_us_p50": "us", "core.sharded.epoch_us_p99": "us",
	"core.sharded.add_flow_us": "us", "core.sharded.virtual_Mbps": "Mb/s", "netsim.max_queue": "count",
	"udplink.datagrams_per_adu": "count", "udplink.reader_drops": "count",
	"udplink.sys_cpu_us_per_adu": "us", "udplink.vcsw_per_adu": "count",
	"udplink.residual_cpu_us_per_adu": "us", "runtime.gc_cycles_per_kadu": "count",
	"runtime.gc_pause_p99_us": "us", "bench.gen_lag_p50_us": "us", "bench.gen_lag_p99_us": "us",
}

// report collects one run's figures and any correctness violations.
type report struct {
	metrics    map[string]float64
	notes      []string // extra human-readable lines
	violations []string
	attempted  int
	failed     int
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	r.metrics[name] = v
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// options are the command-line settings every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	spans   string // where a traced run writes its spans
	host    string // fingerprint, stamped into span dumps
}

var workloads = map[string]func(options, *report) error{
	"sim-bulk-aead":   runBulk,
	"sim-flows-small": runFlows,
	"udp-lossy-aead":  runUDP,
}

func main() {
	workload := flag.String("workload", "", "sim-bulk-aead, sim-flows-small or udp-lossy-aead")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {sim-bulk-aead|sim-flows-small|udp-lossy-aead}, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	// Every run must end well inside three minutes; a wedged run exits
	// without a result rather than being killed mid-line.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170 s")
		os.Exit(3)
	})
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, host: fingerprint(),
		spans: fmt.Sprintf(".bench_build/spans/%s-%d.csv.gz", *workload, *seed)}

	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("host %s\n", o.host)
	r := newReport()
	if err := run(o, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	copyRate := r.metrics["host.copy_MBps"]
	if copyRate == 0 {
		copyRate = copyMBps()
	}
	want := gated
	if o.trace {
		want = perLayer
	}
	for _, l := range r.notes {
		fmt.Println(l)
	}
	printTable(r, copyRate)

	out := map[string]map[string]any{}
	for _, name := range want {
		v, ok := r.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.violate("metric %s was not measured", name)
			continue
		}
		out[name] = map[string]any{"value": v, "unit": units[name]}
	}
	for _, v := range r.violations {
		fmt.Printf("VIOLATION %s\n", v)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.violations) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(r.violations) > 0 {
		os.Exit(1)
	}
}

// copyUS is the time one 8 KiB copy takes at rate MB/s.
func copyUS(rate float64) float64 { return 8192 / rate }

// printTable prints every measured metric by name and unit, with each
// wall-clock figure also given against the host's copy rate: rates as
// a ratio to it, times in units of one 8 KiB copy.
func printTable(r *report, copyRate float64) {
	names := append(append([]string{}, gated...), "allocs_per_adu", "failed_frac")
	for _, n := range perLayer {
		if !slices.Contains(names, n) {
			names = append(names, n)
		}
	}
	for _, n := range names {
		v, ok := r.metrics[n]
		if !ok {
			continue
		}
		rel := ""
		switch {
		case units[n] == "MB/s" && n != "host.copy_MBps":
			rel = fmt.Sprintf("  (%.4f x copy)", v/copyRate)
		case units[n] == "us":
			rel = fmt.Sprintf("  (%.2f copies of 8 KiB)", v/copyUS(copyRate))
		case units[n] == "s":
			rel = fmt.Sprintf("  (%.1f copies of 8 KiB)", v*1e6/copyUS(copyRate))
		}
		fmt.Printf("%-34s %14.6g %-6s%s\n", n, v, units[n], rel)
	}
}

// endToEnd sets the seven end-to-end metrics from one measured window.
// Goodput, latency and CPU are the medians of the window's stretches'
// figures, so that a stretch the host disturbed moves them no more than
// one stretch in the middle of the order would.
func endToEnd(r *report, w window, setups []float64) error {
	if w.adus == 0 || len(w.parts) == 0 {
		return fmt.Errorf("no ADU was delivered in the measured window")
	}
	_, _, top, topV, err := w.lat.summary()
	if err != nil {
		return fmt.Errorf("latency: %w", err)
	}
	field := func(f func(figures) float64) float64 {
		xs := make([]float64, len(w.parts))
		for i, p := range w.parts {
			xs[i] = f(p)
		}
		return median(xs)
	}
	r.set("goodput_MBps", field(func(p figures) float64 { return p.goodput }))
	r.set("adu_latency_p50_us", field(func(p figures) float64 { return p.p50 }))
	r.set("adu_latency_p99_us", field(func(p figures) float64 { return p.p99 }))
	r.set("cpu_us_per_adu", field(func(p figures) float64 { return p.cpu }))
	r.set("allocs_per_adu", float64(w.d.mallocs)/float64(w.adus))
	r.set("setup_s", median(setups))
	r.note("latency samples=%d stretches=%d; over all samples %s=%.3f us (highest percentile with >=10 samples beyond it)",
		len(w.lat), len(w.parts), top.label, topV)
	r.note("setup repeats=%d window=%.3f s adus=%d", len(setups), w.d.wall.Seconds(), w.adus)
	return nil
}

// us converts a duration to microseconds without rounding.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// window is one measured interval: ADUs and payload bytes delivered in
// it, the process deltas over it, per-ADU latencies in us, and the
// figures of each stretch it was measured in.
type window struct {
	adus, bytes int64
	d           delta
	lat         timing
	parts       []figures
}

// figures are one stretch's end-to-end figures.
type figures struct {
	goodput, p50, p99, cpu float64
}

// stretch records w's own figures as one stretch, for a window measured
// in one piece.
func (w *window) stretch() error {
	p50, p99, _, _, err := w.lat.summary()
	if err != nil {
		return fmt.Errorf("latency: %w", err)
	}
	w.parts = append(w.parts, figures{
		goodput: float64(w.bytes) / w.d.wall.Seconds() / 1e6,
		p50:     p50,
		p99:     p99,
		cpu:     us(w.d.cpu) / float64(w.adus),
	})
	return nil
}

// add folds o into w, as if the two intervals were one.
func (w *window) add(o window) {
	w.adus += o.adus
	w.bytes += o.bytes
	w.lat = append(w.lat, o.lat...)
	w.parts = append(w.parts, o.parts...)
	w.d.wall += o.d.wall
	w.d.cpu += o.d.cpu
	w.d.sys += o.d.sys
	w.d.vcsw += o.d.vcsw
	w.d.mallocs += o.d.mallocs
	w.d.gcs += o.d.gcs
	w.d.pauseP99 = max(w.d.pauseP99, o.d.pauseP99)
}

// traceSlice is how long a traced run measures before switching
// between tracing on and off. Alternating keeps drift in the host's
// speed out of the traced-versus-untraced comparison.
const traceSlice = 100 * time.Millisecond

// failedFrac sets failed_frac and the result's attempted/failed counts
// from the ledgers, recording a violation for each that saw a failure.
func failedFrac(r *report, ls ...*ledger) {
	r.attempted, r.failed = 0, 0
	for _, l := range ls {
		failed, err := l.check()
		r.attempted += len(l.n)
		r.failed += failed
		if err != nil {
			r.violate("%v", err)
		}
	}
	r.set("failed_frac", float64(r.failed)/float64(max(r.attempted, 1)))
}

// layerTimes sets the per-layer self-time metrics and the ledger
// residual from the traced spans' self times. base is the untraced
// per-ADU cost (us) the layers should add up to; traced is the same
// cost with tracing.
func layerTimes(r *report, self [numKinds]int64, spans int, adus int64, base, traced float64) {
	per := func(ns int64) float64 { return float64(ns) / 1e3 / float64(adus) }
	var sum int64
	for _, v := range self {
		sum += v
	}
	r.set("core.sender.send_us", per(self[kSend]))
	r.set("core.receiver.handle_us", per(self[kHandle]))
	r.set("bench.verify_us", per(self[kOnADU]))
	r.set("ledger.residual_frac", 1-per(sum)/base)
	r.set("trace.overhead_frac", (traced-base)/base)
	var parts []string
	for k, v := range self {
		parts = append(parts, fmt.Sprintf("%s=%.3f", kindNames[k], per(v)))
	}
	r.note("span self time per ADU (us): %s; spans=%d adus=%d untraced=%.3f traced=%.3f",
		strings.Join(parts, " "), spans, adus, base, traced)
}
