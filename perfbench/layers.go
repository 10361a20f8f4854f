package main

import (
	"strings"
	"time"

	"repro/internal/buf"
	alf "repro/internal/core"
)

// Run-length settings shared by the workloads.
const (
	warmup          = 300 * time.Millisecond // fills pools and caches before any window
	setupRepeats    = 256                    // set-ups timed per udp run; setup_s is their median
	setupsPerSecond = 16                     // set-ups timed per second of a sim-bulk-aead window
	spanCap         = 1 << 20                // spans a traced udp window is sized for
)

// coreLayers sets the counters the endpoints keep themselves.
func coreLayers(r *report, s alf.SenderStats, v alf.ReceiverStats, pool buf.Stats, fired uint64) {
	adus := float64(s.ADUs)
	r.set("core.sender.wire_bytes_per_adu", float64(s.WireBytes)/adus)
	r.set("core.useful_frac", float64(v.DeliveredBytes)/float64(s.WireBytes))
	r.set("core.sender.resent_frac", float64(s.ResentADUs)/adus)
	r.set("core.receiver.nacks_per_adu", float64(v.NacksSent)/adus)
	r.set("core.receiver.dup_frags", float64(v.DupFragments))
	r.set("core.receiver.late_frags", float64(v.LateFragments))
	r.set("core.receiver.auth_fails", float64(v.AuthFails))
	r.set("buf.miss_frac", float64(pool.News)/float64(pool.Gets))
	r.set("sim.events_per_adu", float64(fired)/adus)
}

// checkCore records a violation wherever the endpoints' own counters
// disagree with what the benchmark submitted and saw delivered, or
// show an authentication failure or a given-up ADU.
func checkCore(r *report, s alf.SenderStats, v alf.ReceiverStats, submitted, delivered, bytes int64) {
	if s.ADUs != submitted {
		r.violate("sender counted %d ADUs, benchmark submitted %d", s.ADUs, submitted)
	}
	if v.ADUsDelivered != delivered || v.DeliveredBytes != bytes {
		r.violate("receiver counted %d ADUs / %d bytes delivered, benchmark saw %d / %d",
			v.ADUsDelivered, v.DeliveredBytes, delivered, bytes)
	}
	if v.AuthFails != 0 {
		r.violate("%d fragments failed authentication", v.AuthFails)
	}
	if v.ADUsLost != 0 {
		r.violate("receiver gave up on %d ADUs", v.ADUsLost)
	}
}

// runtimeLayers sets the Go runtime's share from an untraced window.
func runtimeLayers(r *report, w window) {
	r.set("runtime.gc_cycles_per_kadu", float64(w.d.gcs)*1000/float64(w.adus))
	r.set("runtime.gc_pause_p99_us", float64(w.d.pauseP99)/1e3)
	r.set("allocs_per_adu", float64(w.d.mallocs)/float64(w.adus))
}

// kernels sets the calibration rates and, when perADU (us) is given,
// the share of it the AEAD kernels would take on one 8 KiB ADU.
func kernels(r *report, perADU float64) {
	seal, open, block := kernelRates()
	r.set("ilp.seal_MBps", seal)
	r.set("ilp.open_MBps", open)
	r.set("cipher.block_MBps", block)
	r.set("host.copy_MBps", copyMBps())
	if perADU > 0 {
		r.set("ilp.kernel_share", (8192/seal+8192/open)/perADU)
	}
}

// notApplicable reports layers a workload does not exercise as 0, and
// names them, so every traced run carries the same metric set.
func notApplicable(r *report, names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
	r.note("not exercised by this workload (reported as 0): %s", strings.Join(names, " "))
}
