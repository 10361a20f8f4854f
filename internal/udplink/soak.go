package udplink

import (
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/buf"
	alf "repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/xcode"
)

// SoakConfig parameterizes a real-UDP loopback soak: the same
// exactly-once / integrity / drain invariants internal/faults/soak
// checks on the simulator — through the same internal/invariant
// ledger — asserted off-simulator against kernel sockets, wall-clock
// timers, and deterministic send-side drops.
// Zero fields take defaults.
type SoakConfig struct {
	// ADUs and ADUBytes shape the workload (defaults 200 x 3000 B).
	ADUs     int
	ADUBytes int
	// LossProb drops data-plane datagrams on the send side (default
	// 0.05; the control plane stays clean so the run bounds cleanly).
	LossProb float64
	// Seed drives the drop stream (default 1).
	Seed uint64
	// Suite selects the cipher plane (default alf.SuiteAEAD — the soak
	// doubles as the fused-crypto-over-real-sockets check).
	Suite alf.CipherSuite
	// FECGroup enables sender FEC (default 0).
	FECGroup int
	// SubmitEvery is the virtual-timer submission period (default
	// 2 ms; also the pacing the soak applies to the socket).
	SubmitEvery time.Duration
	// Timeout bounds the wall-clock run (default 60 s).
	Timeout time.Duration
}

func (c *SoakConfig) fill() {
	if c.ADUs == 0 {
		c.ADUs = 200
	}
	if c.ADUBytes == 0 {
		c.ADUBytes = 3000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Suite == alf.SuiteAuto {
		c.Suite = alf.SuiteAEAD
	}
	if c.SubmitEvery == 0 {
		c.SubmitEvery = 2 * time.Millisecond
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
}

// SoakResult reports what a soak run observed. Violated invariants
// surface as the error from RunSoak, not here.
type SoakResult struct {
	Delivered int64
	Lost      int64
	Duplicate int64
	Corrupt   int64
	WireDrops int64 // datagrams eaten by the lossy conn
	Resent    int64 // sender whole-ADU retransmissions
	AuthFails int64 // receiver tag rejections (expect 0: drops, not damage)
	Elapsed   time.Duration
}

// RunSoak transfers a workload across a pair of real loopback UDP
// sockets — data plane through a deterministic drop wrapper — and
// checks the soak invariants:
//
//   - every submitted ADU is delivered exactly once (SenderBuffered
//     recovery heals all drops; none may be lost or duplicated),
//   - every delivered tag and payload is byte-identical to what was
//     submitted,
//   - after delivery the receiver has fully drained (no partials, no
//     tracked gaps) and the sender retains nothing, backlogs nothing.
//
// It returns counters for reporting; any violated invariant is an
// error.
func RunSoak(cfg SoakConfig) (SoakResult, error) {
	cfg.fill()
	var res SoakResult

	connA, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer connA.Close()
	connB, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer connB.Close()
	lossy := NewLossyConn(connA, cfg.LossProb, cfg.Seed)

	sched := sim.NewScheduler()
	clk := NewClock(sched, Config{Pool: buf.NewPool()})
	dataLink := clk.NewLink(lossy, connB.LocalAddr())
	ctrlLink := clk.NewLink(connB, connA.LocalAddr())

	acfg := alf.Config{
		Policy:       alf.SenderBuffered,
		Suite:        cfg.Suite,
		FECGroup:     cfg.FECGroup,
		NackDelay:    10 * time.Millisecond,
		NackInterval: 10 * time.Millisecond,
	}
	if cfg.Suite != alf.SuiteNone {
		acfg.Key = 0xDEFACED0 + uint64(cfg.Seed)
	}
	snd, err := alf.NewSender(sched, dataLink.Send, acfg)
	if err != nil {
		return res, err
	}
	snd.SendRef = dataLink.SendRef
	rcv, err := alf.NewReceiver(sched, ctrlLink.Send, acfg)
	if err != nil {
		return res, err
	}
	ctrlLink.SetHandler(func(p []byte) { _ = rcv.HandlePacket(p) })
	dataLink.SetHandler(func(p []byte) { _ = snd.HandleControl(p) })

	// SenderBuffered recovery heals every drop, so every class must
	// arrive: a single loss report is a violation.
	ledger := invariant.New(cfg.ADUBytes, alf.Standard, alf.Critical, alf.Droppable)
	rcv.OnADU = func(a alf.ADU) {
		ledger.Deliver(a)
		a.Release()
	}
	rcv.OnLost = ledger.Lose

	submitted := 0
	sched.Every(cfg.SubmitEvery, func() bool {
		if submitted >= cfg.ADUs {
			return false
		}
		k := uint64(submitted)
		if name, err := snd.Send(invariant.Tag(k), xcode.SyntaxRaw, ledger.Payload(k)); err == nil {
			ledger.Submit(name, k, alf.Standard)
			submitted++
		}
		return submitted < cfg.ADUs
	})

	stream := invariant.Stream{Snd: snd, Rcv: rcv}
	start := time.Now()
	timedOut := false
	clk.Run(func() bool {
		if time.Since(start) > cfg.Timeout {
			timedOut = true
			return true
		}
		return submitted == cfg.ADUs && ledger.Open() == 0 && stream.Idle()
	})
	clk.Stop()
	res.Elapsed = time.Since(start)
	res.WireDrops = lossy.Dropped()
	res.Resent = snd.Stats.ResentADUs
	res.AuthFails = rcv.Stats.AuthFails
	var v invariant.Verdict
	tally := ledger.Check(&v, "")
	res.Delivered = int64(tally.Delivered)
	res.Lost = int64(tally.Lost)
	res.Duplicate = int64(tally.Duplicated)
	res.Corrupt = int64(tally.Damaged)

	if timedOut {
		return res, fmt.Errorf("udplink soak: timeout after %v (delivered %d/%d, pending %d, missing %d, drops %d)",
			cfg.Timeout, res.Delivered, cfg.ADUs, rcv.Pending(), rcv.Missing(), res.WireDrops)
	}
	invariant.Quiescent(&v, nil, stream)
	if res.AuthFails != 0 {
		v.Violatef("%d tag failures on a drop-only path", res.AuthFails)
	}
	if !v.Passed() {
		return res, fmt.Errorf("udplink soak: %s", strings.Join(v.Violations, "; "))
	}
	return res, nil
}
