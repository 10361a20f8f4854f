package alf

import (
	"fmt"
	"math"

	"repro/internal/buf"
	"repro/internal/cipher"
	"repro/internal/ilp"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// SenderStats counts sender events.
type SenderStats struct {
	ADUs          int64 // ADUs submitted
	Fragments     int64 // first-transmission fragments
	Bytes         int64 // first-transmission payload bytes
	ResentADUs    int64 // whole-ADU retransmissions (SenderBuffered)
	RecomputeADUs int64 // whole-ADU regenerations (AppRecompute)
	ResentFrags   int64
	UnfilledNacks int64 // NACKs we could not satisfy
	Released      int64 // buffered ADUs freed by cumulative acks
	DeadlineDrops int64 // buffered ADUs shed by ADUDeadline, unconfirmed
	CtrlReceived  int64
	CtrlDropped   int64 // corrupt control messages
	Heartbeats    int64
	ParityFrags   int64 // FEC parity fragments emitted

	// Overload-robustness accounting (see ratecontrol.go).
	ShedADUs       int64 // Droppable ADUs shed before transmission
	FeedbackRecv   int64 // feedback reports accepted (fresh sequence)
	RateChanges    int64 // controller-driven rate updates applied
	RetxSuppressed int64 // resends withheld by the recovery-bandwidth cap
	WireBytes      int64 // data-plane wire bytes emitted (headers included)

	// Custody-transfer accounting (Config.Custody; see internal/relay).
	CustodyAcks     int64 // custody-ack frames accepted
	CustodyReleased int64 // buffered ADUs freed by custody transfer
	CustodyNacks    int64 // NACKs suppressed: the ADU is in downstream custody
}

// wireFrag is one stamped wire packet (header + fragment payload) in a
// pooled buffer, plus the fragment coordinates the tracer and stats
// need at emission time.
type wireFrag struct {
	ref    *buf.Ref // header+payload view; holder owns one count
	off, n int      // fragment offset and payload length within the ADU
	parity bool
}

// savedADU is the retention state under SenderBuffered: the stamped
// wire packets themselves, retained by reference. A resend re-emits
// the same buffers (every header field is identical on resend), so
// retransmission copies nothing.
type savedADU struct {
	tag     uint64
	syntax  xcode.SyntaxID
	frags   []wireFrag
	wireLen int // ADU payload bytes (BufferedBytes accounting)
	check   uint16
	sentAt  sim.Time // submission time, for the ADUDeadline sweep
	class   Priority // Critical resends bypass the recovery cap
}

// release drops the retention references.
func (a *savedADU) release() {
	for _, f := range a.frags {
		f.ref.Release()
	}
	a.frags = nil
}

// Sender is the sending half of an ALF stream.
type Sender struct {
	cfg   Config
	sched *sim.Scheduler
	send  func([]byte) error

	// SendRef, if set, transmits wire packets as pooled refcounted
	// buffers (the callee owns the passed count — netsim.Link.SendRef
	// has exactly this contract), making emission zero-copy end to end.
	// When nil, packets go through the send function and the buffer is
	// recycled as soon as it returns.
	SendRef func(*buf.Ref) error

	// scratch is the packetization worklist, reused across Sends so the
	// steady-state path does not allocate.
	scratch []wireFrag

	// OnResend supplies ADU payloads under the AppRecompute policy: the
	// application regenerates the data (and its tag and syntax) for a
	// named ADU, or reports that it cannot. The returned payload must
	// equal the original or the receiver's checksum will reject it.
	OnResend func(name uint64) (tag uint64, syntax xcode.SyntaxID, data []byte, ok bool)
	// OnRelease, if set, is told when retention of a buffered ADU ends
	// (delivery confirmed or given up by the receiver).
	OnRelease func(name uint64)
	// OnExpire, if set, is told when ADUDeadline sheds a still-
	// unconfirmed ADU: the transport can no longer recover it, and the
	// application decides what that means (recompute later, log, skip).
	// OnRelease follows for the same name.
	OnExpire func(name uint64)

	nextName uint64
	buffered map[uint64]*savedADU
	// bufLow is retention's low-water mark: no name below it is
	// buffered. Releases and expiries walk up from it in name order,
	// so OnRelease, OnExpire and the tracer see names ascending.
	bufLow    uint64
	bufBytes  int
	pacerFree sim.Time

	// Heartbeat: declares the stream extent to the receiver while
	// deliveries are unconfirmed, so tail loss is detectable.
	// emittedNext tracks the extent actually handed to the network (the
	// pacer may still hold later ADUs; declaring those would make the
	// receiver chase data that was never sent).
	hb          *sim.Timer
	lastCum     uint64
	hbMisses    int
	emittedNext uint64
	jitter      uint64 // deterministic LCG state for heartbeat jitter

	// retire sweeps ADUDeadline-expired retention; armed only while
	// ADUs are buffered and a deadline is configured.
	retire *sim.Timer

	// Custody-transfer state (Config.Custody): every name below
	// custodyCum is held by a downstream relay, and custodyDone records
	// out-of-order custody above the frontier. A NACK for a custody-
	// released name is the receiver asking for data the relay now owns;
	// resending it from here would race the relay's own recovery, so it
	// is suppressed (Stats.CustodyNacks).
	custodyCum  uint64
	custodyDone map[uint64]struct{}

	// Closed-loop state (see ratecontrol.go): the last feedback report
	// processed, kept cumulative so per-interval deltas survive lost
	// reports, and the loss EWMA that drives shedding.
	fbSeq    uint32   // highest report sequence accepted
	fbAt     sim.Time // arrival time of that report
	fbWire   int64    // receiver's cumulative wire bytes at that report
	fbGood   int64    // receiver's cumulative delivered payload bytes
	fbSent   int64    // our own WireBytes at that report
	lossEWMA float64  // smoothed reported loss fraction

	// Recovery-bandwidth token bucket (RecoveryFrac): bytes of resend
	// budget, replenished at RecoveryFrac x RateBps.
	retxTokens float64
	retxLast   sim.Time
	retxInit   bool

	m senderMetrics

	Stats SenderStats
}

// NewSender creates the sending end of a stream. send transmits one
// wire packet toward the receiver.
func NewSender(sched *sim.Scheduler, send func([]byte) error, cfg Config) (*Sender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	if cfg.fragPayload() < 8 {
		return nil, fmt.Errorf("%w: MTU %d", ErrMTUTooSmall, cfg.MTU)
	}
	s := &Sender{
		cfg:      cfg,
		sched:    sched,
		send:     send,
		buffered: make(map[uint64]*savedADU),
	}
	s.hb = sched.NewTimer(s.onHeartbeat)
	s.retire = sched.NewTimer(s.onRetire)
	// Seed the jitter stream from the config so runs stay deterministic
	// and streams sharing a node desynchronize.
	s.jitter = uint64(cfg.StreamID)*0x9E3779B97F4A7C15 ^ cfg.Key ^ 0xD1B54A32D192ED03
	s.m = bindSenderMetrics(cfg.Metrics, s)
	return s, nil
}

// onHeartbeat periodically declares the stream extent until the
// receiver confirms it (or the limit gives up on a dead path).
func (s *Sender) onHeartbeat() {
	if s.lastCum >= s.nextName || s.hbMisses >= s.cfg.HeartbeatLimit {
		return
	}
	s.hbMisses++
	if s.emittedNext > 0 {
		s.Stats.Heartbeats++
		s.cfg.Tracer.HeartbeatSent(s.cfg.StreamID, s.emittedNext)
		_ = s.send(wire.EncodeHeartbeat(wire.Heartbeat{Stream: s.cfg.StreamID, Next: s.emittedNext}))
	}
	s.hb.Reset(s.hbInterval())
}

// hbSilentMisses is how many consecutive unanswered heartbeats count
// as "silence": below it the heartbeat keeps its plain configured
// cadence (transient stalls on a healthy path are left alone); from it
// onward the interval doubles every two further misses up to
// HeartbeatMaxInterval, with ±25% jitter.
const hbSilentMisses = 4

// hbBackoff returns the current un-jittered heartbeat backoff level.
// It is a pure read of the miss count — no PRNG step — so the
// telemetry plane can expose it as a gauge without perturbing the
// jitter stream (and with it, the run's determinism).
func (s *Sender) hbBackoff() sim.Duration {
	iv := s.cfg.HeartbeatInterval
	if s.hbMisses < hbSilentMisses {
		return iv
	}
	max := s.cfg.HeartbeatMaxInterval
	for i := (s.hbMisses - hbSilentMisses) / 2; i > 0 && iv < max; i-- {
		// Saturate instead of doubling past the int64 edge: with the
		// hour-scale intervals a DTN path configures, the backoff
		// reaches the representable limit in a few dozen misses, and a
		// wrapped-negative interval would stall the timer forever.
		if iv > max/2 {
			iv = max
			break
		}
		iv *= 2
	}
	if iv > max {
		iv = max
	}
	return iv
}

// hbInterval returns the next heartbeat delay. During a blackout this
// decays the probe rate instead of hammering a dead path at the data-
// plane NACK cadence; the jitter keeps recovering streams from
// re-probing in phase.
func (s *Sender) hbInterval() sim.Duration {
	iv := s.hbBackoff()
	if s.hbMisses < hbSilentMisses {
		return iv
	}
	// xorshift step; low bits of the advanced state give the jitter.
	s.jitter ^= s.jitter << 13
	s.jitter ^= s.jitter >> 7
	s.jitter ^= s.jitter << 17
	span := int64(iv) / 2
	if span <= 0 {
		return iv
	}
	// iv - iv/4 is iv*3/4 without the iv*3 overflow, and the final sum
	// saturates: HeartbeatMaxInterval may legitimately sit near the
	// int64 horizon.
	base := iv - iv/4
	j := sim.Duration(int64(s.jitter>>1) % span)
	if base > sim.Duration(math.MaxInt64)-j {
		return sim.Duration(math.MaxInt64)
	}
	return base + j
}

// onRetire sheds retention past the ADUDeadline and re-arms for the
// next earliest expiry. sentAt rises with the name, so retention
// expires oldest name first: the walk stops at the first ADU not yet
// due.
func (s *Sender) onRetire() {
	if s.cfg.ADUDeadline <= 0 {
		return
	}
	now := s.sched.Now()
	for ; s.bufLow < s.nextName; s.bufLow++ {
		name := s.bufLow
		saved, ok := s.buffered[name]
		if !ok {
			continue
		}
		due := saved.sentAt.Add(s.cfg.ADUDeadline)
		if due < saved.sentAt {
			// sentAt + deadline wrapped past the int64 horizon: at
			// hour-scale deadlines deep into a long run the sum can
			// overflow, and a wrapped due would expire the ADU
			// instantly. Treat it (and every later ADU) as never-due.
			return
		}
		if due > now {
			s.retire.Reset(due.Sub(now))
			return
		}
		s.take(name)
		s.Stats.DeadlineDrops++
		s.cfg.Tracer.ADUExpired(s.cfg.StreamID, name)
		if s.OnExpire != nil {
			s.OnExpire(name)
		}
		if s.OnRelease != nil {
			s.OnRelease(name)
		}
	}
}

// take ends retention of name, reporting whether it was retained.
func (s *Sender) take(name uint64) bool {
	saved, ok := s.buffered[name]
	if ok {
		s.bufBytes -= saved.wireLen
		saved.release()
		delete(s.buffered, name)
	}
	return ok
}

// Config returns the effective configuration.
func (s *Sender) Config() Config { return s.cfg }

// NextName returns the name the next Send will assign.
func (s *Sender) NextName() uint64 { return s.nextName }

// BufferedBytes returns the payload bytes currently retained for
// retransmission.
func (s *Sender) BufferedBytes() int { return s.bufBytes }

// BufferedADUs returns the number of ADUs currently retained.
func (s *Sender) BufferedADUs() int { return len(s.buffered) }

// SetRate changes the pacing rate (out-of-band rate control, §3). Zero
// disables pacing. With a Controller configured this is the knob the
// control loop itself turns; calling it by hand still works but the
// next feedback report may override it.
func (s *Sender) SetRate(bps float64) { s.cfg.RateBps = bps }

// Rate returns the current pacing rate in bits/s (zero: unpaced).
func (s *Sender) Rate() float64 { return s.cfg.RateBps }

// backlog reports how far into the future the pacer is booked: the
// delay a fragment submitted now would wait before reaching the wire.
func (s *Sender) backlog(now sim.Time) sim.Duration {
	if s.pacerFree > now {
		return s.pacerFree.Sub(now)
	}
	return 0
}

// Backlog returns the current pacer backlog.
func (s *Sender) Backlog() sim.Duration { return s.backlog(s.sched.Now()) }

// shouldShed reports whether the sender is overloaded enough to shed
// Droppable ADUs: the pacer is booked past ShedBacklog, or the
// receiver-reported loss EWMA exceeds ShedLossFrac.
func (s *Sender) shouldShed() bool {
	if s.cfg.ShedBacklog > 0 && s.backlog(s.sched.Now()) > s.cfg.ShedBacklog {
		return true
	}
	if s.cfg.ShedLossFrac > 0 && s.lossEWMA > s.cfg.ShedLossFrac {
		return true
	}
	return false
}

// Send frames data as the next ADU and transmits its fragments. tag is
// the application's naming information for the ADU (file offset, frame
// and slice, call id); syntax identifies how data is encoded. It
// returns the assigned ADU name.
//
// The data is copied (and under a non-zero Key, enciphered) before
// return; the caller may reuse the buffer. The copy is the gather
// pass: each fragment's wire payload is produced directly in a pooled
// buffer with header headroom, checksummed in the same fused pass, so
// packetization touches the data exactly once and allocates nothing in
// steady state.
func (s *Sender) Send(tag uint64, syntax xcode.SyntaxID, data []byte) (uint64, error) {
	return s.SendClass(tag, syntax, data, Standard)
}

// SendClass is Send with an explicit priority class (ratecontrol.go):
// the application's statement of what must survive overload. Critical
// and Standard ADUs always transmit; a Droppable ADU submitted while
// the sender is overloaded (pacer backlog past ShedBacklog, or the
// reported-loss EWMA past ShedLossFrac) is shed before packetization —
// SendClass returns ErrShed, the ADU consumes no name, and nothing
// reaches the network. Shedding here, at the sender, is the ALF
// position on overload: the application picks what is lost, instead of
// a bottleneck queue tail-dropping fragments blindly.
func (s *Sender) SendClass(tag uint64, syntax xcode.SyntaxID, data []byte, class Priority) (uint64, error) {
	if class == Droppable && s.shouldShed() {
		s.Stats.ShedADUs++
		s.cfg.Tracer.ADUShed(s.cfg.StreamID, s.nextName, tag, len(data))
		return 0, ErrShed
	}
	if len(data) > s.cfg.MaxADU {
		return 0, fmt.Errorf("%w: %d bytes", ErrADUTooLarge, len(data))
	}
	if s.cfg.Policy == SenderBuffered && s.bufBytes+len(data) > s.cfg.BufferLimit {
		return 0, fmt.Errorf("%w: %d retained", ErrBufferLimit, s.bufBytes)
	}
	name := s.nextName

	frags, ck := s.packetize(name, data, s.scratch[:0])
	s.stamp(name, tag, syntax, len(data), ck, class, frags)

	retain := s.cfg.Policy == SenderBuffered
	if retain {
		saved := &savedADU{tag: tag, syntax: syntax, wireLen: len(data), check: ck, sentAt: s.sched.Now(), class: class}
		saved.frags = append(saved.frags, frags...)
		s.buffered[name] = saved
		s.bufBytes += len(data)
		if s.cfg.ADUDeadline > 0 && !s.retire.Active() {
			s.retire.Reset(s.cfg.ADUDeadline)
		}
	}

	s.nextName++
	s.Stats.ADUs++
	s.m.aduBytes.Observe(int64(len(data)))
	s.m.ilpBytes.Add(int64(len(data)))
	s.cfg.Tracer.ADUSubmitted(s.cfg.StreamID, name, tag, len(data))
	s.emitFrags(name, frags, false, retain)
	s.scratch = frags[:0]
	if !s.hb.Active() {
		s.hb.Reset(s.cfg.HeartbeatInterval)
	}
	return name, nil
}

// packetize runs the single fused pass over data: each fragment's wire
// payload (enciphered under (Key, name) when keyed) is written straight
// into a pooled buffer with HeaderSize headroom while the plaintext
// checksum accumulates, and FEC parity accumulates word-wise into its
// own pooled buffer. Fragment offsets are 8-aligned, so the per-
// fragment partial sums add into the whole-ADU checksum. It appends to
// frags (data fragments interleaved with each group's parity, in
// emission order) and returns the list and the ADU checksum.
func (s *Sender) packetize(name uint64, data []byte, frags []wireFrag) ([]wireFrag, uint16) {
	if s.cfg.Suite == SuiteAEAD {
		return s.packetizeAEAD(name, data, frags), 0
	}
	frag := s.cfg.fragPayload()
	keyed := s.cfg.Suite == SuiteScramble
	var (
		sum       uint64
		parity    *buf.Ref // XOR accumulator for the current group
		parityOff int      // group start offset
		inGroup   int      // data fragments accumulated
	)
	headroom := HeaderSize + len(s.cfg.Encap)
	off := 0
	for {
		n := len(data) - off
		if n > frag {
			n = frag
		}
		ref := s.cfg.Pool.GetHeadroom(n, headroom)
		w := ref.Bytes()
		if keyed {
			sum += ilp.FusedEncryptCopySum(w, data[off:off+n], s.cfg.Key^name, off)
		} else {
			sum += ilp.FusedCopySum(w, data[off:off+n])
		}
		frags = append(frags, wireFrag{ref: ref, off: off, n: n})
		if s.cfg.FECGroup > 0 {
			if inGroup == 0 {
				parityOff = off
				parity = s.cfg.Pool.GetHeadroom(n, headroom) // first (longest) fragment of the group
				ilp.WordCopy(parity.Bytes(), w)
			} else {
				ilp.XORWords(parity.Bytes(), w)
			}
			inGroup++
			if inGroup == s.cfg.FECGroup {
				frags = append(frags, wireFrag{ref: parity, off: parityOff, n: parity.Len(), parity: true})
				parity, inGroup = nil, 0
			}
		}
		off += n
		if off >= len(data) {
			break
		}
	}
	if inGroup > 0 && parity != nil {
		frags = append(frags, wireFrag{ref: parity, off: parityOff, n: parity.Len(), parity: true})
	}
	return frags, ilp.FinishSum(sum)
}

// packetizeAEAD is the SuiteAEAD gather pass: each fragment's
// ciphertext is produced straight into its pooled wire buffer while the
// Poly1305 accumulator runs in the same fused loop (one load and one
// store per word, §6), and the 16-byte tag lands right after the
// ciphertext. FEC parity accumulates the XOR of the group's
// ciphertexts — not the tags — and carries its own tag over the blob,
// so a reconstructed fragment is authenticated transitively. There is
// no ADU checksum: the tags are the integrity pass.
func (s *Sender) packetizeAEAD(name uint64, data []byte, frags []wireFrag) []wireFrag {
	frag := s.cfg.fragPayload()
	nonce := aeadNonce(s.cfg.StreamID, name)
	var (
		parity    *buf.Ref // XOR-of-ciphertexts accumulator for the current group
		parityOff int      // group start offset
		parityLen int      // blob length (first, longest fragment of the group)
		inGroup   int
	)
	headroom := HeaderSize + len(s.cfg.Encap)
	off := 0
	for {
		n := len(data) - off
		if n > frag {
			n = frag
		}
		ref := s.cfg.Pool.GetHeadroom(n+wire.TagSize, headroom)
		w := ref.Bytes()
		mac := newTagMAC(&s.cfg.aeadKey, &nonce, tagCtrData+uint32(off/8))
		ilp.FusedEncryptCopyMAC(w[:n], data[off:off+n], &s.cfg.aeadKey, &nonce, off, &mac)
		mac.Sum(w[n : n+wire.TagSize])
		frags = append(frags, wireFrag{ref: ref, off: off, n: n})
		if s.cfg.FECGroup > 0 {
			if inGroup == 0 {
				parityOff, parityLen = off, n
				parity = s.cfg.Pool.GetHeadroom(n+wire.TagSize, headroom)
				ilp.WordCopy(parity.Bytes()[:n], w[:n])
			} else {
				ilp.XORWords(parity.Bytes()[:parityLen], w[:n])
			}
			inGroup++
			if inGroup == s.cfg.FECGroup {
				frags = append(frags, s.sealParity(&nonce, parity, parityOff, parityLen))
				parity, inGroup = nil, 0
			}
		}
		off += n
		if off >= len(data) {
			break
		}
	}
	if inGroup > 0 && parity != nil {
		frags = append(frags, s.sealParity(&nonce, parity, parityOff, parityLen))
	}
	return frags
}

// sealParity tags a completed FEC parity blob (the tag covers the blob
// bytes themselves) and returns its wire fragment.
func (s *Sender) sealParity(nonce *[cipher.NonceSize]byte, parity *buf.Ref, off, n int) wireFrag {
	mac := newTagMAC(&s.cfg.aeadKey, nonce, tagCtrParity+uint32(off/8))
	pb := parity.Bytes()
	mac.Update(pb[:n])
	mac.Sum(pb[n : n+wire.TagSize])
	return wireFrag{ref: parity, off: off, n: n, parity: true}
}

// stamp prepends and fills each fragment's header in place: the
// payload, already in its final position, never moves. Critical ADUs
// carry wire.FlagCritical so intermediate custody relays can apply the
// application's survival priority without decoding payloads.
func (s *Sender) stamp(name, tag uint64, syntax xcode.SyntaxID, totalLen int, ck uint16, class Priority, frags []wireFrag) {
	var flags byte
	switch s.cfg.Suite {
	case SuiteScramble:
		flags |= wire.FlagEnciphered
	case SuiteAEAD:
		flags |= wire.FlagAEAD
	}
	if class == Critical {
		flags |= wire.FlagCritical
	}
	h := wire.Header{
		Stream:   s.cfg.StreamID,
		Name:     name,
		Tag:      tag,
		Syntax:   byte(syntax),
		TotalLen: totalLen,
		ADUCheck: ck,
	}
	for _, f := range frags {
		h.Flags = flags
		if f.parity {
			h.Flags |= wire.FlagParity
		}
		h.FragOff = f.off
		h.FragLen = f.n
		wire.PutHeader(f.ref.Prepend(HeaderSize), &h)
		if len(s.cfg.Encap) > 0 {
			// The outer demux prefix, stamped once into the reserved
			// headroom; resends of retained fragments reuse it as-is.
			copy(f.ref.Prepend(len(s.cfg.Encap)), s.cfg.Encap)
		}
	}
}

// emitFrags (re)sends an ADU's stamped wire packets in order. With
// retain the caller keeps its counts (retention, ready for resend) and
// the network gets its own; otherwise ownership transfers outright.
func (s *Sender) emitFrags(name uint64, frags []wireFrag, isResend, retain bool) {
	lastData := -1
	if !isResend {
		for i := len(frags) - 1; i >= 0; i-- {
			if !frags[i].parity {
				lastData = i
				break
			}
		}
	}
	for i, f := range frags {
		markNext := uint64(0)
		if i == lastData {
			markNext = name + 1 // final fragment: the ADU is fully emitted
		}
		ref := f.ref
		if retain {
			ref = ref.Retain()
		}
		s.emit(ref, isResend, markNext, fragRef{name: name, off: f.off, n: f.n, parity: f.parity})
		switch {
		case f.parity:
			s.Stats.ParityFrags++
		case isResend:
			s.Stats.ResentFrags++
		default:
			s.Stats.Fragments++
			s.Stats.Bytes += int64(f.n)
		}
	}
}

// fragRef identifies the fragment inside an emitted packet for the
// tracer (the trace event fires when the packet actually reaches the
// wire, so a paced fragment records its pacer wait).
type fragRef struct {
	name   uint64
	off, n int
	parity bool
}

// sendOut hands one wire packet to the network, preferring the
// zero-copy refcounted path. Ownership of the count transfers either
// way: the fallback recycles the buffer as soon as the send function
// returns (which must not retain the slice).
func (s *Sender) sendOut(pkt *buf.Ref) {
	s.Stats.WireBytes += int64(pkt.Len())
	if s.SendRef != nil {
		_ = s.SendRef(pkt)
		return
	}
	_ = s.send(pkt.Bytes())
	pkt.Release()
}

// mark advances the emitted-extent watermark the heartbeat declares.
func (s *Sender) mark(markNext uint64) {
	if markNext > s.emittedNext {
		s.emittedNext = markNext
	}
}

// emit sends one packet now or at the paced time, consuming the
// caller's reference. Recovery traffic (priority) bypasses the pacer:
// a retransmission that queues behind the rest of a long paced stream
// re-creates exactly the head-of-line latency ALF exists to remove,
// and its volume is bounded by the receiver's NACK backoff.
func (s *Sender) emit(pkt *buf.Ref, priority bool, markNext uint64, ref fragRef) {
	if s.cfg.RateBps <= 0 || priority {
		s.cfg.Tracer.FragmentSent(s.cfg.StreamID, ref.name, ref.off, ref.n, priority, ref.parity, 0)
		s.sendOut(pkt)
		s.mark(markNext)
		return
	}
	tx := sim.Duration(float64(pkt.Len()*8) / s.cfg.RateBps * 1e9)
	at := s.sched.Now()
	if s.pacerFree > at {
		at = s.pacerFree
	}
	s.pacerFree = at.Add(tx)
	if at == s.sched.Now() {
		s.cfg.Tracer.FragmentSent(s.cfg.StreamID, ref.name, ref.off, ref.n, false, ref.parity, 0)
		s.sendOut(pkt)
		s.mark(markNext)
		return
	}
	wait := at.Sub(s.sched.Now())
	s.sched.At(at, func() {
		s.cfg.Tracer.FragmentSent(s.cfg.StreamID, ref.name, ref.off, ref.n, false, ref.parity, wait)
		s.sendOut(pkt)
		s.mark(markNext)
	})
}

// HandleControl processes a message from the receiver on the control
// channel: cumulative releases and per-ADU recovery requests (CTRL),
// or a delivery report (FB) for the rate-control loop.
func (s *Sender) HandleControl(pkt []byte) error {
	switch wire.Type(pkt) {
	case wire.TypeFB:
		return s.handleFeedback(pkt)
	case wire.TypeCA:
		return s.handleCustody(pkt)
	}
	c, err := wire.ParseControl(pkt)
	if err != nil {
		s.Stats.CtrlDropped++
		return err
	}
	if c.Stream != s.cfg.StreamID {
		return ErrWrongStream
	}
	s.Stats.CtrlReceived++
	if c.Cum > s.lastCum {
		s.lastCum = c.Cum
		s.hbMisses = 0
	}
	if s.lastCum >= s.nextName {
		s.hb.Stop()
	}

	// Release everything settled at the receiver, oldest first.
	for end := min(c.Cum, s.nextName); s.bufLow < end; s.bufLow++ {
		if name := s.bufLow; s.take(name) {
			s.Stats.Released++
			if s.OnRelease != nil {
				s.OnRelease(name)
			}
		}
	}

	for _, name := range c.Nacks {
		s.resend(name)
	}
	return nil
}

// handleFeedback folds one receiver delivery report into the closed
// loop: dedupe by sequence, delta the cumulative counters into a
// RateSample, update the loss EWMA that drives shedding, and let the
// controller (if any) set the next pacing rate.
func (s *Sender) handleFeedback(pkt []byte) error {
	fb, err := wire.ParseFeedback(pkt)
	if err != nil {
		s.Stats.CtrlDropped++
		return err
	}
	if fb.Stream != s.cfg.StreamID {
		return ErrWrongStream
	}
	if fb.Seq <= s.fbSeq {
		// Reordered or duplicated report: a newer cumulative view was
		// already processed, so this one carries nothing.
		return nil
	}
	now := s.sched.Now()
	sent := s.Stats.WireBytes
	sample := RateSample{
		Interval:       now.Sub(s.fbAt),
		SentBytes:      sent - s.fbSent,
		RecvBytes:      int64(fb.Wire) - s.fbWire,
		DeliveredBytes: int64(fb.Good) - s.fbGood,
		Backlog:        s.backlog(now),
	}
	if sample.SentBytes > 0 {
		lf := 1 - float64(sample.RecvBytes)/float64(sample.SentBytes)
		if lf < 0 {
			lf = 0
		} else if lf > 1 {
			lf = 1
		}
		sample.LossFrac = lf
	}
	s.fbSeq, s.fbAt, s.fbWire, s.fbGood, s.fbSent = fb.Seq, now, int64(fb.Wire), int64(fb.Good), sent
	s.lossEWMA = 0.7*s.lossEWMA + 0.3*sample.LossFrac
	s.Stats.FeedbackRecv++
	if s.cfg.Controller != nil {
		next := s.cfg.Controller.OnFeedback(s.cfg.RateBps, sample)
		if next > 0 && next != s.cfg.RateBps {
			s.Stats.RateChanges++
			s.cfg.Tracer.RateChanged(s.cfg.StreamID, s.cfg.RateBps, next)
			s.cfg.RateBps = next
		}
	}
	return nil
}

// handleCustody processes a custody-ack frame from a downstream relay
// (Config.Custody): the relay holds complete copies of the named ADUs
// and has taken over recovery responsibility for them, so retention
// here ends. The heartbeat frontier is untouched — custody is not
// delivery, and the receiver's own cumulative acks still govern when
// the stream extent stops being declared.
func (s *Sender) handleCustody(pkt []byte) error {
	ca, err := wire.ParseCustody(pkt)
	if err != nil {
		s.Stats.CtrlDropped++
		return err
	}
	if ca.Stream != s.cfg.StreamID {
		return ErrWrongStream
	}
	if !s.cfg.Custody {
		// The application did not opt in; a custody ack must not
		// release anything.
		return nil
	}
	s.Stats.CustodyAcks++
	if ca.Cum > s.custodyCum {
		s.custodyCum = ca.Cum
		// The frontier subsumes every individually-tracked name
		// below it.
		for name := range s.custodyDone {
			if name < s.custodyCum {
				delete(s.custodyDone, name)
			}
		}
	}
	release := func(name uint64) {
		if !s.take(name) {
			return
		}
		s.Stats.CustodyReleased++
		s.cfg.Tracer.CustodyReleased(s.cfg.StreamID, ca.Relay, name)
		if s.OnRelease != nil {
			s.OnRelease(name)
		}
	}
	for end := min(s.custodyCum, s.nextName); s.bufLow < end; s.bufLow++ {
		release(s.bufLow)
	}
	for _, name := range ca.Names {
		if name < s.custodyCum {
			continue
		}
		release(name)
		if s.custodyDone == nil {
			s.custodyDone = make(map[uint64]struct{})
		}
		s.custodyDone[name] = struct{}{}
	}
	return nil
}

// inCustody reports whether a name's recovery responsibility has moved
// to a downstream custodian.
func (s *Sender) inCustody(name uint64) bool {
	if !s.cfg.Custody {
		return false
	}
	if name < s.custodyCum {
		return true
	}
	_, ok := s.custodyDone[name]
	return ok
}

// allowRecovery charges n wire bytes of retransmission against the
// recovery-bandwidth token bucket (RecoveryFrac x RateBps, one second
// of burst). During a loss episode this is what keeps recovery traffic
// from compounding the congestion that caused the loss. Critical ADUs
// always pass — they still debit the bucket, so their resends consume
// the budget Standard resends would have used — and a false return
// means the resend is withheld; the receiver's NACK backoff retries.
func (s *Sender) allowRecovery(n int, class Priority) bool {
	if s.cfg.RecoveryFrac <= 0 || s.cfg.RateBps <= 0 {
		return true
	}
	now := s.sched.Now()
	rate := s.cfg.RecoveryFrac * s.cfg.RateBps / 8 // bytes/s of budget
	burst := rate                                  // one second of headroom
	if !s.retxInit {
		s.retxTokens, s.retxInit = burst, true
	} else {
		s.retxTokens += now.Sub(s.retxLast).Seconds() * rate
		if s.retxTokens > burst {
			s.retxTokens = burst
		}
	}
	s.retxLast = now
	if class != Critical && s.retxTokens < float64(n) {
		s.Stats.RetxSuppressed++
		return false
	}
	s.retxTokens -= float64(n)
	return true
}

// resend recovers one ADU according to the stream policy.
func (s *Sender) resend(name uint64) {
	if s.inCustody(name) {
		// A downstream relay holds the ADU and answers NACKs itself;
		// resending from here would duplicate its recovery traffic
		// across the slowest hops of the path.
		s.Stats.CustodyNacks++
		return
	}
	switch s.cfg.Policy {
	case SenderBuffered:
		saved, ok := s.buffered[name]
		if !ok {
			s.Stats.UnfilledNacks++
			return
		}
		wireLen := saved.wireLen + len(saved.frags)*HeaderSize
		if s.cfg.Suite == SuiteAEAD {
			wireLen += len(saved.frags) * wire.TagSize
		}
		if !s.allowRecovery(wireLen, saved.class) {
			return
		}
		s.Stats.ResentADUs++
		// Zero-copy retransmit: the retained wire packets go out again
		// as-is (headers are identical on resend).
		s.emitFrags(name, saved.frags, true, true)
	case AppRecompute:
		if s.OnResend == nil {
			s.Stats.UnfilledNacks++
			return
		}
		tag, syntax, data, ok := s.OnResend(name)
		if !ok {
			s.Stats.UnfilledNacks++
			return
		}
		if !s.allowRecovery(len(data)+HeaderSize, Standard) {
			return
		}
		s.Stats.RecomputeADUs++
		s.m.ilpBytes.Add(int64(len(data)))
		frags, ck := s.packetize(name, data, s.scratch[:0])
		s.stamp(name, tag, syntax, len(data), ck, Standard, frags)
		s.emitFrags(name, frags, true, false)
		s.scratch = frags[:0]
	case NoRetransmit:
		// Receivers on NoRetransmit streams do not NACK; ignore any
		// that arrive.
	}
}
