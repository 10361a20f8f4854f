// Package session is the out-of-band control plane the paper
// deliberately separates from data transfer (§3: "session initiation,
// service location, and so on ... do not occur at the same time as data
// transfer"): a small reliable handshake that establishes an ALF stream
// — negotiating the transfer syntax (§5's abstract-syntax agreement),
// the stream identity, fragmentation and pacing parameters, the
// recovery policy, FEC, and a shared scramble key.
//
// The initiator retransmits its OFFER on a timer until an ACCEPT or
// REJECT arrives; the responder answers duplicate OFFERs idempotently.
// Syntax negotiation picks the first entry of the initiator's
// preference list that the responder supports.
//
// The "key exchange" XORs one random contribution from each side — like
// everything in internal/scramble it is a simulation stand-in, not
// cryptography.
package session

import (
	"errors"
	"fmt"
	"time"

	alf "repro/internal/core"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// Reject reason codes.
const (
	ReasonNoCommonSyntax = 1
	ReasonRefused        = 2
	ReasonBadParams      = 3
)

// Errors.
var (
	ErrTimeout    = errors.New("session: handshake timed out")
	ErrRejected   = errors.New("session: offer rejected")
	ErrBadMessage = errors.New("session: malformed message")
	ErrState      = errors.New("session: unexpected message for state")
)

// Params is what the initiator proposes.
type Params struct {
	// StreamID for the data stream to establish.
	StreamID byte
	// Syntaxes in preference order; the responder picks the first it
	// supports.
	Syntaxes []xcode.SyntaxID
	// MTU, Policy, FECGroup, RateBps seed the alf.Config both ends will
	// use (zero values take alf defaults).
	MTU      int
	Policy   alf.Policy
	FECGroup int
	RateBps  float64
	// Encrypt requests a scramble key derived from both sides'
	// contributions.
	Encrypt bool
}

// Result is the established stream description, identical at both ends.
type Result struct {
	Params Params
	// Syntax is the negotiated transfer syntax.
	Syntax xcode.SyntaxID
	// Key is the combined scramble key (zero when Encrypt is false).
	Key uint64
}

// Config converts the negotiated result into an alf.Config.
func (r Result) Config() alf.Config {
	return alf.Config{
		StreamID: r.Params.StreamID,
		MTU:      r.Params.MTU,
		Policy:   r.Params.Policy,
		FECGroup: r.Params.FECGroup,
		RateBps:  r.Params.RateBps,
		Key:      r.Key,
	}
}

// offer encodes the initiator's proposal.
func offer(p Params, keyHalf uint64) []byte {
	o := wire.Offer{
		Stream:  p.StreamID,
		Encrypt: p.Encrypt,
		Policy:  byte(p.Policy),
		MTU:     uint16(p.MTU),
		FEC:     uint16(p.FECGroup),
		Rate:    uint64(p.RateBps),
		KeyHalf: keyHalf,
	}
	for _, s := range p.Syntaxes {
		o.Syntaxes = append(o.Syntaxes, byte(s))
	}
	return wire.EncodeOffer(o)
}

// MessageType reports whether pkt is a session-plane message
// (wire.TypeOffer through wire.TypeReject) or not (0), for node
// demultiplexers.
func MessageType(pkt []byte) int {
	if t := wire.Type(pkt); t >= wire.TypeOffer {
		return int(t)
	}
	return 0
}

// combineKey mixes the two contributions into the stream key.
func combineKey(a, b uint64) uint64 {
	x := a ^ b ^ 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Initiator drives the opening side of the handshake.
type Initiator struct {
	sched *sim.Scheduler
	rnd   *sim.Rand
	send  func([]byte) error

	// RetryInterval and MaxRetries bound OFFER retransmission
	// (defaults 100 ms, 10).
	RetryInterval sim.Duration
	MaxRetries    int

	// OnEstablished fires once with the negotiated result.
	OnEstablished func(Result)
	// OnFail fires once if the handshake cannot complete.
	OnFail func(error)

	params  Params
	keyHalf uint64
	offer   []byte
	timer   *sim.Timer
	tries   int
	done    bool
	failed  bool
	active  bool
}

// NewInitiator creates an initiator sending handshake messages through
// send. rnd supplies the key contribution.
func NewInitiator(sched *sim.Scheduler, rnd *sim.Rand, send func([]byte) error) *Initiator {
	i := &Initiator{
		sched:         sched,
		rnd:           rnd,
		send:          send,
		RetryInterval: 100 * time.Millisecond,
		MaxRetries:    10,
	}
	i.timer = sched.NewTimer(i.retry)
	return i
}

// Open starts the handshake with the given proposal.
func (i *Initiator) Open(p Params) error {
	if i.active || i.done {
		return fmt.Errorf("%w: handshake already started", ErrState)
	}
	if len(p.Syntaxes) == 0 {
		return fmt.Errorf("%w: no syntaxes offered", ErrBadMessage)
	}
	i.params = p
	i.keyHalf = i.rnd.Uint64()
	i.offer = offer(p, i.keyHalf)
	i.active = true
	i.tries = 0
	i.retry()
	return nil
}

func (i *Initiator) retry() {
	if i.done || !i.active {
		return
	}
	if i.tries >= i.MaxRetries {
		i.fail(fmt.Errorf("%w after %d offers", ErrTimeout, i.tries))
		return
	}
	i.tries++
	_ = i.send(i.offer)
	i.timer.Reset(i.RetryInterval)
}

func (i *Initiator) fail(err error) {
	i.done = true
	i.failed = true
	i.timer.Stop()
	if i.OnFail != nil {
		i.OnFail(err)
	}
}

// Handle processes one arriving session-plane packet.
func (i *Initiator) Handle(pkt []byte) error {
	if i.done || !i.active {
		return nil // late duplicates are harmless
	}
	switch MessageType(pkt) {
	case wire.TypeAccept:
		acc, err := wire.ParseAccept(pkt)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadMessage, err)
		}
		if acc.Stream != i.params.StreamID {
			return nil
		}
		syntax := xcode.SyntaxID(acc.Syntax)
		supported := false
		for _, s := range i.params.Syntaxes {
			if s == syntax {
				supported = true
				break
			}
		}
		if !supported {
			i.fail(fmt.Errorf("%w: responder chose unoffered syntax %d", ErrBadMessage, syntax))
			return nil
		}
		i.done = true
		i.timer.Stop()
		res := Result{Params: i.params, Syntax: syntax}
		if i.params.Encrypt {
			res.Key = combineKey(i.keyHalf, acc.KeyHalf)
		}
		if i.OnEstablished != nil {
			i.OnEstablished(res)
		}
		return nil
	case wire.TypeReject:
		rej, err := wire.ParseReject(pkt)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadMessage, err)
		}
		if rej.Stream != i.params.StreamID {
			return nil
		}
		i.fail(fmt.Errorf("%w: reason %d", ErrRejected, rej.Reason))
		return nil
	default:
		return fmt.Errorf("%w: type %d", ErrState, MessageType(pkt))
	}
}

// Established reports whether the handshake completed successfully.
func (i *Initiator) Established() bool { return i.done && !i.failed }

// Failed reports whether the handshake ended in failure.
func (i *Initiator) Failed() bool { return i.failed }

// Responder answers offers arriving at the accepting side.
type Responder struct {
	sched *sim.Scheduler
	rnd   *sim.Rand
	send  func([]byte) error

	// Supported lists the transfer syntaxes this side can decode.
	Supported []xcode.SyntaxID
	// Screen, if set, may veto an offer (return a Reason* code, or 0 to
	// accept).
	Screen func(Params) byte
	// OnEstablished fires once per established stream.
	OnEstablished func(Result)

	// established remembers per-stream results so duplicate OFFERs get
	// identical ACCEPTs (idempotence under retransmission).
	established map[byte]*respState
}

type respState struct {
	accept []byte
	result Result
}

// NewResponder creates a responder.
func NewResponder(sched *sim.Scheduler, rnd *sim.Rand, send func([]byte) error, supported []xcode.SyntaxID) *Responder {
	return &Responder{
		sched:       sched,
		rnd:         rnd,
		send:        send,
		Supported:   supported,
		established: make(map[byte]*respState),
	}
}

// Handle processes one arriving session-plane packet.
func (r *Responder) Handle(pkt []byte) error {
	if MessageType(pkt) != wire.TypeOffer {
		return fmt.Errorf("%w: type %d", ErrState, MessageType(pkt))
	}
	o, err := wire.ParseOffer(pkt)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	p := Params{StreamID: o.Stream, Encrypt: o.Encrypt, Policy: alf.Policy(o.Policy),
		MTU: int(o.MTU), FECGroup: int(o.FEC), RateBps: float64(o.Rate)}
	for _, s := range o.Syntaxes {
		p.Syntaxes = append(p.Syntaxes, xcode.SyntaxID(s))
	}
	if st, dup := r.established[p.StreamID]; dup {
		// Retransmitted OFFER: repeat the identical ACCEPT.
		_ = r.send(st.accept)
		return nil
	}
	if r.Screen != nil {
		if reason := r.Screen(p); reason != 0 {
			_ = r.send(wire.EncodeReject(wire.Reject{Stream: p.StreamID, Reason: reason}))
			return nil
		}
	}
	chosen := xcode.SyntaxID(0)
	for _, want := range p.Syntaxes {
		for _, have := range r.Supported {
			if want == have {
				chosen = want
				break
			}
		}
		if chosen != 0 {
			break
		}
	}
	if chosen == 0 {
		_ = r.send(wire.EncodeReject(wire.Reject{Stream: p.StreamID, Reason: ReasonNoCommonSyntax}))
		return nil
	}
	myHalf := r.rnd.Uint64()
	res := Result{Params: p, Syntax: chosen}
	if p.Encrypt {
		res.Key = combineKey(o.KeyHalf, myHalf)
	}
	st := &respState{accept: wire.EncodeAccept(wire.Accept{Stream: p.StreamID, Syntax: byte(chosen), KeyHalf: myHalf}), result: res}
	r.established[p.StreamID] = st
	_ = r.send(st.accept)
	if r.OnEstablished != nil {
		r.OnEstablished(res)
	}
	return nil
}

// Result returns the established result for a stream, if any.
func (r *Responder) Result(stream byte) (Result, bool) {
	st, ok := r.established[stream]
	if !ok {
		return Result{}, false
	}
	return st.result, true
}
