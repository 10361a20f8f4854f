package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
)

// splitmix is the seeded generator every input is drawn from, so one
// --seed pins the payloads, the flow ids and the dropped datagrams.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// payloads is the seed's ADU contents, built once during set-up: ADU i
// is a size-byte window of a random slab at a per-index random offset.
// Nothing is generated per ADU, so the check costs one compare.
type payloads struct {
	slab []byte
	off  []int
	size int
}

func newPayloads(seed uint64, size, distinct int) *payloads {
	rng := splitmix(seed)
	p := &payloads{slab: make([]byte, 1<<20+size), off: make([]int, distinct), size: size}
	for i := 0; i < len(p.slab); i += 8 {
		v := rng.next()
		for j := 0; j < 8 && i+j < len(p.slab); j++ {
			p.slab[i+j] = byte(v >> (8 * j))
		}
	}
	for i := range p.off {
		p.off[i] = int(rng.next() % (1 << 20))
	}
	return p
}

func (p *payloads) get(i uint64) []byte {
	o := p.off[i%uint64(len(p.off))]
	return p.slab[o : o+p.size]
}

// Per-ADU ledger states. A delivery increments the low bits; damaged
// and refused mark the ADU as failed whatever else happens to it.
const (
	damaged = 0x80 // delivered with bytes that differ from the payload
	refused = 0x40 // Send returned an error
	times   = 0x3f
)

// ledger checks that every submitted ADU is delivered exactly once and
// byte-intact. Entries are indexed by ADU tag; goroutines may deliver
// concurrently as long as each tag is delivered from one goroutine.
type ledger struct {
	want    *payloads
	n       []uint8
	unknown atomic.Int64 // deliveries for tags never submitted
}

func newLedger(want *payloads, capacity int) *ledger {
	return &ledger{want: want, n: make([]uint8, 0, capacity)}
}

// submit registers the next ADU and returns its tag.
func (l *ledger) submit() uint64 {
	l.n = append(l.n, 0)
	return uint64(len(l.n) - 1)
}

// refuse records that Send rejected ADU tag.
func (l *ledger) refuse(tag uint64) { l.n[tag] |= refused }

// deliver records one delivery of tag and reports whether it is the
// first and intact.
func (l *ledger) deliver(tag uint64, data []byte) bool {
	if tag >= uint64(len(l.n)) {
		l.unknown.Add(1)
		return false
	}
	e := l.n[tag]
	if e&times < times {
		e++
	}
	if !bytes.Equal(data, l.want.get(tag)) {
		e |= damaged
	}
	l.n[tag] = e
	return e == 1
}

// check returns how many ADUs failed, and an error naming each kind of
// failure when any did: missing, duplicated, damaged, refused, or
// delivered without having been submitted.
func (l *ledger) check() (failed int, err error) {
	var missing, dup, bad, ref int
	for _, e := range l.n {
		switch {
		case e&refused != 0:
			ref++
		case e&damaged != 0:
			bad++
		case e == 0:
			missing++
		case e > 1:
			dup++
		}
	}
	failed = missing + dup + bad + ref
	if unk := l.unknown.Load(); failed > 0 || unk > 0 {
		err = fmt.Errorf("ledger: %d missing, %d duplicated, %d damaged, %d refused, %d unknown of %d ADUs",
			missing, dup, bad, ref, unk, len(l.n))
	}
	return failed, err
}
