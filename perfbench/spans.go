package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// kind names the layer boundary a span was recorded at. Every span
// comes from one of the benchmark's own wrappers around a call into the
// stack; nothing inside the program is instrumented.
type kind uint8

const (
	kTick    kind = iota // open-loop generator tick (benchmark)
	kSend                // alf.Sender.Send
	kSendRef             // Sender.SendRef callback: the hand-off to the network layer
	kHandle              // destination handler -> alf.Receiver.HandlePacket
	kOnADU               // Receiver.OnADU: the benchmark's delivery check
	kDrain               // sim.Scheduler.RunUntil drain of the netsim route
	numKinds
)

var kindNames = [numKinds]string{"tick", "send", "sendref", "handle", "onadu", "drain"}

// span is one timed call. adu is the ADU's tag plus one (0 when the
// span cannot be attributed, such as a fragment whose ADU is still
// incomplete), parent indexes the enclosing span or is -1.
type span struct {
	adu        uint64
	start, end int64
	parent     int32
	kind       kind
}

// epoch anchors span timestamps; time.Since reads the monotonic clock.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// recorder keeps spans in memory for one goroutine. A nil recorder
// records nothing, so untraced runs pay one branch per wrapper.
type recorder struct {
	spans []span
	open  []int32 // stack of spans begun and not yet ended
}

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity), open: make([]int32, 0, 16)}
}

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (r *recorder) begin(k kind, adu uint64) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{adu: adu, start: nowNS(), parent: parent, kind: k})
	r.open = append(r.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = nowNS()
	r.open = r.open[:len(r.open)-1]
}

// claim attributes the innermost open span to adu when it has no ADU
// yet: the handler call that completes an ADU learns which ADU it was
// only when OnADU runs inside it.
func (r *recorder) claim(adu uint64) {
	if r == nil || len(r.open) == 0 {
		return
	}
	if s := &r.spans[r.open[len(r.open)-1]]; s.adu == 0 {
		s.adu = adu
	}
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// selfTimes sums, per kind, each span's duration minus the part its
// direct children cover. Children nest inside their parent, so
// subtracting their durations removes exactly the covered interval.
func selfTimes(spans []span) [numKinds]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out [numKinds]int64
	for i, s := range spans {
		out[s.kind] += s.end - s.start - child[i]
	}
	return out
}

// writeSpans writes every recorded span as gzipped CSV, one recorder
// after another, with the host fingerprint as a comment line.
func writeSpans(path, host string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintf(w, "# %s\nrecorder,index,adu,kind,parent,start_ns,end_ns\n", host)
	for ri, r := range recs {
		if r == nil {
			continue
		}
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", ri, i, int64(s.adu)-1, kindNames[s.kind], s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
