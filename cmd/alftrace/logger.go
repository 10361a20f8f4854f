package main

import (
	"fmt"
	"io"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Logger annotates send functions and node handlers with timestamped
// ALF packet lines (wire.Describe) on an io.Writer.
type Logger struct {
	W     io.Writer
	Sched *sim.Scheduler
	// Lines counts emitted entries; Limit (if >0) silences output after
	// that many lines so a trace cannot drown a long run.
	Lines int64
	Limit int64
}

func (l *Logger) log(dir, label string, pkt []byte) {
	l.Lines++
	if l.Limit > 0 && l.Lines > l.Limit {
		if l.Lines == l.Limit+1 {
			fmt.Fprintf(l.W, "… trace truncated at %d lines\n", l.Limit)
		}
		return
	}
	fmt.Fprintf(l.W, "%12v %s %-10s %s\n", l.Sched.Now(), dir, label, wire.Describe(wire.ALF, pkt))
}

// WrapSend returns a send function that logs each packet ("->") before
// forwarding to next.
func (l *Logger) WrapSend(label string, next func([]byte) error) func([]byte) error {
	return func(pkt []byte) error {
		l.log("->", label, pkt)
		return next(pkt)
	}
}

// WrapHandler returns a node handler that logs each arrival ("<-", or
// "<!" for a packet the link corrupted) before forwarding to next.
func (l *Logger) WrapHandler(label string, next netsim.Handler) netsim.Handler {
	return func(pk *netsim.Packet) {
		dir := "<-"
		if pk.Corrupted {
			dir = "<!"
		}
		l.log(dir, label, pk.Payload)
		next(pk)
	}
}
