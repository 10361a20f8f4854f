package tracing

import "repro/internal/wire"

// sniffInto fills e's identity from a payload netsim carries opaquely,
// classified by the codec the endpoints use, so a drop says which ADU
// died. Len is the wire size, or for OTP data the payload length so
// drop ranges line up with stream offsets.
func sniffInto(e *Event, pkt []byte) wire.Kind {
	c := wire.Classify(pkt)
	e.Proto, e.ID, e.ADU, e.Off, e.Len = c.Kind, c.ID, c.ADU, c.Off, len(pkt)
	if c.Kind == wire.KindSegData {
		e.Len = c.Len
	}
	return c.Kind
}

// recordNet records a network event about payload.
func (t *Tracer) recordNet(e Event, payload []byte) {
	sniffInto(&e, payload)
	t.record(e)
}
