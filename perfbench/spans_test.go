package main

import "testing"

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1, kind: kDrain},  // 100 - (30 + 20) = 50
		{start: 10, end: 40, parent: 0, kind: kHandle},  // 30 - 10 = 20
		{start: 15, end: 25, parent: 1, kind: kOnADU},   // 10
		{start: 50, end: 70, parent: 0, kind: kHandle},  // 20
		{start: 200, end: 260, parent: -1, kind: kSend}, // 60 - 5 = 55
		{start: 210, end: 215, parent: 4, kind: kSendRef},
	}
	got := selfTimes(spans)
	want := [numKinds]int64{kDrain: 50, kHandle: 40, kOnADU: 10, kSend: 55, kSendRef: 5}
	if got != want {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != 160 {
		t.Errorf("self times sum to %d, want the two roots' 160", sum)
	}
}

func TestRecorderNestsAndClaims(t *testing.T) {
	r := newRecorder(8)
	a := r.begin(kDrain, 7)
	b := r.begin(kHandle, 0)
	r.claim(9)
	c := r.begin(kOnADU, 9)
	r.end(c)
	r.end(b)
	d := r.begin(kHandle, 0)
	r.end(d)
	r.end(a)
	e := r.begin(kSend, 8)
	r.end(e)
	wantParent := []int32{-1, 0, 1, 0, -1}
	wantADU := []uint64{7, 9, 9, 0, 8}
	for i, s := range r.spans {
		if s.parent != wantParent[i] || s.adu != wantADU[i] || s.end < s.start {
			t.Errorf("span %d = %+v, want parent %d adu %d", i, s, wantParent[i], wantADU[i])
		}
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin(kSend, 1))
	if nilRec.len() != 0 {
		t.Errorf("nil recorder recorded spans")
	}
}
