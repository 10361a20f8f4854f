package main

import "testing"

func newTestLedger(n int) (*ledger, *payloads) {
	pay := newPayloads(42, 64, 16)
	l := newLedger(pay, n)
	for i := 0; i < n; i++ {
		l.submit()
	}
	return l, pay
}

func TestLedgerAcceptsExactlyOnceIntact(t *testing.T) {
	l, pay := newTestLedger(4)
	for i := uint64(0); i < 4; i++ {
		if !l.deliver(i, pay.get(i)) {
			t.Fatalf("first intact delivery of %d rejected", i)
		}
	}
	if failed, err := l.check(); failed != 0 || err != nil {
		t.Fatalf("check = %d, %v", failed, err)
	}
}

func TestLedgerRejects(t *testing.T) {
	cases := map[string]func(l *ledger, pay *payloads){
		"duplicated": func(l *ledger, pay *payloads) { l.deliver(1, pay.get(1)) },
		"damaged": func(l *ledger, pay *payloads) {
			b := append([]byte(nil), pay.get(2)...)
			b[len(b)-1] ^= 1
			l.n[2] = 0
			l.deliver(2, b)
		},
		"missing": func(l *ledger, pay *payloads) { l.n[3] = 0 },
		"refused": func(l *ledger, pay *payloads) { l.refuse(0) },
		"unknown": func(l *ledger, pay *payloads) { l.deliver(99, pay.get(99)) },
	}
	for name, spoil := range cases {
		l, pay := newTestLedger(4)
		for i := uint64(0); i < 4; i++ {
			l.deliver(i, pay.get(i))
		}
		spoil(l, pay)
		failed, err := l.check()
		if err == nil {
			t.Errorf("%s: ledger accepted the run", name)
			continue
		}
		if name != "unknown" && failed != 1 {
			t.Errorf("%s: %d failed ADUs, want 1 (%v)", name, failed, err)
		}
	}
}

func TestPayloadsRepeatPerSeed(t *testing.T) {
	a, b, c := newPayloads(7, 128, 8), newPayloads(7, 128, 8), newPayloads(8, 128, 8)
	if string(a.get(3)) != string(b.get(3)) {
		t.Errorf("same seed gave different payloads")
	}
	if string(a.get(3)) == string(c.get(3)) {
		t.Errorf("different seeds gave the same payload")
	}
	if string(a.get(3)) == string(a.get(4)) {
		t.Errorf("two ADUs share a payload")
	}
}
