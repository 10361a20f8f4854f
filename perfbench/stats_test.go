package main

import "testing"

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	p99 := ladder[2]
	for _, c := range []struct {
		n    int
		want bool
	}{{999, false}, {1000, true}, {1001, true}, {0, false}} {
		if got := supported(c.n, p99); got != c.want {
			t.Errorf("supported(%d, p99) = %v, want %v", c.n, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want string
	}{{20, "p50"}, {100, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p99.9"}, {100000, "p99.99"}} {
		if got, ok := highest(c.n); !ok || got.label != c.want {
			t.Errorf("highest(%d) = %v %v, want %s", c.n, got.label, ok, c.want)
		}
	}
	if _, ok := highest(19); ok {
		t.Errorf("highest(19) found a percentile; the median of 19 has only 9 samples beyond it")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := quantile(s, ladder[0]); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := quantile(s, ladder[2]); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	p50, p99, top, topV, err := timing(s).summary()
	if err != nil || p50 != 500 || p99 != 990 || top.label != "p99" || topV != 990 {
		t.Errorf("summary = %v %v %v %v %v", p50, p99, top.label, topV, err)
	}
	if _, _, _, _, err := timing(s[:999]).summary(); err == nil {
		t.Errorf("summary of 999 samples reported a p99")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestBacklogGrowth(t *testing.T) {
	flat := make([]int, 400)
	for i := range flat {
		flat[i] = 5 + i%7
	}
	if _, _, grew := growing(flat); grew {
		t.Errorf("a steady backlog was flagged")
	}
	rising := make([]int, 400)
	for i := range rising {
		rising[i] = i / 2
	}
	if _, _, grew := growing(rising); !grew {
		t.Errorf("a backlog rising by 200 ADUs was not flagged")
	}
}
