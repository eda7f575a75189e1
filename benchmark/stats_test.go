package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 0.5, 50, 50},
		{100, 0.9, 90, 10},
		{10, 0.9, 9, 1},
		{1, 0.5, 1, 0},
		{21, 0.5, 11, 10},
	} {
		q := percentile(seq(c.n), c.p)
		if q.v != c.want || q.beyond != c.wantBeyond || q.n != c.n {
			t.Errorf("p%.0f of %d samples = %v with %d beyond, want %v with %d", 100*c.p, c.n, q.v, q.beyond, c.want, c.wantBeyond)
		}
	}
}

func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 0.5, false},
		{20, 0.5, true},
		{99, 0.9, false},
		{100, 0.9, true},
		{0, 0.5, false},
	} {
		q := percentile(seq(c.n), c.p)
		if got := q.supported(); got != c.want {
			t.Errorf("p%.0f of %d samples supported = %v, want %v", 100*c.p, c.n, got, c.want)
		}
		v := q.value("jobs")
		if !c.want && !strings.Contains(v.note, "UNSUPPORTED") {
			t.Errorf("p%.0f of %d samples: report %q does not flag it", 100*c.p, c.n, v.note)
		}
		_, err := values{"m": v}.jsonMetrics([]metricDef{{"m", "ms", "lower"}})
		if got := err == nil; got != c.want {
			t.Errorf("p%.0f of %d samples: result line accepted it = %v, want %v (%v)", 100*c.p, c.n, got, c.want, err)
		}
	}
}
