package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the sample-count rule: a percentile is reported only when
// at least this many samples lie beyond it.
const minBeyond = 10

// pct is a nearest-rank percentile with its sample count.
type pct struct {
	p      float64 // the percentile, in (0, 1]
	v      float64
	n      int // samples
	beyond int // samples ranked above the percentile
}

// percentile returns the nearest-rank p-quantile of xs: the smallest
// sample with at least p·n samples at or below it.
func percentile(xs []float64, p float64) pct {
	q := pct{p: p, n: len(xs)}
	if len(xs) == 0 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	q.v = s[rank-1]
	q.beyond = len(s) - rank
	return q
}

// supported reports whether the sample-count rule holds.
func (q pct) supported() bool { return q.beyond >= minBeyond }

// value renders the percentile as a metric value. One that breaks the
// sample-count rule is flagged in the report and refused in the result
// line (see jsonMetrics), so no bound is ever checked against it.
func (q pct) value(unit string) value {
	v := value{v: q.v, note: fmt.Sprintf("p%.0f of n=%d %s, %d beyond", 100*q.p, q.n, unit, q.beyond)}
	if !q.supported() {
		v.unsupported = fmt.Sprintf("fewer than %d samples beyond the p%.0f", minBeyond, 100*q.p)
		v.note += " (UNSUPPORTED: " + v.unsupported + ")"
	}
	return v
}
