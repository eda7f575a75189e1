// Package arrivals provides the arrival processes used by the stability
// experiments. The classical process (inject exactly in(v), core's
// ExactArrivals) is the hypothesis of Conjecture 1; the processes here
// model the relaxations the paper's conjectures reason about:
//
//   - Thinned: inject Binomial(in(v), p) ≤ in(v) — a generalized source
//     (Definition 5), also how "packet losses are modeled by the ability
//     of a source to inject less than in(s)" (Section IV).
//   - Uniform: inject a uniform integer, Conjecture 3's regime.
//   - Bursty: alternate overload bursts with compensating quiet periods,
//     Conjecture 2's regime.
//   - Replay: deterministic adversarial schedules.
//   - OnOff: a two-state Markov-modulated source.
package arrivals

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rng"
)

// Thinned injects Binomial(in(v), P) packets per source per step:
// each nominal packet independently materializes with probability P.
type Thinned struct {
	P float64
	R *rng.Source
}

// Name implements core.ArrivalProcess.
func (a *Thinned) Name() string { return fmt.Sprintf("thinned(p=%g)", a.P) }

// Injections implements core.ArrivalProcess.
func (a *Thinned) Injections(_ int64, spec *core.Spec, inj []int64) {
	for _, v := range spec.Sources() {
		inj[v] = a.R.Binomial(spec.In[v], a.P)
	}
}

// SourcesOnly implements core.SourceOnlyArrivals: thinning only ever
// injects where in(v) > 0.
func (a *Thinned) SourcesOnly() bool { return true }

// Uniform injects, at every source v, a uniform integer in [0, Hi(v)]
// (mean Hi(v)/2) — the regime of Conjecture 3 when the mean is below the
// minimum S-D-cut.
type Uniform struct {
	// Hi caps the per-step injection per node; nodes with in(v) == 0 are
	// skipped regardless. If Hi is nil, 2·in(v) is used (mean = in(v)).
	Hi []int64
	R  *rng.Source
}

// Name implements core.ArrivalProcess.
func (a *Uniform) Name() string { return "uniform" }

// Injections implements core.ArrivalProcess.
func (a *Uniform) Injections(_ int64, spec *core.Spec, inj []int64) {
	for _, v := range spec.Sources() {
		hi := 2 * spec.In[v]
		if a.Hi != nil {
			hi = a.Hi[v]
		}
		if hi < 0 {
			hi = 0
		}
		inj[v] = a.R.IntRange(0, hi)
	}
}

// SourcesOnly implements core.SourceOnlyArrivals.
func (a *Uniform) SourcesOnly() bool { return true }

// Bursty alternates overload and compensation deterministically: within
// each period of Period steps, the first BurstLen steps inject
// BurstFactor·in(v) and the remaining steps inject QuietFactor·in(v).
// Choosing BurstLen·BurstFactor + (Period−BurstLen)·QuietFactor ≤ Period
// keeps the long-run average at or below the nominal rate (the premise of
// Conjecture 2).
type Bursty struct {
	Period      int64
	BurstLen    int64
	BurstFactor int64
	QuietFactor int64
}

// Name implements core.ArrivalProcess.
func (a *Bursty) Name() string {
	return fmt.Sprintf("bursty(%d/%d ×%d,×%d)", a.BurstLen, a.Period, a.BurstFactor, a.QuietFactor)
}

// AverageFactor returns the long-run injection rate as a multiple of
// in(v).
func (a *Bursty) AverageFactor() float64 {
	return (float64(a.BurstLen*a.BurstFactor) + float64((a.Period-a.BurstLen)*a.QuietFactor)) / float64(a.Period)
}

// Injections implements core.ArrivalProcess.
func (a *Bursty) Injections(t int64, spec *core.Spec, inj []int64) {
	if a.Period <= 0 || a.BurstLen < 0 || a.BurstLen > a.Period {
		panic("arrivals: inconsistent Bursty parameters")
	}
	factor := a.QuietFactor
	if t%a.Period < a.BurstLen {
		factor = a.BurstFactor
	}
	for _, v := range spec.Sources() {
		inj[v] = spec.In[v] * factor
	}
}

// SourcesOnly implements core.SourceOnlyArrivals.
func (a *Bursty) SourcesOnly() bool { return true }

// Replay injects a fixed schedule: Steps[t%len(Steps)][v] packets at node
// v. It lets experiments encode adversarial arrival patterns exactly.
// Replay rows may target any node, so it does not advertise SourcesOnly.
type Replay struct {
	Steps [][]int64
}

// Name implements core.ArrivalProcess.
func (a *Replay) Name() string { return fmt.Sprintf("replay(%d)", len(a.Steps)) }

// Injections implements core.ArrivalProcess.
func (a *Replay) Injections(t int64, spec *core.Spec, inj []int64) {
	if len(a.Steps) == 0 {
		return
	}
	row := a.Steps[t%int64(len(a.Steps))]
	if len(row) != len(inj) {
		panic("arrivals: replay row length mismatch")
	}
	copy(inj, row)
}

// OnOff is a Markov-modulated source: each source is independently ON or
// OFF; ON sources inject in(v), OFF sources inject nothing. State flips
// with probabilities POnToOff / POffToOn per step. The stationary ON
// probability is POffToOn/(POnToOff+POffToOn).
type OnOff struct {
	POnToOff float64
	POffToOn float64
	R        *rng.Source

	on []bool // per source, in spec.Sources() order
}

// Name implements core.ArrivalProcess.
func (a *OnOff) Name() string {
	return fmt.Sprintf("onoff(%.2f,%.2f)", a.POnToOff, a.POffToOn)
}

// Injections implements core.ArrivalProcess.
func (a *OnOff) Injections(_ int64, spec *core.Spec, inj []int64) {
	srcs := spec.Sources()
	if a.on == nil {
		a.on = make([]bool, len(srcs))
		for i := range a.on {
			a.on[i] = true // start ON
		}
	}
	for i, v := range srcs {
		if a.on[i] {
			if a.R.Bool(a.POnToOff) {
				a.on[i] = false
			}
		} else if a.R.Bool(a.POffToOn) {
			a.on[i] = true
		}
		if a.on[i] {
			inj[v] = spec.In[v]
		}
	}
}

// SourcesOnly implements core.SourceOnlyArrivals.
func (a *OnOff) SourcesOnly() bool { return true }

// Scaled wraps another process and multiplies every injection by a
// rational Num/Den (rounding down, with an error-carrying accumulator per
// node so the long-run average is exact). It is how load sweeps dial the
// arrival rate to ρ·in(v) without rebuilding the spec.
type Scaled struct {
	Inner core.ArrivalProcess
	Num   int64
	Den   int64

	acc []int64
	tmp []int64
}

// Name implements core.ArrivalProcess.
func (a *Scaled) Name() string {
	return fmt.Sprintf("%s×%d/%d", a.Inner.Name(), a.Num, a.Den)
}

// Injections implements core.ArrivalProcess. Over a source-only inner
// process it visits only the sources: elsewhere the inner injection and
// the accumulator both stay zero.
func (a *Scaled) Injections(t int64, spec *core.Spec, inj []int64) {
	if a.Den <= 0 || a.Num < 0 {
		panic("arrivals: inconsistent Scaled parameters")
	}
	if a.tmp == nil {
		a.tmp = make([]int64, len(inj))
		a.acc = make([]int64, len(inj))
	}
	if !a.SourcesOnly() {
		clear(a.tmp)
		a.Inner.Injections(t, spec, a.tmp)
		for v := range a.tmp {
			a.scale(v, inj)
		}
		return
	}
	srcs := spec.Sources()
	for _, v := range srcs {
		a.tmp[v] = 0
	}
	a.Inner.Injections(t, spec, a.tmp)
	for _, v := range srcs {
		a.scale(int(v), inj)
	}
}

// scale turns the inner injection at v into the scaled one, carrying the
// rounding error in acc[v].
func (a *Scaled) scale(v int, inj []int64) {
	a.acc[v] += a.tmp[v] * a.Num
	inj[v] = a.acc[v] / a.Den
	a.acc[v] -= inj[v] * a.Den
}

// SourcesOnly implements core.SourceOnlyArrivals by delegation: scaling
// cannot move an injection to a new node, so the guarantee is exactly
// the inner process's.
func (a *Scaled) SourcesOnly() bool {
	so, ok := a.Inner.(core.SourceOnlyArrivals)
	return ok && so.SourcesOnly()
}
