// Package core implements the paper's primary contribution: the
// S-D-network model (Section II), its R-generalized extension
// (Section IV, Definitions 5–8), the LGG protocol (Algorithm 1), the
// synchronous network engine that executes a routing policy step by step,
// and the explicit stability bounds of Lemma 1 / Properties 1–6.
package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/graph"
)

// Spec is an immutable description of an (R-generalized) S-D-network:
// the multigraph G together with, per node v, the injection capacity
// in(v), the extraction capacity out(v), and the retention constant R(v).
//
// A classical S-D-network (Section II) has R(v) == 0 everywhere, In > 0
// exactly on sources and Out > 0 exactly on destinations. A node with
// both In and Out positive is an R-generalized source if In > Out and an
// R-generalized destination otherwise (Definition 7).
type Spec struct {
	G   *graph.Multigraph
	In  []int64
	Out []int64
	R   []int64

	// sources caches Sources(). It is filled on first use, which may
	// happen on several goroutines at once when concurrent engines share
	// the spec, and cleared by SetSource.
	sources atomic.Pointer[[]graph.NodeID]
}

// NewSpec returns a Spec over g with all-zero roles; use the setters to
// declare sources and destinations.
func NewSpec(g *graph.Multigraph) *Spec {
	n := g.NumNodes()
	return &Spec{
		G:   g,
		In:  make([]int64, n),
		Out: make([]int64, n),
		R:   make([]int64, n),
	}
}

// SetSource declares v a source with injection capacity in > 0 and
// returns the Spec for chaining.
func (s *Spec) SetSource(v graph.NodeID, in int64) *Spec {
	if in <= 0 {
		panic("core: source capacity must be positive")
	}
	s.In[v] = in
	s.sources.Store(nil)
	return s
}

// SetSink declares v a destination with extraction capacity out > 0 and
// returns the Spec for chaining.
func (s *Spec) SetSink(v graph.NodeID, out int64) *Spec {
	if out <= 0 {
		panic("core: sink capacity must be positive")
	}
	s.Out[v] = out
	return s
}

// SetRetention sets the retention constant R(v) ≥ 0 of a generalized node
// (Definition 6) and returns the Spec for chaining.
func (s *Spec) SetRetention(v graph.NodeID, r int64) *Spec {
	if r < 0 {
		panic("core: retention must be non-negative")
	}
	s.R[v] = r
	return s
}

// Validate checks structural consistency: length agreement, no negative
// capacities, at least one source and one destination.
func (s *Spec) Validate() error {
	n := s.G.NumNodes()
	if len(s.In) != n || len(s.Out) != n || len(s.R) != n {
		return fmt.Errorf("core: role vectors disagree with graph size %d", n)
	}
	haveSrc, haveDst := false, false
	for v := 0; v < n; v++ {
		if s.In[v] < 0 || s.Out[v] < 0 || s.R[v] < 0 {
			return fmt.Errorf("core: node %d has negative capacity", v)
		}
		if s.In[v] > 0 {
			haveSrc = true
		}
		if s.Out[v] > 0 {
			haveDst = true
		}
	}
	if !haveSrc {
		return fmt.Errorf("core: network has no source")
	}
	if !haveDst {
		return fmt.Errorf("core: network has no destination")
	}
	return s.G.Validate()
}

// N returns the number of nodes (the paper's n).
func (s *Spec) N() int { return s.G.NumNodes() }

// Delta returns the maximum degree Δ of G.
func (s *Spec) Delta() int { return s.G.MaxDegree() }

// Sources returns the nodes with In > 0 in ascending order. The slice is
// computed once and shared: callers must not modify it. Change In only
// through SetSource once the spec is in use, or the cached list goes
// stale.
func (s *Spec) Sources() []graph.NodeID {
	if p := s.sources.Load(); p != nil {
		return *p
	}
	src := s.positive(s.In)
	s.sources.Store(&src)
	return src
}

// Sinks returns the nodes with Out > 0 in ascending order.
func (s *Spec) Sinks() []graph.NodeID { return s.positive(s.Out) }

// Terminals returns |S ∪ D|: the number of nodes that are a generalized
// source or destination.
func (s *Spec) Terminals() int {
	c := 0
	for v := range s.In {
		if s.In[v] > 0 || s.Out[v] > 0 {
			c++
		}
	}
	return c
}

func (s *Spec) positive(xs []int64) []graph.NodeID {
	var out []graph.NodeID
	for v, x := range xs {
		if x > 0 {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// ArrivalRate returns Σ_v in(v), the nominal arrival rate.
func (s *Spec) ArrivalRate() int64 {
	var t int64
	for _, x := range s.In {
		t += x
	}
	return t
}

// MaxOut returns out_max = max_v out(v) (0 when there are no sinks).
func (s *Spec) MaxOut() int64 {
	var m int64
	for _, x := range s.Out {
		if x > m {
			m = x
		}
	}
	return m
}

// MaxRetention returns max_v R(v).
func (s *Spec) MaxRetention() int64 {
	var m int64
	for _, x := range s.R {
		if x > m {
			m = x
		}
	}
	return m
}

// IsClassical reports whether the spec is a classical S-D-network: zero
// retention everywhere and no node acting as both source and sink.
func (s *Spec) IsClassical() bool {
	for v := range s.In {
		if s.R[v] != 0 {
			return false
		}
		if s.In[v] > 0 && s.Out[v] > 0 {
			return false
		}
	}
	return true
}

// Analyze runs the feasibility analysis of Section II-B on this network.
func (s *Spec) Analyze(solver flow.Solver) *flow.Analysis {
	return flow.Analyze(s.G, s.In, s.Out, solver)
}

// Potential returns the network state P = Σ_v q(v)² (Definition 1),
// saturating at math.MaxInt64 instead of silently wrapping negative when
// an unstable run grows queues past ≈2³¹ packets. Use PotentialSat to
// also learn whether saturation occurred.
func Potential(q []int64) int64 {
	p, _ := PotentialSat(q)
	return p
}

// maxExactSquare is the largest |q| whose square fits in an int64
// (⌊√(2⁶³−1)⌋).
const maxExactSquare = 3037000499

// PotentialSat returns the network state P = Σ_v q(v)² (Definition 1)
// together with an overflow flag. When the exact sum exceeds the int64
// range the returned potential is math.MaxInt64 and overflowed is true;
// a saturated potential is a lower bound, which preserves the sign and
// ordering properties the stability verdicts rely on (a diverging run
// stays "large" instead of wrapping negative and faking a drain).
func PotentialSat(q []int64) (p int64, overflowed bool) {
	for _, x := range q {
		var ok bool
		if p, ok = addSquare(p, x); !ok {
			return math.MaxInt64, true
		}
	}
	return p, false
}

// addSquare returns p + x² for p ≥ 0, or ok = false when the sum leaves
// the int64 range.
func addSquare(p, x int64) (sum int64, ok bool) {
	if x < 0 {
		x = -x
	}
	if x > maxExactSquare || p > math.MaxInt64-x*x {
		return 0, false
	}
	return p + x*x, true
}

// TotalQueued returns Σ_v q(v), the number of stored packets.
func TotalQueued(q []int64) int64 {
	var t int64
	for _, x := range q {
		t += x
	}
	return t
}

// MaxQueue returns max_v q(v).
func MaxQueue(q []int64) int64 {
	var m int64
	for _, x := range q {
		if x > m {
			m = x
		}
	}
	return m
}

// String describes the spec compactly.
func (s *Spec) String() string {
	return fmt.Sprintf("spec(n=%d, m=%d, |S|=%d, |D|=%d, rate=%d)",
		s.N(), s.G.NumEdges(), len(s.Sources()), len(s.Sinks()), s.ArrivalRate())
}
