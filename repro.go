// Package repro is the public API of the reproduction of "Stability of a
// localized and greedy routing algorithm" (Caillouet, Huc, Nisse,
// Pérennes, Rivano; IPPS 2010).
//
// It re-exports the building blocks a user needs to assemble and study
// S-D-networks running the LGG protocol:
//
//	g := repro.Theta(3, 2)                      // 3 disjoint 2-hop paths
//	spec := repro.NewSpec(g).SetSource(0, 2).SetSink(1, 3)
//	fmt.Println(repro.Classify(spec))           // unsaturated
//	eng := repro.NewEngine(spec, repro.NewLGG())
//	res := repro.Run(eng, repro.Options{Horizon: 5000})
//	fmt.Println(res.Diagnosis.Verdict)          // stable
//
// The deeper machinery (max-flow solvers, cut splitting, experiment
// harness) lives in the internal packages and is reachable through the
// helpers below; the cmd/ tools and examples/ directory show idiomatic
// use.
package repro

import (
	"repro/internal/arrivals"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/interference"
	"repro/internal/loss"
	"repro/internal/packetsim"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Graph types.
type (
	// Multigraph is an undirected multigraph (parallel edges allowed).
	Multigraph = graph.Multigraph
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// EdgeID identifies an edge.
	EdgeID = graph.EdgeID
)

// Model types.
type (
	// Spec describes an (R-generalized) S-D-network.
	Spec = core.Spec
	// Engine executes the synchronous step semantics.
	Engine = core.Engine
	// LGG is the Local Greedy Gradient protocol (Algorithm 1).
	LGG = core.LGG
	// Router plans the transmission set of a step.
	Router = core.Router
	// Snapshot is the per-step observable state.
	Snapshot = core.Snapshot
	// Send is one planned transmission.
	Send = core.Send
	// StepStats summarizes one step.
	StepStats = core.StepStats
	// Totals accumulates run statistics.
	Totals = core.Totals
	// Bounds carries Lemma 1's explicit constants.
	Bounds = core.Bounds
)

// Simulation types.
type (
	// Options tunes a Run.
	Options = sim.Options
	// Result is a finished run with series and verdict.
	Result = sim.Result
	// Verdict classifies boundedness.
	Verdict = sim.Verdict
	// Feasibility classifies a network (infeasible/saturated/unsaturated).
	Feasibility = flow.Feasibility
	// Analysis is the full feasibility analysis of a network.
	Analysis = flow.Analysis
)

// Verdicts and feasibility classes.
const (
	StableVerdict       = sim.Stable
	DivergingVerdict    = sim.Diverging
	InconclusiveVerdict = sim.Inconclusive

	Infeasible  = flow.Infeasible
	Saturated   = flow.Saturated
	Unsaturated = flow.Unsaturated
)

// NewGraph returns an empty multigraph on n nodes.
func NewGraph(n int) *Multigraph { return graph.New(n) }

// Line returns the path graph on n nodes.
func Line(n int) *Multigraph { return graph.Line(n) }

// Cycle returns the n-cycle.
func Cycle(n int) *Multigraph { return graph.Cycle(n) }

// Grid returns the rows×cols grid; node (r,c) has id r·cols+c.
func Grid(rows, cols int) *Multigraph { return graph.Grid(rows, cols) }

// Theta returns two terminals (nodes 0 and 1) joined by `paths`
// internally disjoint paths of the given length.
func Theta(paths, length int) *Multigraph { return graph.ThetaGraph(paths, length) }

// Random returns a connected random multigraph with n nodes and m edges,
// deterministic in seed.
func Random(n, m int, seed uint64) *Multigraph {
	return graph.RandomMultigraph(n, m, rng.New(seed))
}

// NewSpec wraps a graph in an empty network spec; declare roles with
// SetSource/SetSink/SetRetention.
func NewSpec(g *Multigraph) *Spec { return core.NewSpec(g) }

// NewLGG returns the canonical LGG protocol.
func NewLGG() *LGG { return core.NewLGG() }

// NewEngine builds an engine with classical defaults (exact arrivals, no
// losses, truthful declarations, maximal extraction).
func NewEngine(spec *Spec, r Router) *Engine { return core.NewEngine(spec, r) }

// Run executes an engine and classifies the run.
func Run(e *Engine, opts Options) *Result { return sim.Run(e, opts) }

// Classify returns the feasibility class of a network (Definitions 3–4).
func Classify(spec *Spec) Feasibility {
	return spec.Analyze(flow.NewPushRelabel()).Feasibility
}

// Analyze returns the full feasibility analysis (max flow, f*, min cuts).
func Analyze(spec *Spec) *Analysis {
	return spec.Analyze(flow.NewPushRelabel())
}

// StabilityBounds computes Lemma 1's explicit constants for an
// unsaturated network.
func StabilityBounds(spec *Spec) (Bounds, error) {
	return core.ComputeBounds(spec, flow.NewPushRelabel())
}

// FlowRouter returns the clairvoyant baseline that routes along a
// maximum-flow path system (the paper's "optimal method").
func FlowRouter(spec *Spec) (Router, error) {
	return baseline.NewFlowRouter(spec, flow.NewPushRelabel())
}

// ShortestPathRouter returns the hot-potato baseline.
func ShortestPathRouter(spec *Spec) Router { return baseline.NewShortestPath(spec) }

// RandomRouter returns the random-forwarding baseline.
func RandomRouter(seed uint64) Router { return baseline.NewRandomForward(rng.New(seed)) }

// WithBernoulliLoss equips the engine with i.i.d. packet loss of
// probability p.
func WithBernoulliLoss(e *Engine, p float64, seed uint64) *Engine {
	e.Loss = &loss.Bernoulli{P: p, R: rng.New(seed)}
	return e
}

// WithThinnedArrivals makes every source inject Binomial(in(v), p)
// packets per step (a generalized source, Definition 5).
func WithThinnedArrivals(e *Engine, p float64, seed uint64) *Engine {
	e.Arrivals = &arrivals.Thinned{P: p, R: rng.New(seed)}
	return e
}

// WithLoad scales the nominal arrivals to num/den of in(v) (long-run
// exact via an error accumulator).
func WithLoad(e *Engine, num, den int64) *Engine {
	e.Arrivals = &arrivals.Scaled{Inner: core.ExactArrivals{}, Num: num, Den: den}
	return e
}

// WithNodeExclusiveInterference schedules each step's transmissions as a
// matching (node-exclusive spectrum sharing); oracle picks the
// gradient-weighted greedy matching.
func WithNodeExclusiveInterference(e *Engine, oracle bool) *Engine {
	if oracle {
		e.Interference = interference.NewOracle(interference.NodeExclusive)
	} else {
		e.Interference = interference.NewGreedy(interference.NodeExclusive)
	}
	return e
}

// PacketEngine adds packet identities to Engine: FIFO queues with
// tracked packets, yielding latency, hop-count and delivery metrics the
// count model cannot provide. It embeds an Engine and replays each
// step's trace on its queues, so its counts match Engine's by
// construction, under every extension (topology, interference, lying,
// losses). Its SetQueues panics: a queue rewrite names no packets.
type PacketEngine = packetsim.Engine

// NewPacketEngine builds a packet-level engine with classical defaults.
func NewPacketEngine(spec *Spec, r Router) *PacketEngine {
	return packetsim.New(spec, r)
}

// WithBlinkingEdges animates the topology (Conjecture 4): the victim
// edges take turns being down, one at a time for period steps each; all
// other edges stay alive.
func WithBlinkingEdges(e *Engine, victims []EdgeID, period int64) *Engine {
	e.Topology = &dynamic.RoundRobinBlink{Victims: victims, Period: period}
	return e
}

// WithBurstyArrivals makes sources alternate overload and silence
// deterministically (Conjecture 2): within each period, the first
// burstLen steps inject factor·in(v) and the rest inject nothing.
func WithBurstyArrivals(e *Engine, period, burstLen, factor int64) *Engine {
	e.Arrivals = &arrivals.Bursty{Period: period, BurstLen: burstLen, BurstFactor: factor}
	return e
}

// Potential returns the network state P = Σ q(v)² of a queue vector
// (Definition 1).
func Potential(q []int64) int64 { return core.Potential(q) }
