package repro

// One benchmark per experiment of the reproduction index (DESIGN.md §4):
// each BenchXX exercises the code path that regenerates the corresponding
// table, at a fixed workload, so `go test -bench=.` doubles as the
// regeneration driver for timing data in EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/arrivals"
	"repro/internal/baseline"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/cutsplit"
	"repro/internal/distsim"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/interference"
	"repro/internal/loss"
	"repro/internal/lyapunov"
	"repro/internal/packetsim"
	"repro/internal/rng"
	"repro/internal/sweep"
)

func benchSpecTheta() *core.Spec {
	return core.NewSpec(graph.ThetaGraph(4, 3)).SetSource(0, 2).SetSink(1, 4)
}

func benchSpecGrid() *core.Spec {
	g := graph.Grid(6, 8)
	s := core.NewSpec(g)
	s.SetSource(0, 1)
	s.SetSource(8, 1)
	s.SetSource(16, 1)
	for r := 0; r < 6; r++ {
		s.SetSink(graph.NodeID(r*8+7), 2)
	}
	return s
}

// BenchmarkE1Step measures the raw cost of one synchronous LGG step
// (inject + plan + transmit + extract) on a 48-node grid.
func BenchmarkE1Step(b *testing.B) {
	e := core.NewEngine(benchSpecGrid(), core.NewLGG())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkE2Classify measures a full feasibility analysis (two max
// flows + residual reachability) on a random multigraph.
func BenchmarkE2Classify(b *testing.B) {
	g := graph.RandomMultigraph(60, 160, rng.New(1))
	in := make([]int64, 60)
	out := make([]int64, 60)
	in[0], in[1] = 2, 2
	out[58], out[59] = 3, 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flow.Analyze(g, in, out, flow.NewPushRelabel())
	}
}

// BenchmarkE3TieBreak measures LGG planning under each tie rule.
func BenchmarkE3TieBreak(b *testing.B) {
	spec := benchSpecGrid()
	for _, tie := range []core.TieBreak{core.TieEdgeOrder, core.TiePeerOrder, core.TieRandom} {
		b.Run(tie.String(), func(b *testing.B) {
			var l *core.LGG
			if tie == core.TieRandom {
				l = core.NewLGGRandomTies(rng.New(2))
			} else {
				l = &core.LGG{Tie: tie}
			}
			e := core.NewEngine(spec, l)
			for i := 0; i < 50; i++ {
				e.Step() // warm queues so planning has work to do
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkE4StabilityRegion measures a 1000-step stable run at 80% load.
func BenchmarkE4StabilityRegion(b *testing.B) {
	spec := benchSpecTheta()
	for i := 0; i < b.N; i++ {
		e := core.NewEngine(spec, core.NewLGG())
		e.Arrivals = &arrivals.Scaled{Inner: core.ExactArrivals{}, Num: 4, Den: 5}
		e.Run(1000)
	}
}

// BenchmarkE5Divergence measures a 1000-step overloaded (diverging) run —
// queues grow, exercising the large-backlog paths.
func BenchmarkE5Divergence(b *testing.B) {
	spec := benchSpecTheta()
	for i := 0; i < b.N; i++ {
		e := core.NewEngine(spec, core.NewLGG())
		e.Arrivals = &arrivals.Scaled{Inner: core.ExactArrivals{}, Num: 3, Den: 1}
		e.Run(1000)
	}
}

// BenchmarkE6GrowthBound measures stepping with per-step potential deltas
// (the Property 1 instrumentation).
func BenchmarkE6GrowthBound(b *testing.B) {
	e := core.NewEngine(benchSpecTheta(), core.NewLGG())
	prev := int64(0)
	var maxD int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := e.Step()
		if d := st.Potential - prev; d > maxD {
			maxD = d
		}
		prev = st.Potential
	}
	_ = maxD
}

// BenchmarkE7DecreaseBound measures the drain dynamics from a preloaded
// high state (Property 2's regime).
func BenchmarkE7DecreaseBound(b *testing.B) {
	spec := benchSpecTheta()
	pre := make([]int64, spec.N())
	for v := range pre {
		pre[v] = 100
	}
	for i := 0; i < b.N; i++ {
		e := core.NewEngine(spec, core.NewLGG())
		e.SetQueues(pre)
		e.Arrivals = benchNoArrivals{}
		e.Run(500)
	}
}

type benchNoArrivals struct{}

func (benchNoArrivals) Name() string                          { return "none" }
func (benchNoArrivals) Injections(int64, *core.Spec, []int64) {}

// BenchmarkE8Generalized measures R-generalized stepping with lying
// declarations and lazy extraction.
func BenchmarkE8Generalized(b *testing.B) {
	spec := benchSpecTheta()
	for v := range spec.R {
		if spec.In[v] > 0 || spec.Out[v] > 0 {
			spec.R[v] = 16
		}
	}
	e := core.NewEngine(spec, core.NewLGG())
	e.Declare = core.DeclareZero{}
	e.Extract = core.ExtractMin{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkE9Saturated measures stepping at exactly the capacity frontier.
func BenchmarkE9Saturated(b *testing.B) {
	spec := core.NewSpec(graph.ThetaGraph(4, 3)).SetSource(0, 4).SetSink(1, 4)
	e := core.NewEngine(spec, core.NewLGG())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkE10CutSplit measures the Section V-C decomposition plus its
// feasibility checks.
func BenchmarkE10CutSplit(b *testing.B) {
	g := graph.Barbell(5, 3)
	spec := core.NewSpec(g).SetSource(0, 1).SetSink(graph.NodeID(g.NumNodes()-1), 2)
	a := spec.Analyze(flow.NewPushRelabel())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := cutsplit.FromAnalysis(spec, a, 16)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Check(flow.NewPushRelabel()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11Domination measures a dominated run (thinned + lossy).
func BenchmarkE11Domination(b *testing.B) {
	spec := core.NewSpec(graph.Line(7)).SetSource(0, 1).SetSink(6, 1)
	e := core.NewEngine(spec, core.NewLGG())
	e.Arrivals = &arrivals.Thinned{P: 0.8, R: rng.New(3)}
	e.Loss = &loss.Bernoulli{P: 0.2, R: rng.New(4)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkE12Bursty measures stepping under burst/compensation arrivals.
func BenchmarkE12Bursty(b *testing.B) {
	e := core.NewEngine(benchSpecTheta(), core.NewLGG())
	e.Arrivals = &arrivals.Bursty{Period: 16, BurstLen: 4, BurstFactor: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkE13Uniform measures stepping under uniform random arrivals.
func BenchmarkE13Uniform(b *testing.B) {
	e := core.NewEngine(benchSpecTheta(), core.NewLGG())
	e.Arrivals = &arrivals.Uniform{R: rng.New(5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkE14Dynamic measures stepping with a per-step topology mask.
func BenchmarkE14Dynamic(b *testing.B) {
	spec := benchSpecTheta()
	e := core.NewEngine(spec, core.NewLGG())
	victims := make([]graph.EdgeID, spec.G.NumEdges())
	for i := range victims {
		victims[i] = graph.EdgeID(i)
	}
	e.Topology = benchBlink{victims}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

type benchBlink struct{ victims []graph.EdgeID }

func (benchBlink) Name() string { return "bench-blink" }
func (bb benchBlink) EdgeAlive(t int64, e graph.EdgeID) bool {
	return bb.victims[(t/5)%int64(len(bb.victims))] != e
}

// BenchmarkE15Interference measures stepping plus matching scheduling.
func BenchmarkE15Interference(b *testing.B) {
	for _, oracle := range []bool{false, true} {
		name := "greedy"
		if oracle {
			name = "oracle"
		}
		b.Run(name, func(b *testing.B) {
			e := core.NewEngine(benchSpecGrid(), core.NewLGG())
			e.Arrivals = &arrivals.Scaled{Inner: core.ExactArrivals{}, Num: 1, Den: 3}
			if oracle {
				e.Interference = interference.NewOracle(interference.NodeExclusive)
			} else {
				e.Interference = interference.NewGreedy(interference.NodeExclusive)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkE16RouterDuel measures a step of each router on the same warm
// network state.
func BenchmarkE16RouterDuel(b *testing.B) {
	spec := benchSpecGrid()
	fr, err := baseline.NewFlowRouter(spec, flow.NewPushRelabel())
	if err != nil {
		b.Fatal(err)
	}
	routers := []core.Router{
		core.NewLGG(),
		fr,
		baseline.NewFullGradient(),
		baseline.NewShortestPath(spec),
		baseline.NewRandomForward(rng.New(6)),
	}
	for _, r := range routers {
		b.Run(r.Name(), func(b *testing.B) {
			e := core.NewEngine(spec, r)
			for i := 0; i < 50; i++ {
				e.Step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkE17Lyapunov measures fully instrumented stepping (trace +
// exact Eq. 1–3 reconstruction) against plain stepping.
func BenchmarkE17Lyapunov(b *testing.B) {
	e := core.NewEngine(benchSpecTheta(), core.NewLGG())
	r := lyapunov.NewRecorder(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, terms := r.Step(); terms != nil {
			if err := terms.Check(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE18PacketStep measures the packet-identity engine step.
func BenchmarkE18PacketStep(b *testing.B) {
	pe := packetsim.New(benchSpecGrid(), core.NewLGG())
	pe.KeepDeliveries = false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pe.Step()
	}
}

// BenchmarkE19Adversary measures stepping under a window-budget adversary.
func BenchmarkE19Adversary(b *testing.B) {
	e := core.NewEngine(benchSpecTheta(), core.NewLGG())
	e.Arrivals = &adversary.WindowBudget{W: 8, Budget: 24,
		Mode: adversary.RandomSplit, R: rng.New(8)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkE20Drain measures draining a preloaded network to quiescence.
func BenchmarkE20Drain(b *testing.B) {
	spec := benchSpecTheta()
	pre := make([]int64, spec.N())
	for v := range pre {
		pre[v] = 10
	}
	for i := 0; i < b.N; i++ {
		e := core.NewEngine(spec, core.NewLGG())
		e.Arrivals = benchNoArrivals{}
		e.SetQueues(pre)
		for s := 0; s < 200; s++ {
			if st := e.Step(); st.Queued == 0 {
				break
			}
		}
	}
}

// BenchmarkE21SaturatedLine measures long-line saturated stepping (the
// staircase regime with large queues).
func BenchmarkE21SaturatedLine(b *testing.B) {
	spec := core.NewSpec(graph.Line(33)).SetSource(0, 1).SetSink(32, 1)
	e := core.NewEngine(spec, core.NewLGG())
	e.Run(4000) // reach the steady staircase first
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkE22Sleepy measures duty-cycled stepping (hash coin per node).
func BenchmarkE22Sleepy(b *testing.B) {
	e := core.NewEngine(benchSpecTheta(), &baseline.Sleepy{Inner: core.NewLGG(), P: 0.6, Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkP3Distributed measures one barrier-synchronized round of the
// message-passing engine.
func BenchmarkP3Distributed(b *testing.B) {
	de := distsim.New(benchSpecTheta(), nil)
	defer de.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		de.Step()
	}
}

// BenchmarkE23Critical measures one full frontier search for LGG's
// critical load, as E23 runs it: sweep.RunFrontier over rho ∈ [0, 2]
// (×f*) at resolution 1/8, stable only when both seeds are.
func BenchmarkE23Critical(b *testing.B) {
	spec := core.NewSpec(graph.ThetaGraph(3, 2)).SetSource(0, 3).SetSink(1, 3)
	fstar, rate := spec.Analyze(flow.NewPushRelabel()).FStar, spec.ArrivalRate()
	const resolution = 8
	s := &sweep.Space{
		Name:    "E23",
		Horizon: 600,
		Axes:    []sweep.Axis{{Name: "rho", Min: 0, Max: 2}},
		SeedFn:  func(_ sweep.Point, rep int) uint64 { return 1 + uint64(rep) },
		Build: func(p sweep.Probe) *core.Engine {
			rho, _ := p.Point.Value("rho")
			e := core.NewEngine(spec, core.NewLGG())
			e.Arrivals = &arrivals.Scaled{Inner: core.ExactArrivals{},
				Num: fstar * int64(rho*resolution), Den: rate * resolution}
			return e
		},
	}
	cfg := sweep.FrontierConfig{Axis: "rho", Tol: 1.0 / resolution, Threshold: 1, MinSeeds: 2, MaxSeeds: 2}
	for i := 0; i < b.N; i++ {
		if _, err := sweep.RunFrontier(context.Background(), s, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE24ExactChain measures enumerating + solving the exact Markov
// chain of a small instance.
func BenchmarkE24ExactChain(b *testing.B) {
	spec := core.NewSpec(graph.ThetaGraph(2, 2)).SetSource(0, 2).SetSink(1, 2)
	dist := chain.ThinnedBinomial(spec, 0.6)
	for i := 0; i < b.N; i++ {
		c, err := chain.Build(spec, dist, chain.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Stationary(100000, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE25GomoryHu measures building the all-pairs min-cut tree.
func BenchmarkE25GomoryHu(b *testing.B) {
	g := graph.Grid(4, 6)
	for i := 0; i < b.N; i++ {
		flow.GomoryHu(g, flow.NewPushRelabel())
	}
}

// BenchmarkE26Threshold measures the damped-gradient LGG variant.
func BenchmarkE26Threshold(b *testing.B) {
	e := core.NewEngine(benchSpecGrid(), &core.LGG{MinGradient: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkE27DualRole measures stepping a fully dual-role ring (every
// node both injects and extracts, Fig. 4).
func BenchmarkE27DualRole(b *testing.B) {
	spec := core.NewSpec(graph.Cycle(12))
	for v := 0; v < 12; v++ {
		spec.SetSource(graph.NodeID(v), 1)
		spec.SetSink(graph.NodeID(v), 1)
	}
	e := core.NewEngine(spec, core.NewLGG())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkP1Scaling measures the per-step cost across grid sizes.
func BenchmarkP1Scaling(b *testing.B) {
	for _, side := range []int{5, 10, 20, 40} {
		b.Run(fmt.Sprintf("grid%dx%d", side, side), func(b *testing.B) {
			g := graph.Grid(side, side)
			spec := core.NewSpec(g)
			for r := 0; r < side; r++ {
				spec.SetSource(graph.NodeID(r*side), 1)
				spec.SetSink(graph.NodeID(r*side+side-1), 2)
			}
			e := core.NewEngine(spec, core.NewLGG())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkP2MaxFlow compares the three solvers on a unit-capacity G*.
func BenchmarkP2MaxFlow(b *testing.B) {
	g := graph.RandomMultigraph(120, 400, rng.New(7))
	in := make([]int64, 120)
	out := make([]int64, 120)
	in[0], in[1] = 4, 4
	out[118], out[119] = 4, 4
	ext := flow.Extend(g, in, out, nil)
	for _, s := range flow.Solvers() {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.MaxFlow(ext.P)
			}
		})
	}
}

// BenchmarkSweepStability runs the E4 stability grid through the sweep
// runner at several pool sizes. The reported runs/s metric should scale
// near-linearly with workers on multi-core hardware (CI asserts nothing
// here — compare the b.Run lines by eye or with benchstat).
func BenchmarkSweepStability(b *testing.B) {
	cfg := experiments.Config{Seed: 1, Seeds: 4, Horizon: 800, Quick: true}
	jobs := experiments.StabilityGrid(cfg)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := &sweep.Runner{Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(jobs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}

// BenchmarkSweepDuel does the same on the E16 router duel (heavier cells:
// five routers, two loads, three networks).
func BenchmarkSweepDuel(b *testing.B) {
	cfg := experiments.Config{Seed: 1, Seeds: 2, Horizon: 500, Quick: true}
	jobs := experiments.RouterDuelGrid(cfg)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := &sweep.Runner{Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(jobs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}
