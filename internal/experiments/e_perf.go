package experiments

import (
	"time"

	"repro/internal/arrivals"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sweep"
)

func init() {
	register(Experiment{ID: "E16", Title: "Router duel: LGG vs baselines",
		Paper: "Section I framing (localized vs optimal)", Run: runE16})
	register(Experiment{ID: "P1", Title: "Simulator scaling (steps/s vs n)",
		Paper: "—", Run: runP1})
	register(Experiment{ID: "P2", Title: "Max-flow solver throughput",
		Paper: "—", Run: runP2})
}

// duelCell is one (network, router, load) cell of the E16 router duel.
type duelCell struct {
	w        workload
	router   string
	load     string
	num, den int64
	mk       func(spec *core.Spec, seed uint64) core.Router
}

// duelWorkloads is the E16 workload suite.
func duelWorkloads(cfg Config) []workload {
	ws := []workload{
		{"theta(3,2)", thetaSpec(3, 2, 2, 3)},
		{"grid(3x4)", gridSpec(3, 4, 2, 1, 3)},
	}
	if !cfg.Quick {
		ws = append(ws, workload{"theta(4,3)", thetaSpec(4, 3, 2, 4)})
	}
	return ws
}

// duelCells enumerates the E16 grid: workloads crossed with every router
// and two sub-critical load points.
func duelCells(cfg Config) []duelCell {
	ws := duelWorkloads(cfg)
	loads := []struct {
		name     string
		num, den int64
	}{{"0.60", 3, 5}, {"0.90", 9, 10}}
	type routerCase struct {
		name string
		mk   func(spec *core.Spec, seed uint64) core.Router
	}
	routers := []routerCase{
		{"lgg", func(*core.Spec, uint64) core.Router { return core.NewLGG() }},
		{"flow-paths", func(spec *core.Spec, _ uint64) core.Router {
			fr, err := baseline.NewFlowRouter(spec, flow.NewPushRelabel())
			if err != nil {
				return baseline.Null{}
			}
			return fr
		}},
		{"full-gradient", func(*core.Spec, uint64) core.Router { return baseline.NewFullGradient() }},
		{"shortest-path", func(spec *core.Spec, _ uint64) core.Router { return baseline.NewShortestPath(spec) }},
		{"random-forward", func(_ *core.Spec, seed uint64) core.Router {
			return baseline.NewRandomForward(rng.New(seed).Split(41))
		}},
	}
	var cells []duelCell
	for _, w := range ws {
		a := w.spec.Analyze(flow.NewPushRelabel())
		rate := w.spec.ArrivalRate()
		for _, rc := range routers {
			for _, ld := range loads {
				cells = append(cells, duelCell{w: w, router: rc.name, load: ld.name,
					num: a.FStar * ld.num, den: rate * ld.den, mk: rc.mk})
			}
		}
	}
	return cells
}

// RouterDuelSpace is the E16 grid as a typed-axis space: network ×
// router × a numeric sub-critical load axis in units of f*. The load
// axis makes the duel adaptively searchable per (network, router) pair —
// each router's own stability frontier, not just the two declared
// points.
func RouterDuelSpace(cfg Config) *sweep.Space {
	cells := duelCells(cfg)
	names, infos := loadInfos(duelWorkloads(cfg))
	const loadsPerRouter = 2
	perNetwork := len(cells) / len(names)
	routers := make([]string, perNetwork/loadsPerRouter)
	mks := make([]func(spec *core.Spec, seed uint64) core.Router, len(routers))
	for i := range routers {
		routers[i] = cells[i*loadsPerRouter].router
		mks[i] = cells[i*loadsPerRouter].mk
	}
	return &sweep.Space{
		Name:     "duel",
		BaseSeed: cfg.Seed,
		Replicas: cfg.seeds(),
		Horizon:  cfg.horizon(),
		Axes: []sweep.Axis{
			{Name: "network", Labels: names},
			{Name: "router", Labels: routers},
			{Name: "load", Unit: "×f*", Points: []float64{0.6, 0.9},
				Labels: []string{"0.60", "0.90"}},
		},
		SeedFn: func(_ sweep.Point, rep int) uint64 { return cfg.Seed + uint64(rep) },
		Build: func(p sweep.Probe) *core.Engine {
			info := infos[int(p.Point[0].Value)]
			mk := mks[int(p.Point[1].Value)]
			x, _ := p.Point.Value("load")
			num, den := rhoScale(info, x)
			e := core.NewEngine(info.spec, mk(info.spec, p.Seed))
			e.Arrivals = &arrivals.Scaled{Inner: core.ExactArrivals{}, Num: num, Den: den}
			return e
		},
	}
}

// RouterDuelGrid returns the E16 router-duel job list (every router across
// the load grid) for sweep-based execution.
func RouterDuelGrid(cfg Config) []sweep.Job {
	return mustJobs(RouterDuelSpace(cfg))
}

// runE16 pits LGG against all baselines over a load grid. The expected
// shape: LGG matches the clairvoyant flow router's stability region (the
// whole feasible region) while knowing nothing but neighbour queues;
// shortest-path survives moderate load; random forwarding collapses early.
func runE16(cfg Config) *Table {
	t := &Table{
		ID:      "E16",
		Title:   "who wins: stability region and backlog per router",
		Claim:   "LGG is stable wherever the max-flow router is; oblivious baselines are not",
		Columns: []string{"network", "router", "load(×f*)", "stable-share", "mean-backlog"},
	}
	cells := duelCells(cfg)
	rs, _ := (&sweep.Runner{}).Run(RouterDuelGrid(cfg))
	for i, cell := range fullCells(rs, cfg.seeds()) {
		c := cells[i]
		t.AddRow(c.w.name, c.router, c.load,
			fmtF(sweep.StableShare(cell)), fmtF(sweep.MeanBacklog(cell)))
	}
	return t
}

// runP1 measures raw simulator throughput (LGG steps per second) as the
// network grows.
func runP1(cfg Config) *Table {
	t := &Table{
		ID:      "P1",
		Title:   "simulator scaling",
		Claim:   "step cost grows near-linearly in network size",
		Columns: []string{"network", "n", "m", "steps", "wall", "steps/s", "node-steps/s"},
		Clock:   []string{"wall", "steps/s", "node-steps/s"},
	}
	sizes := [][2]int{{5, 5}, {10, 10}, {20, 20}}
	if cfg.Quick {
		sizes = [][2]int{{5, 5}, {10, 10}}
	}
	for _, sz := range sizes {
		spec := gridSpec(sz[0], sz[1], sz[0], 1, 2)
		e := core.NewEngine(spec, core.NewLGG())
		steps := cfg.horizon()
		start := time.Now()
		for i := int64(0); i < steps; i++ {
			e.Step()
		}
		wall := time.Since(start)
		sps := float64(steps) / wall.Seconds()
		t.AddRow(spec.String(), fmtI(int64(spec.N())), fmtI(int64(spec.G.NumEdges())),
			fmtI(steps), wall.Round(time.Microsecond).String(), fmtF(sps),
			fmtF(sps*float64(spec.N())))
	}
	return t
}

// runP2 measures max-flow solver throughput on G* instances.
func runP2(cfg Config) *Table {
	t := &Table{
		ID:      "P2",
		Title:   "max-flow solver throughput",
		Claim:   "push-relabel and Dinic dominate Edmonds–Karp as instances grow",
		Columns: []string{"instance", "solver", "flow", "solves", "wall", "solves/s"},
		Clock:   []string{"wall", "solves/s"},
	}
	r := rng.New(cfg.Seed).Split(99)
	sizes := []struct {
		name string
		n, m int
	}{{"random(40,120)", 40, 120}, {"random(120,400)", 120, 400}}
	if cfg.Quick {
		sizes = sizes[:1]
	}
	for _, sz := range sizes {
		g := graph.RandomMultigraph(sz.n, sz.m, r.Split(uint64(sz.n)))
		in := make([]int64, sz.n)
		out := make([]int64, sz.n)
		in[0] = 4
		out[sz.n-1] = 4
		ext := flow.Extend(g, in, out, nil)
		reps := 50
		if cfg.Quick {
			reps = 10
		}
		for _, s := range flow.Solvers() {
			start := time.Now()
			var value int64
			for i := 0; i < reps; i++ {
				value = s.MaxFlow(ext.P).Value
			}
			wall := time.Since(start)
			t.AddRow(sz.name, s.Name(), fmtI(value), fmtI(int64(reps)),
				wall.Round(time.Microsecond).String(),
				fmtF(float64(reps)/wall.Seconds()))
		}
	}
	return t
}
