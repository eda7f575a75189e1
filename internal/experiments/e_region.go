package experiments

import (
	"context"
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/rng"
	"repro/internal/sweep"
)

func init() {
	register(Experiment{ID: "E23", Title: "Critical load ρ* per router (bisection)",
		Paper: "Theorem 1 quantified: ρ*(LGG) = 1", Run: runE23})
}

// e23Router is one router row of E23: a name and a per-run constructor
// that receives the network and the run seed.
type e23Router struct {
	name string
	mk   func(spec *core.Spec, seed uint64) core.Router
}

// runE23 bisects each router's stability frontier as a fraction of f*.
// Theorem 1 predicts LGG's frontier sits exactly at 1; the clairvoyant
// flow router matches it by construction; queue-oblivious heuristics fall
// short on asymmetric topologies; duty-cycled LGG loses capacity roughly
// proportional to its sleep fraction.
func runE23(cfg Config) *Table {
	t := &Table{
		ID:      "E23",
		Title:   "empirical stability frontier",
		Claim:   "ρ*(LGG) = ρ*(flow-paths) = 1·f*; oblivious and sleepy routers sit lower",
		Columns: []string{"network", "router", "stable-up-to(×f*)", "unstable-from(×f*)"},
	}
	ws := []workload{
		{"theta(3,2)", thetaSpec(3, 2, 3, 3)},
		{"grid(3x4)", gridSpec(3, 4, 2, 1, 3)},
	}
	if !cfg.Quick {
		ws = append(ws, workload{"grid(4x6)", gridSpec(4, 6, 2, 1, 3)})
	}
	routers := []e23Router{
		{"lgg", func(*core.Spec, uint64) core.Router { return core.NewLGG() }},
		{"flow-paths", func(spec *core.Spec, _ uint64) core.Router {
			fr, err := baseline.NewFlowRouter(spec, flow.NewPushRelabel())
			if err != nil {
				return baseline.Null{}
			}
			return fr
		}},
		{"shortest-path", func(spec *core.Spec, _ uint64) core.Router { return baseline.NewShortestPath(spec) }},
		{"random-forward", func(_ *core.Spec, seed uint64) core.Router {
			return baseline.NewRandomForward(rng.New(seed).Split(81))
		}},
		{"sleepy-lgg p=0.5", func(_ *core.Spec, seed uint64) core.Router {
			return &baseline.Sleepy{Inner: core.NewLGG(), P: 0.5, Seed: seed}
		}},
	}
	resolution := int64(16)
	if cfg.Quick {
		resolution = 8
	}
	seeds := min(cfg.seeds(), 4)
	brackets := criticalLoads(cfg, ws, routers, resolution, seeds)
	for i, b := range brackets {
		w, r := ws[i/len(routers)], routers[i%len(routers)]
		t.AddRow(w.name, r.name, fmtF(b[0]), fmtF(b[1]))
	}
	t.Note("bisection at resolution 1/%d of f*, %d seeds per probe; frontier = [stable-up-to, unstable-from)", resolution, seeds)
	return t
}

// criticalLoads brackets the critical load of every (workload, router)
// pair, workloads outermost, as [stable-up-to, unstable-from] in units
// of f*. The search is sweep.RunFrontier over a continuous rho axis on
// [0, 2] with threshold 1, so a load counts as stable only when all
// seeds (cfg.Seed + replica) are. Its midpoints are the dyadic loads
// k/resolution, and it stops at a bracket one resolution step wide. A
// pair still stable at 2 brackets as [2, 2].
func criticalLoads(cfg Config, ws []workload, routers []e23Router, resolution int64, seeds int) [][2]float64 {
	names, infos := loadInfos(ws)
	routerNames := make([]string, len(routers))
	for i, r := range routers {
		routerNames[i] = r.name
	}
	s := &sweep.Space{
		Name:     "E23",
		BaseSeed: cfg.Seed,
		Horizon:  cfg.horizon(),
		Axes: []sweep.Axis{
			{Name: "network", Labels: names},
			{Name: "router", Labels: routerNames},
			{Name: "rho", Unit: "×f*", Min: 0, Max: 2},
		},
		SeedFn: func(_ sweep.Point, rep int) uint64 { return cfg.Seed + uint64(rep) },
		Build: func(p sweep.Probe) *core.Engine {
			info := infos[int(p.Point[0].Value)]
			rho, _ := p.Point.Value("rho")
			num, den := rhoScale(info, rho)
			e := core.NewEngine(info.spec, routers[int(p.Point[1].Value)].mk(info.spec, p.Seed))
			e.Arrivals = &arrivals.Scaled{Inner: core.ExactArrivals{}, Num: num, Den: den}
			return e
		},
	}
	rep, err := sweep.RunFrontier(context.Background(), s, sweep.FrontierConfig{
		Axis: "rho", Tol: 1 / float64(resolution), Threshold: 1,
		MinSeeds: seeds, MaxSeeds: seeds,
	}, nil)
	if err != nil {
		panic(fmt.Sprintf("experiments: E23 frontier: %v", err))
	}
	out := make([][2]float64, len(rep.Results))
	for i, fr := range rep.Results {
		out[i] = [2]float64{fr.BracketLo, fr.BracketHi}
		if !fr.Found && fr.Side == "above" {
			out[i][0] = fr.BracketHi
		}
	}
	return out
}
