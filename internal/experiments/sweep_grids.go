package experiments

import (
	"fmt"
	"sort"

	"repro/internal/sweep"
)

// NamedGrid is a sweep addressable by name from cmd/lggsweep and the
// benchmarks; Jobs rebuilds the enumerated job list for a given Config so
// callers can vary seed, replica count and horizon. Space, when set,
// exposes the same sweep as a typed-axis sweep.Space — the form the
// adaptive frontier driver (and any axis-aware tooling) consumes. Jobs
// and Space always describe the same runs: for migrated grids, Jobs is
// exactly Space(cfg).Jobs().
type NamedGrid struct {
	Name  string
	Desc  string
	Jobs  func(cfg Config) []sweep.Job
	Space func(cfg Config) *sweep.Space
}

// mustJobs enumerates a space that is enumerable by construction; the
// migrated grid constructors use it so their historical []sweep.Job
// signatures survive the typed-axis redesign.
func mustJobs(s *sweep.Space) []sweep.Job {
	jobs, err := s.Jobs()
	if err != nil {
		panic(fmt.Sprintf("experiments: grid %q: %v", s.Name, err))
	}
	return jobs
}

// SweepGrids returns the registered grids, sorted by name.
func SweepGrids() []NamedGrid {
	grids := []NamedGrid{
		{Name: "stability", Desc: "E4 load sweep: unsaturated suite × load fractions of f*",
			Jobs: StabilityGrid, Space: StabilitySpace},
		{Name: "generalized", Desc: "E8 R-generalized networks: retention × lying × extraction policies",
			Jobs: GeneralizedGrid, Space: GeneralizedSpace},
		{Name: "duel", Desc: "E16 router duel: LGG vs baselines across sub-critical loads",
			Jobs: RouterDuelGrid, Space: RouterDuelSpace},
		{Name: "faults", Desc: "fault injection: unsaturated suite × fault regimes, with recovery verdicts",
			Jobs: FaultsGrid, Space: FaultsSpace},
		{Name: "frontier", Desc: "critical-load frontier: unsaturated suite × a dense rho axis around f* (built for -adaptive)",
			Jobs: FrontierGrid, Space: FrontierSpace},
	}
	sort.Slice(grids, func(i, j int) bool { return grids[i].Name < grids[j].Name })
	return grids
}

// FindGrid looks a grid up by name.
func FindGrid(name string) (NamedGrid, error) {
	for _, g := range SweepGrids() {
		if g.Name == name {
			return g, nil
		}
	}
	return NamedGrid{}, fmt.Errorf("experiments: unknown grid %q", name)
}

// ResultTable renders sweep results as a Table so they reuse the existing
// CSV/text writers. One row per run, in sweep order.
func ResultTable(name string, rs []sweep.Result) *Table {
	t := &Table{
		ID:      "sweep-" + name,
		Title:   "sweep results: " + name,
		Columns: []string{"index", "network", "router", "variant", "replica", "seed", "horizon", "verdict", "slope", "mean-backlog", "peak-P", "final-P"},
	}
	for _, r := range rs {
		t.AddRow(fmtI(int64(r.Index)), r.Network, r.Router, r.Variant,
			fmtI(int64(r.Replica)), fmt.Sprintf("%d", r.Seed), fmtI(r.Horizon),
			r.Verdict.String(), fmtF(r.Slope), fmtF(r.MeanBacklog),
			fmtI(r.PeakPotential), fmtI(r.FinalPotential))
	}
	return t
}
