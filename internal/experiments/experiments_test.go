package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/sweep"
)

func tinyConfig() Config {
	return Config{Seed: 1, Seeds: 2, Horizon: 250, Quick: true}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
		"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19",
		"E20", "E21", "E22", "E23", "E24", "E25", "E26", "E27", "P1", "P2", "P3"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("ordering: All()[%d] = %s, want %s", i, all[i].ID, id)
		}
	}
	for _, e := range all {
		if e.Title == "" || e.Run == nil {
			t.Fatalf("%s incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E4"); !ok {
		t.Fatal("E4 missing")
	}
	if _, ok := ByID("e4"); !ok {
		t.Fatal("lookup should be case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("bogus id found")
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	cfg := tinyConfig()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tab := e.Run(cfg)
			if tab == nil || tab.ID != e.ID {
				t.Fatalf("table id mismatch: %+v", tab)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("empty table")
			}
			var txt, csv bytes.Buffer
			if err := tab.Render(&txt); err != nil {
				t.Fatal(err)
			}
			if err := tab.CSV(&csv); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(txt.String(), e.ID) {
				t.Fatal("render lacks experiment id")
			}
			if strings.Count(csv.String(), "\n") != len(tab.Rows)+1 {
				t.Fatal("csv row count mismatch")
			}
		})
	}
}

// column returns the index of a named column.
func column(tab *Table, name string) int {
	for i, c := range tab.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

func TestE4Shape(t *testing.T) {
	tab, _ := ByID("E4")
	out := tab.Run(tinyConfig())
	iRho := column(out, "ρ(×f*)")
	iVerdict := column(out, "verdict")
	iShare := column(out, "stable-share")
	for _, row := range out.Rows {
		switch row[iRho] {
		case "0.50", "0.80":
			if row[iShare] != "1.000" {
				t.Errorf("%s at ρ=%s: stable-share %s", row[0], row[iRho], row[iShare])
			}
		case "1.25":
			if row[iVerdict] != "diverging" {
				t.Errorf("%s at ρ=1.25: verdict %s, want diverging", row[0], row[iVerdict])
			}
		}
	}
}

func TestE5AllRoutersDiverge(t *testing.T) {
	tab, _ := ByID("E5")
	out := tab.Run(tinyConfig())
	iVerdict := column(out, "verdict")
	for _, row := range out.Rows {
		if row[iVerdict] != "diverging" {
			t.Errorf("router %s did not diverge beyond f*", row[1])
		}
	}
}

func TestE6BoundHolds(t *testing.T) {
	tab, _ := ByID("E6")
	out := tab.Run(tinyConfig())
	iHolds := column(out, "holds")
	for _, row := range out.Rows {
		if row[iHolds] != "true" {
			t.Errorf("Property 1 bound violated on %s", row[0])
		}
	}
}

func TestE11NoCounterexamples(t *testing.T) {
	tab, _ := ByID("E11")
	out := tab.Run(tinyConfig())
	found := false
	for _, n := range out.Notes {
		if strings.Contains(n, "counterexamples found: 0") {
			found = true
		}
	}
	if !found {
		t.Fatalf("domination search reported counterexamples: %v", out.Notes)
	}
}

func TestTableAddRowPanicsOnArity(t *testing.T) {
	tab := &Table{ID: "X", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("short row accepted")
		}
	}()
	tab.AddRow("only-one")
}

func TestTableCSVQuoting(t *testing.T) {
	tab := &Table{ID: "X", Columns: []string{"a"}}
	tab.AddRow(`with "quote", comma`)
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"with ""quote"", comma"`) {
		t.Fatalf("csv quoting wrong: %q", buf.String())
	}
}

func TestConfigs(t *testing.T) {
	d := Defaults()
	if d.Seeds <= 0 || d.Horizon <= 0 {
		t.Fatal("bad defaults")
	}
	q := QuickConfig()
	if !q.Quick || q.Horizon >= d.Horizon {
		t.Fatal("quick config not quick")
	}
	var zero Config
	if zero.seeds() != 1 || zero.horizon() != 1000 {
		t.Fatal("zero config fallbacks wrong")
	}
}

func TestFaultsGridRunsAndReportsRecovery(t *testing.T) {
	cfg := tinyConfig()
	jobs := FaultsGrid(cfg)
	if len(jobs) == 0 {
		t.Fatal("faults grid is empty")
	}
	rs, err := (&sweep.Runner{}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := 0
	for _, r := range rs {
		if r.Failed {
			t.Fatalf("run %d (%s/%s) failed: %s", r.Index, r.Network, r.Variant, r.Error)
		}
		if r.Variant == "none" {
			if r.Recovery != "" {
				t.Fatalf("fault-free run %d carries recovery %q", r.Index, r.Recovery)
			}
			continue
		}
		if r.Recovery != "" {
			verdicts++
		}
	}
	if verdicts == 0 {
		t.Fatal("no faulty run surfaced a recovery verdict")
	}
	if _, err := FindGrid("faults"); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveMatchesExhaustive is the adaptive acceptance gate: on the
// frontier grid, bisection must land on the same critical load the
// exhaustive enumeration brackets — within one grid spacing plus the
// bisection tolerance — while spending at most half the runs.
func TestAdaptiveMatchesExhaustive(t *testing.T) {
	cfg := tinyConfig()
	space := FrontierSpace(cfg)
	jobs := FrontierGrid(cfg)
	rs, err := (&sweep.Runner{Workers: 4}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sweep.AggregateCells(rs, cfg.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	rho, _ := space.Axis("rho")
	points := rho.Points
	perNetwork := len(points)
	if len(cells) != 2*perNetwork {
		t.Fatalf("exhaustive frontier grid has %d cells, want %d", len(cells), 2*perNetwork)
	}
	// Exhaustive estimate: the midpoint between the last stable grid
	// point and the first unstable one, per network.
	exhaustive := make(map[string]float64)
	for n := 0; n < 2; n++ {
		group := cells[n*perNetwork : (n+1)*perNetwork]
		last := -1
		for i, c := range group {
			if c.StableShare >= 0.5 {
				last = i
			}
		}
		if last < 0 || last == perNetwork-1 {
			t.Fatalf("network %s has no frontier inside the rho axis (last stable index %d)", group[0].Network, last)
		}
		exhaustive[group[0].Network] = (points[last] + points[last+1]) / 2
	}

	const tol = 0.025
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rep, err := sweep.RunFrontier(ctx, FrontierSpace(cfg),
		sweep.FrontierConfig{Axis: "rho", Tol: tol, MinSeeds: cfg.Seeds, MaxSeeds: cfg.Seeds},
		&sweep.Runner{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("adaptive produced %d group results, want 2", len(rep.Results))
	}
	spacing := points[1] - points[0]
	for _, fr := range rep.Results {
		network := fr.Coords[0].Label
		want, ok := exhaustive[network]
		if !ok {
			t.Fatalf("adaptive group %q has no exhaustive counterpart", network)
		}
		if !fr.Found {
			t.Fatalf("adaptive did not find the %s frontier: %+v", network, fr)
		}
		if diff := math.Abs(fr.Critical - want); diff > spacing/2+tol {
			t.Errorf("%s: adaptive critical %.4f vs exhaustive %.4f (diff %.4f > %.4f)",
				network, fr.Critical, want, diff, spacing/2+tol)
		}
	}
	if rep.TotalRuns*2 > len(jobs) {
		t.Errorf("adaptive spent %d runs, more than half the exhaustive %d", rep.TotalRuns, len(jobs))
	}
}
