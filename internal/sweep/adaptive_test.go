package sweep

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/graph"
)

// testContext returns a context that is cancelled when the test ends.
// It stands in for t.Context, which needs Go 1.24; the module builds
// with Go 1.22.
func testContext(t testing.TB) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}

// Rigged frontier coordinates of frontierTestSpace: the "sharp" group
// flips verdict crisply at sharpCrit; the "fuzzy" group flips at
// fuzzyCrit but inside (fuzzyLo, fuzzyHi) only even replicas are stable
// (share exactly 1/2), so its probes there cannot settle by confidence
// interval and must escalate to the replica cap.
const (
	sharpCrit = 0.37
	fuzzyCrit = 0.62
	fuzzyLo   = 0.55
	fuzzyHi   = 0.70
)

// frontierTestSpace rigs engine stability as a known function of the
// continuous rho axis, so the bisection's answer can be checked exactly:
// a run is "stable" when it gets the unloaded line, "diverging" when its
// arrivals are tripled past capacity.
func frontierTestSpace() *Space {
	spec := core.NewSpec(graph.Line(4)).SetSource(0, 1).SetSink(3, 1)
	stable := func(group string, x float64, replica int) bool {
		switch group {
		case "sharp":
			return x <= sharpCrit
		default:
			if x > fuzzyLo && x < fuzzyHi {
				return replica%2 == 0
			}
			return x <= fuzzyCrit
		}
	}
	return &Space{
		Name:     "rigged-frontier",
		BaseSeed: 11,
		Horizon:  200,
		Axes: []Axis{
			{Name: "network", Labels: []string{"sharp", "fuzzy"}},
			{Name: "rho", Unit: "×f*", Min: 0, Max: 1},
		},
		Build: func(p Probe) *core.Engine {
			group, _ := p.Point.Label("network")
			x, _ := p.Point.Value("rho")
			e := core.NewEngine(spec, core.NewLGG())
			if !stable(group, x, p.Replica) {
				e.Arrivals = &arrivals.Scaled{Inner: core.ExactArrivals{}, Num: 3, Den: 1}
			}
			return e
		},
	}
}

func runRigged(t *testing.T, workers int, base *Runner) *FrontierReport {
	t.Helper()
	if base == nil {
		base = &Runner{}
	}
	base.Workers = workers
	rep, err := RunFrontier(testContext(t), frontierTestSpace(), FrontierConfig{Axis: "rho", Tol: 0.02}, base)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFrontierConvergesToRiggedCritical(t *testing.T) {
	rep := runRigged(t, 4, nil)
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want one per network group", len(rep.Results))
	}
	sharp, fuzzy := rep.Results[0], rep.Results[1]
	if sharp.Coords[0].Label != "sharp" || fuzzy.Coords[0].Label != "fuzzy" {
		t.Fatalf("group order: %+v / %+v", sharp.Coords, fuzzy.Coords)
	}
	if !sharp.Found || math.Abs(sharp.Critical-sharpCrit) > 0.02 {
		t.Fatalf("sharp frontier at %g (found=%v), want %g ± 0.02", sharp.Critical, sharp.Found, sharpCrit)
	}
	// Inside the fuzzy window forced probes land on the stable side
	// (share 1/2 meets the 0.5 threshold), so the observable flip is at
	// the window's upper edge.
	if !fuzzy.Found || math.Abs(fuzzy.Critical-fuzzyHi) > 0.02 {
		t.Fatalf("fuzzy frontier at %g (found=%v), want %g ± 0.02", fuzzy.Critical, fuzzy.Found, fuzzyHi)
	}
	if sharp.BracketHi-sharp.BracketLo > 0.02 || fuzzy.BracketHi-fuzzy.BracketLo > 0.02 {
		t.Fatalf("brackets wider than tolerance: %+v %+v", sharp, fuzzy)
	}
	// The crisp group settles every probe in the minimum batch; the fuzzy
	// group's window probes must have escalated past it.
	if sharp.Runs != 4*sharp.Probes {
		t.Fatalf("sharp spent %d runs on %d probes, want MinSeeds each", sharp.Runs, sharp.Probes)
	}
	if fuzzy.Runs <= 4*fuzzy.Probes {
		t.Fatalf("fuzzy never escalated past MinSeeds: %d runs on %d probes", fuzzy.Runs, fuzzy.Probes)
	}
	if rep.TotalRuns != len(rep.Probes) || rep.TotalRuns != sharp.Runs+fuzzy.Runs {
		t.Fatalf("run accounting: total %d, probes %d, groups %d", rep.TotalRuns, len(rep.Probes), sharp.Runs+fuzzy.Runs)
	}
	// Budget sanity: exhaustively scanning rho at the same resolution
	// would cost 50 coordinates × MaxSeeds replicas per group.
	if exhaustive := 2 * 50 * 4; rep.TotalRuns > exhaustive/2 {
		t.Fatalf("adaptive spent %d runs, exhaustive equivalent is %d", rep.TotalRuns, exhaustive)
	}
	// Confidence intervals at the bracket edges are populated and ordered.
	for _, fr := range rep.Results {
		if fr.CIAtLo[0] > fr.ShareAtLo || fr.CIAtLo[1] < fr.ShareAtLo ||
			fr.CIAtHi[0] > fr.ShareAtHi || fr.CIAtHi[1] < fr.ShareAtHi {
			t.Fatalf("bracket CI does not contain its share: %+v", fr)
		}
	}
}

// TestFrontierNotFound pins the endpoint-agreement path: an axis range
// entirely on one side reports Found=false with the side.
func TestFrontierNotFound(t *testing.T) {
	s := frontierTestSpace()
	s.Axes[1] = Axis{Name: "rho", Min: 0.75, Max: 1} // above both criticals
	rep, err := RunFrontier(testContext(t), s, FrontierConfig{Axis: "rho", Tol: 0.02}, &Runner{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range rep.Results {
		if fr.Found || fr.Side != "below" {
			t.Fatalf("want not-found below, got %+v", fr)
		}
		if fr.Probes != 2 || fr.BracketLo != 0.75 || fr.BracketHi != 1 {
			t.Fatalf("not-found group should spend exactly the two endpoints: %+v", fr)
		}
	}
}

func TestFrontierConfigErrors(t *testing.T) {
	s := frontierTestSpace()
	if _, err := RunFrontier(testContext(t), s, FrontierConfig{Axis: "zeta"}, nil); err == nil || !strings.Contains(err.Error(), "no axis") {
		t.Fatalf("unknown axis: %v", err)
	}
	if _, err := RunFrontier(testContext(t), s, FrontierConfig{Axis: "network"}, nil); err == nil || !strings.Contains(err.Error(), "categorical") {
		t.Fatalf("categorical search axis: %v", err)
	}
}

// frontierBytes flattens a report into its two byte-stable streams.
func frontierBytes(t *testing.T, rep *FrontierReport) (results, probes string) {
	t.Helper()
	var rbuf, pbuf bytes.Buffer
	if err := WriteFrontierJSONL(&rbuf, rep.Results); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&pbuf, rep.Probes); err != nil {
		t.Fatal(err)
	}
	return rbuf.String(), pbuf.String()
}

// TestFrontierDeterminismAcrossWorkerCounts is the adaptive contract:
// both output streams are byte-identical at any worker count.
func TestFrontierDeterminismAcrossWorkerCounts(t *testing.T) {
	r1, p1 := frontierBytes(t, runRigged(t, 1, nil))
	r8, p8 := frontierBytes(t, runRigged(t, 8, nil))
	if r1 != r8 {
		t.Fatal("8-worker frontier results differ from 1-worker results")
	}
	if p1 != p8 {
		t.Fatal("8-worker probe stream differs from 1-worker stream")
	}
}

// TestFrontierResumeFromTornJournal crash-recovers a refinement: journal
// a full run, tear the journal mid-bisection (partial trailing line),
// resume at both 1 and 8 workers, and demand byte-identical outputs and
// a byte-identical healed journal.
func TestFrontierResumeFromTornJournal(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.jsonl")
	j, err := CreateJournal(ref, AdaptiveJobs)
	if err != nil {
		t.Fatal(err)
	}
	full := runRigged(t, 4, &Runner{Journal: j})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	wantResults, wantProbes := frontierBytes(t, full)
	refBytes, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(refBytes, []byte("\n"))
	if len(lines) < 20 {
		t.Fatalf("reference journal too short to tear: %d lines", len(lines))
	}

	for _, workers := range []int{1, 8} {
		// Keep the header plus a mid-bisection prefix, then tear the tail.
		cut := len(lines) / 2
		torn := append([]byte{}, bytes.Join(lines[:cut], nil)...)
		torn = append(torn, []byte(`{"index":`)...) // partial line from a crash
		path := filepath.Join(dir, "resume.jsonl")
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}

		j2, resume, err := OpenJournalResume(path, AdaptiveJobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(resume) != cut-1 {
			t.Fatalf("resume prefix has %d results, want %d", len(resume), cut-1)
		}
		rep := runRigged(t, workers, &Runner{Journal: j2, Resume: resume})
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		gotResults, gotProbes := frontierBytes(t, rep)
		if gotResults != wantResults {
			t.Fatalf("workers=%d: resumed frontier results differ from the uninterrupted run", workers)
		}
		if gotProbes != wantProbes {
			t.Fatalf("workers=%d: resumed probe stream differs from the uninterrupted run", workers)
		}
		healed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(healed, refBytes) {
			t.Fatalf("workers=%d: healed journal differs from the reference journal", workers)
		}
	}
}

// TestFrontierResumeRejectsForeignJournal: a journal longer than the
// refinement (a different sweep's leftovers) is an error, not silence.
func TestFrontierResumeRejectsForeignJournal(t *testing.T) {
	full := runRigged(t, 2, nil)
	extra := append(append([]Result(nil), full.Probes...), Result{Desc: Desc{Index: len(full.Probes)}})
	_, err := RunFrontier(testContext(t), frontierTestSpace(), FrontierConfig{Axis: "rho", Tol: 0.02},
		&Runner{Workers: 2, Resume: extra})
	if err == nil || !strings.Contains(err.Error(), "beyond the adaptive refinement") {
		t.Fatalf("oversized resume prefix: %v", err)
	}
}
