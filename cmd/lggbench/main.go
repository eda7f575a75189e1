// Command lggbench runs a fixed grid of planning/step micro-benchmarks
// over representative topologies and emits the results as BENCH_step.json,
// the perf-trajectory file CI archives on every run.
//
// Each entry reports ns/step, allocs/step, B/step and sends/sec in steady
// state (the engine is warmed before measurement, so lazily-built state —
// CSR incidence, scratch buffers, the active-node list — is already in
// place). The plan/* entries isolate the router hot path on a frozen
// snapshot; the step/* entries measure the full synchronous step. The
// *-sparse lines range from 4096 to 2²⁰ nodes with the same few packets in
// flight, so their ns/step shows whether a step costs O(activity) or O(n).
//
// With -gate FILE it compares the step results against a committed
// BENCH_step.json and exits non-zero when ns/step regresses beyond the
// tolerance or when any allocation-free path starts allocating — the CI
// bench gate.
//
// Examples:
//
//	lggbench -out BENCH_step.json
//	lggbench -benchtime 5000x -note "after CSR rewrite" -out -
//	lggbench -quick -gate BENCH_step.json -out /tmp/step.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// result is one benchmark row of BENCH_step.json.
type result struct {
	Name        string  `json:"name"`
	Steps       int     `json:"steps"`
	NsPerStep   float64 `json:"ns_per_step"`
	AllocsPerOp int64   `json:"allocs_per_step"`
	BytesPerOp  int64   `json:"bytes_per_step"`
	SendsPerSec float64 `json:"sends_per_sec,omitempty"`
}

// report is the whole BENCH_step.json document.
type report struct {
	Schema    string   `json:"schema"`
	Generated string   `json:"generated"`
	Go        string   `json:"go"`
	GOARCH    string   `json:"goarch"`
	Note      string   `json:"note,omitempty"`
	Results   []result `json:"results"`
}

// denseSpec mirrors the dense-topology workload the in-repo zero-alloc
// gate (BenchmarkLGGPlan) runs on: an 8×8 grid with diagonal chords, a
// source column and a sink column.
func denseSpec() *core.Spec {
	const side = 8
	g := graph.Grid(side, side)
	for r := 0; r+1 < side; r++ {
		for c := 0; c+1 < side; c++ {
			g.AddEdge(graph.NodeID(r*side+c), graph.NodeID((r+1)*side+c+1))
			g.AddEdge(graph.NodeID(r*side+c+1), graph.NodeID((r+1)*side+c))
		}
	}
	s := core.NewSpec(g)
	for r := 0; r < side; r++ {
		s.SetSource(graph.NodeID(r*side), 1)
		s.SetSink(graph.NodeID(r*side+side-1), 2)
	}
	return s
}

func gridSpec(side int) *core.Spec {
	g := graph.Grid(side, side)
	s := core.NewSpec(g)
	for r := 0; r < side; r++ {
		s.SetSource(graph.NodeID(r*side), 1)
		s.SetSink(graph.NodeID(r*side+side-1), 2)
	}
	return s
}

// sparseLineSpec is a line of n nodes with the source at node 0
// injecting 1/step and the sink at node 8 draining 1/step: in steady
// state only the first nine nodes ever hold packets.
func sparseLineSpec(n int) func() *core.Spec {
	return func() *core.Spec {
		return core.NewSpec(graph.Line(n)).SetSource(0, 1).SetSink(8, 1)
	}
}

// workload names one benchmark: either the full step loop or the plan-only
// hot path on a warm snapshot.
type workload struct {
	name     string
	spec     func() *core.Spec
	planOnly bool
}

var workloads = []workload{
	{name: "plan/dense8x8", spec: denseSpec, planOnly: true},
	{name: "step/dense8x8", spec: denseSpec},
	{name: "step/grid16x16", spec: gridSpec16},
	{name: "step/line4096-sparse", spec: sparseLineSpec(4096)},
	{name: "step/line64k-sparse", spec: sparseLineSpec(1 << 16)},
	{name: "step/line1M-sparse", spec: sparseLineSpec(1 << 20)},
}

func gridSpec16() *core.Spec { return gridSpec(16) }

const warmSteps = 200

// gate compares fresh step results against a committed baseline report
// and checks the alloc budgets, returning the violations. A workload is
// only compared when the baseline has a row of the same name, so adding
// workloads does not break the gate.
func gate(fresh []result, baselinePath string, tolerance float64) []string {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return []string{fmt.Sprintf("cannot read baseline %s: %v", baselinePath, err)}
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return []string{fmt.Sprintf("cannot parse baseline %s: %v", baselinePath, err)}
	}
	byName := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		byName[r.Name] = r
	}
	var bad []string
	for _, r := range fresh {
		b, ok := byName[r.Name]
		if !ok {
			continue
		}
		if b.AllocsPerOp == 0 && r.AllocsPerOp > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d allocs/step (budget is 0)", r.Name, r.AllocsPerOp))
		}
		if limit := b.NsPerStep * (1 + tolerance); r.NsPerStep > limit {
			bad = append(bad, fmt.Sprintf("%s: %.0f ns/step exceeds baseline %.0f +%.0f%% (%.0f)",
				r.Name, r.NsPerStep, b.NsPerStep, tolerance*100, limit))
		}
	}
	return bad
}

func runPlan(w workload) result {
	e := core.NewEngine(w.spec(), core.NewLGG())
	for i := 0; i < warmSteps; i++ {
		e.Step()
	}
	l := core.NewLGG()
	sn := e.Snapshot()
	buf := l.Plan(sn, nil)
	sent := 0
	steps := 0
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = l.Plan(sn, buf[:0])
		}
		sent += b.N * len(buf)
		steps += b.N
	})
	return toResult(w.name, r, sent, steps)
}

func runStep(w workload) result {
	e := core.NewEngine(w.spec(), core.NewLGG())
	for i := 0; i < warmSteps; i++ {
		e.Step()
	}
	var sent, steps int
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sent += int(e.Step().Sent)
		}
		steps += b.N
	})
	return toResult(w.name, r, sent, steps)
}

func runWorkload(w workload) result {
	if w.planOnly {
		return runPlan(w)
	}
	return runStep(w)
}

func toResult(name string, r testing.BenchmarkResult, sent, steps int) result {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	res := result{
		Name:        name,
		Steps:       r.N,
		NsPerStep:   ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if steps > 0 && ns > 0 {
		sendsPerStep := float64(sent) / float64(steps)
		res.SendsPerSec = sendsPerStep * 1e9 / ns
	}
	return res
}

func main() {
	var (
		out       = flag.String("out", "BENCH_step.json", "output path (- = stdout)")
		benchtime = flag.String("benchtime", "", "passed to -test.benchtime (e.g. 2000x, 1s)")
		note      = flag.String("note", "", "free-form note recorded in the report")
		list      = flag.Bool("list", false, "list workloads and exit")
		quick     = flag.Bool("quick", false, "CI mode: a short benchtime (0.3s per workload) unless -benchtime is set")
		gateFile  = flag.String("gate", "", "baseline BENCH_step.json to gate against (exit 1 on regression)")
		gateTol   = flag.Float64("gate-tolerance", 0.30, "allowed ns/step regression fraction in -gate mode")
	)
	testing.Init() // registers -test.* flags so -benchtime can be forwarded
	flag.Parse()

	if *list {
		for _, w := range workloads {
			fmt.Println(w.name)
		}
		return
	}
	if *benchtime == "" && *quick {
		*benchtime = "0.3s"
	}
	if *benchtime != "" {
		// testing.Benchmark honours the package-level -test.benchtime flag.
		if err := flag.CommandLine.Lookup("test.benchtime").Value.Set(*benchtime); err != nil {
			fmt.Fprintf(os.Stderr, "lggbench: bad -benchtime: %v\n", err)
			os.Exit(2)
		}
	}

	rep := report{
		Schema:    "lggbench/step/v1",
		Generated: time.Now().UTC().Format(time.RFC3339),
		Go:        runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Note:      *note,
	}
	// In gate mode each workload is measured three times and the fastest
	// run kept: min-of-N approximates the true cost floor on noisy shared
	// runners, where a single short sample can swing far beyond the gate
	// tolerance. Alloc counts are deterministic, so the max is kept — a
	// single allocating run is a real regression, not noise.
	runs := 1
	if *gateFile != "" {
		runs = 3
	}
	for _, w := range workloads {
		res := runWorkload(w)
		for i := 1; i < runs; i++ {
			r2 := runWorkload(w)
			if r2.NsPerStep < res.NsPerStep {
				res.NsPerStep, res.Steps, res.SendsPerSec = r2.NsPerStep, r2.Steps, r2.SendsPerSec
			}
			if r2.AllocsPerOp > res.AllocsPerOp {
				res.AllocsPerOp, res.BytesPerOp = r2.AllocsPerOp, r2.BytesPerOp
			}
		}
		fmt.Fprintf(os.Stderr, "%-22s %12.1f ns/step %6d B/step %4d allocs/step %14.0f sends/sec\n",
			res.Name, res.NsPerStep, res.BytesPerOp, res.AllocsPerOp, res.SendsPerSec)
		rep.Results = append(rep.Results, res)
	}

	writeJSON(*out, rep)

	if *gateFile != "" {
		if bad := gate(rep.Results, *gateFile, *gateTol); len(bad) > 0 {
			for _, msg := range bad {
				fmt.Fprintf(os.Stderr, "lggbench: GATE FAIL: %s\n", msg)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "lggbench: gate passed against %s (tolerance %.0f%%)\n", *gateFile, *gateTol*100)
	}
}

func writeJSON(path string, doc any) {
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lggbench: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if path == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "lggbench: %v\n", err)
		os.Exit(1)
	}
}
