package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// The replay re-executes a workload's runs in the benchmark process and
// times each layer from outside, around calls into its public functions.
// Engine calls are timed by wrapping the public Engine fields.

type timedRouter struct {
	core.Router
	ns *int64
}

func (t timedRouter) Plan(sn *core.Snapshot, buf []core.Send) []core.Send {
	start := time.Now()
	out := t.Router.Plan(sn, buf)
	*t.ns += int64(time.Since(start))
	return out
}

// timedArrivals also marks when each step began.
type timedArrivals struct {
	core.ArrivalProcess
	ns    *int64
	start *time.Time
}

func (t timedArrivals) Injections(step int64, spec *core.Spec, inj []int64) {
	start := time.Now()
	*t.start = start
	t.ArrivalProcess.Injections(step, spec, inj)
	*t.ns += int64(time.Since(start))
}

// timedExtract also counts its calls: the engine calls it once per sink.
type timedExtract struct {
	core.ExtractPolicy
	ns, calls *int64
}

func (t timedExtract) Extract(step int64, v graph.NodeID, lo, hi int64) int64 {
	start := time.Now()
	n := t.ExtractPolicy.Extract(step, v, lo, hi)
	*t.ns += int64(time.Since(start))
	*t.calls++
	return n
}

// clockNs is the cost of one time.Now. A timed interval holds about one
// clock read, which the per-layer times subtract.
func clockNs() float64 {
	const n = 1 << 16
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Now()
	}
	return float64(time.Since(start)) / n
}

// layerStats accumulates a replay.
type layerStats struct {
	runs, steps           int64
	buildNs, stepNs       int64 // Job.Build; bare Engine.Step loop
	planNs, childNs       int64 // wrapped Router.Plan; all wrapped calls
	childCalls            int64 // calls to the wrapped fields
	clockNs               float64
	simNs, inStepNs       int64 // sim.RunContext; the Steps inside it
	activeShare           float64
	sent                  int64
	allocBytes            uint64
	summarizeUs, appendUs []float64
	lineBytes             int64
}

// replay runs each job twice on one goroutine. The first pass is a bare
// Step loop, for the step time. The second is sim.RunContext with timed
// Router, Arrivals and Extract and an engine observer: a step spans from
// its Injections call, the first thing Step does, to the observer, the
// last, so the rest of RunContext's time is the sim layer's own. It also
// gives the active set, the sends and the heap bytes RunContext
// allocates. Each result then goes through Summarize and a
// Journal.Append to a file.
func replay(ctx context.Context, jobs []sweep.Job, dir string) (*layerStats, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("replay: no runs to replay")
	}
	path := filepath.Join(dir, "replay.jsonl")
	journal, err := sweep.CreateJournal(path, len(jobs))
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	runtime.GC()
	ls := &layerStats{clockNs: clockNs()}
	for _, j := range jobs {
		h := j.Options.Horizon
		if h <= 0 {
			h = j.Desc.Horizon
		}
		opts := j.Options
		opts.Horizon = h

		e := j.Build(j.Desc.Seed)
		start := time.Now()
		for i := int64(0); i < h; i++ {
			e.Step()
		}
		ls.stepNs += int64(time.Since(start))

		start = time.Now()
		e = j.Build(j.Desc.Seed)
		ls.buildNs += int64(time.Since(start))
		var plan, inj, ext, extCalls int64
		var stepStart time.Time
		e.Router = timedRouter{e.Router, &plan}
		e.Arrivals = timedArrivals{e.Arrivals, &inj, &stepStart}
		e.Extract = timedExtract{e.Extract, &ext, &extCalls}
		n := float64(e.Spec.N())
		e.AddObserver(core.ObserverFunc(func(_ int64, sn *core.Snapshot, st *core.StepStats) {
			ls.inStepNs += int64(time.Since(stepStart))
			ls.activeShare += float64(len(sn.Active)) / n
			ls.sent += st.Sent
		}))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start = time.Now()
		full := sim.RunContext(ctx, e, opts)
		ls.simNs += int64(time.Since(start))
		runtime.ReadMemStats(&m1)
		ls.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		ls.planNs += plan
		ls.childNs += plan + inj + ext
		ls.childCalls += 2*h + extCalls
		if full.Totals.Steps != h {
			return nil, fmt.Errorf("replay of run %d stopped at step %d of %d", j.Desc.Index, full.Totals.Steps, h)
		}

		start = time.Now()
		res := sweep.Summarize(j.Desc, full)
		ls.summarizeUs = append(ls.summarizeUs, float64(time.Since(start))/1e3)
		if err := checkResult(res); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		start = time.Now()
		if err := journal.Append(res); err != nil {
			return nil, err
		}
		ls.appendUs = append(ls.appendUs, float64(time.Since(start))/1e3)
		line, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		ls.lineBytes += int64(len(line)) + 1
		ls.runs++
		ls.steps += h
	}
	if err := journal.Close(); err != nil {
		return nil, err
	}
	return ls, nil
}

// values turns the replay into the core, sim and sweep metrics.
func (ls *layerStats) values() values {
	steps, runs := float64(ls.steps), float64(ls.runs)
	base := fmt.Sprintf("over %d steps of %d runs", ls.steps, ls.runs)
	step := float64(ls.stepNs) / steps
	children := (float64(ls.childNs) - float64(ls.childCalls)*ls.clockNs) / steps
	return values{
		"core.step_ns": measured(step, "bare Engine.Step loop, %s", base),
		"core.self_ns": measured(step-children,
			"core.step_ns minus wrapped Plan, Injections and Extract (%.1f ns/step), %s", children, base),
		"core.plan_ns": measured(float64(ls.planNs)/steps-ls.clockNs,
			"wrapped Router.Plan less one %.1f ns clock read, %s", ls.clockNs, base),
		"core.active_share":   measured(ls.activeShare/steps, "mean len(Snapshot().Active)/nodes over %d steps", ls.steps),
		"core.sends_per_step": measured(float64(ls.sent)/steps, "%d sends / %d steps", ls.sent, ls.steps),
		"core.build_ms":       measured(float64(ls.buildNs)/runs/1e6, "Job.Build, mean of %d runs", ls.runs),
		"sim.overhead_ns_per_step": measured(float64(ls.simNs-ls.inStepNs)/steps,
			"sim.RunContext %.1f ns/step minus the %.1f ns/step of the Steps inside it, %s",
			float64(ls.simNs)/steps, float64(ls.inStepNs)/steps, base),
		"sim.alloc_kb_per_run": measured(float64(ls.allocBytes)/runs/1024,
			"%d heap bytes / %d runs", ls.allocBytes, ls.runs),
		"sweep.summarize_us":      measured(stats.Median(ls.summarizeUs), "median of %d calls", len(ls.summarizeUs)),
		"sweep.journal_append_us": measured(stats.Median(ls.appendUs), "median of %d appends to a file", len(ls.appendUs)),
		"sweep.result_bytes":      measured(float64(ls.lineBytes)/runs, "%d bytes / %d lines", ls.lineBytes, ls.runs),
	}
}

// markNotApplicable marks every per-layer metric vs lacks as not
// applicable, with the reason.
func markNotApplicable(vs values, why string) {
	for _, m := range perLayer {
		if _, ok := vs[m.Name]; !ok {
			vs[m.Name] = notApplicable(why)
		}
	}
}
