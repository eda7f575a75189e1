package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/loss"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// sweep-sparse: 65,536-node networks where about 0.01% of nodes ever hold
// a packet, so the engine's O(n) per-step passes are nearly all the work.
// A job is one sweep.Runner call over a line run then a grid run.
const (
	sparseSide    = 256
	sparseNodes   = sparseSide * sparseSide
	sparseSteps   = 100 // short enough that every run holds 100+ jobs for p90
	sparseArrival = 0.9 // thinned arrivals: each nominal packet appears w.p. 0.9
	sparseLoss    = 0.05
	setupRepeats  = 5
	// warmSeedOffset keeps warm-up runs' seeds apart from measured ones.
	warmSeedOffset = 1 << 32
)

type sparse struct {
	seed  uint64
	specs [2]*core.Spec
}

var sparseNames = [2]string{"line65536", "grid256x256"}

// buildSparse builds the two topologies: a line with the source at node
// 0 and the sink at node 8, and a grid with two sources in one corner and
// a sink three hops from the first.
func buildSparse(seed uint64) (*sparse, error) {
	line := core.NewSpec(graph.Line(sparseNodes)).SetSource(0, 1).SetSink(8, 1)
	grid := core.NewSpec(graph.Grid(sparseSide, sparseSide)).
		SetSource(0, 1).SetSource(1, 1).SetSink(sparseSide+2, 2)
	for _, s := range []*core.Spec{line, grid} {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	return &sparse{seed: seed, specs: [2]*core.Spec{line, grid}}, nil
}

// job is run i: even runs on the line, odd on the grid, seeded from the
// workload seed plus the run index.
func (s *sparse) job(i int, seed uint64) sweep.Job {
	spec := s.specs[i%2]
	return sweep.Job{
		Desc: sweep.Desc{Index: i, Grid: "sweep-sparse", Network: sparseNames[i%2], Router: "lgg",
			Seed: seed, Horizon: sparseSteps},
		Build: func(seed uint64) *core.Engine {
			e := core.NewEngine(spec, core.NewLGG())
			r := rng.New(seed)
			e.Arrivals = &arrivals.Thinned{P: sparseArrival, R: r.Split(1)}
			e.Loss = &loss.Bernoulli{P: sparseLoss, R: r.Split(2)}
			return e
		},
	}
}

func (s *sparse) pair(i int) []sweep.Job {
	return []sweep.Job{s.job(i, s.seed+uint64(i)), s.job(i+1, s.seed+uint64(i+1))}
}

// setupSparse builds the inputs and warms up with one job, setupRepeats
// times, and returns the last workload with every set-up time.
func setupSparse(seed uint64) (*sparse, []float64, error) {
	var (
		s     *sparse
		times []float64
	)
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		var err error
		if s, err = buildSparse(seed); err != nil {
			return nil, nil, err
		}
		warm := []sweep.Job{s.job(0, seed+warmSeedOffset), s.job(1, seed+warmSeedOffset+1)}
		rs, err := (&sweep.Runner{Workers: 1}).Run(warm)
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		for _, r := range rs {
			if err := checkResult(r); err != nil {
				return nil, nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		times = append(times, time.Since(start).Seconds())
		// Collect each set-up's garbage so the peak RSS does not depend
		// on when the GC happened to run.
		runtime.GC()
	}
	return s, times, nil
}

// measure runs jobs back to back until dur has passed and the job in
// flight has finished, checking every run.
func (s *sparse) measure(ctx context.Context, dur time.Duration) phase {
	runtime.GC()
	var ph phase
	cpu0 := selfCPU()
	start := time.Now()
	deadline := start.Add(dur)
	end := start
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i += 2 {
		var first time.Time
		runner := &sweep.Runner{Workers: 1, OnResult: func(_ sweep.Job, r sweep.Result, _ *sim.Result) {
			if first.IsZero() {
				first = time.Now()
			}
		}}
		t0 := time.Now()
		rs, err := runner.RunWithContext(ctx, s.pair(i))
		end = time.Now()
		ph.attempted += 2
		if err == nil && len(rs) != 2 {
			err = fmt.Errorf("%d results for 2 runs", len(rs))
		}
		if err != nil {
			ph.fail(2, "job %d: %v", i/2, err)
			continue
		}
		bad := 0
		for _, r := range rs {
			if err := checkResult(r); err != nil {
				ph.fail(1, "%v", err)
				bad++
			}
		}
		ph.runs += 2 - bad
		ph.firstMs = append(ph.firstMs, ms(first.Sub(t0)))
		ph.doneMs = append(ph.doneMs, ms(end.Sub(t0)))
	}
	ph.wall = end.Sub(start)
	// The benchmark process runs the sweep, so its CPU time counts.
	ph.cpu = selfCPU() - cpu0
	hwm, _, err := procStats(syscall.Getpid())
	if err != nil {
		ph.fail(1, "read peak RSS: %v", err)
	}
	ph.rssMB, ph.rssNote = hwm, "VmHWM of the benchmark process, which runs the sweep"
	return ph
}

// selfCPU is the benchmark process's CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSparse runs sweep-sparse: set-up, the measured phase and, traced,
// the in-process replay. The sweep needs no traced phase: the replay, after
// the measured phase, times every layer it uses.
func runSparse(ctx context.Context, cfg config) (*outcome, error) {
	s, setups, err := setupSparse(cfg.seed)
	if err != nil {
		return nil, err
	}
	ph := s.measure(ctx, cfg.dur)
	out := &outcome{e2e: ph.e2e(setups, "jobs")}
	out.add(ph)
	if !cfg.trace {
		return out, nil
	}
	var jobs []sweep.Job
	for i := 0; i < 6; i += 2 {
		jobs = append(jobs, s.pair(i)...)
	}
	ls, err := replay(ctx, jobs, cfg.dir)
	if err != nil {
		return nil, err
	}
	out.layers = ls.values()
	out.layers["experiments.grid_jobs_ms"] = notApplicable("the sweep builds its own jobs; no named grid")
	markNotApplicable(out.layers, "sweep-sparse runs in-process, with no daemon or client")
	return out, nil
}
