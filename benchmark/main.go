// Command benchmark measures the repository end to end and, in a
// separate traced run, layer by layer. One invocation runs one workload:
//
//	bash benchmark/run.sh --workload serve-fleet --seed 1 --seconds 40 --trace 0
//
// Workloads (README.md says why each was chosen, what it should and
// should not move, and why BENCHMARK.json gates only the two fleets):
//
//   - sweep-sparse: sweep.Runner in-process, one run at a time, on
//     65,536-node networks whose traffic stays local;
//   - serve-single: one lggd driven over loopback HTTP by two closed-loop
//     clients;
//   - serve-fleet: the same clients against lggd -coordinator with two
//     lggd workers;
//   - serve-fleet-4: serve-fleet with four workers, so each job's ranges
//     all run in one dispatch round.
//
// The daemons are started only through lggd's flags and reached only over
// HTTP. Every output is checked. The report prints each metric with its
// unit and sample count; the last line of standard output is a JSON
// object with correct, attempted, failed and metrics: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// workloads are the workloads the benchmark runs.
var workloads = []string{"sweep-sparse", "serve-single", "serve-fleet", "serve-fleet-4"}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	workers  int // lggd workers behind a coordinator; 0 for one lggd
	lggd     string
	dir      string
}

// phase is one measured stretch of a workload.
type phase struct {
	runs              int // runs completed and checked
	wall              time.Duration
	firstMs, doneMs   []float64 // per job
	attempted, failed int       // runs (sweep-sparse) or jobs (serve)
	cpu               time.Duration
	rssMB             float64
	rssNote           string
	determinism       int // served jobs re-run in-process and compared
	failures          []string
}

// fail records n failures with the reason. A broken measurement counts
// as one.
func (p *phase) fail(n int, format string, args ...any) {
	p.failed += n
	if len(p.failures) < 10 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// e2e computes the end-to-end metrics of the phase.
func (p *phase) e2e(setups []float64, unit string) values {
	runs := float64(p.runs)
	attempted := max(p.attempted, 1)
	return values{
		"runs_per_s":          measured(runs/p.wall.Seconds(), "%d runs in %.3f s", p.runs, p.wall.Seconds()),
		"first_result_ms_p50": percentile(p.firstMs, 0.5).value(unit),
		"first_result_ms_p90": percentile(p.firstMs, 0.9).value(unit),
		"done_ms_p50":         percentile(p.doneMs, 0.5).value(unit),
		"done_ms_p90":         percentile(p.doneMs, 0.9).value(unit),
		"failed_share": measured(float64(p.failed)/float64(attempted),
			"%d failed of %d attempted", p.failed, p.attempted),
		"setup_s":        measured(stats.Median(setups), "median of %d set-ups %s", len(setups), fmtSecs(setups)),
		"peak_rss_mb":    measured(p.rssMB, "%s", p.rssNote),
		"cpu_ms_per_run": measured(ms(p.cpu)/runs, "%.0f ms CPU / %d runs", ms(p.cpu), p.runs),
	}
}

func fmtSecs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// outcome is everything one invocation measured.
type outcome struct {
	e2e, tracedE2E, layers values
	attempted, failed      int
	determinism            int
	failures               []string
}

func (o *outcome) add(p phase) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.determinism += p.determinism
	o.failures = append(o.failures, p.failures...)
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", strings.Join(workloads, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 25, "measured seconds per phase")
	flag.IntVar(&trace, "trace", 0, "1: add the traced phase and replay, and print the per-layer metrics")
	flag.StringVar(&cfg.lggd, "lggd", ".bench_build/bin/lggd", "lggd binary")
	flag.StringVar(&cfg.dir, "workdir", ".bench_build/run", "scratch directory for daemon state and journals")
	flag.Parse()
	cfg.dur = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Every run must end within 180 s; give up well before.
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	dir, err := filepath.Abs(filepath.Join(cfg.dir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid())))
	if err != nil {
		fatal(err)
	}
	cfg.dir = dir
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fatal(err)
	}
	var out *outcome
	switch cfg.workload {
	case "sweep-sparse":
		out, err = runSparse(ctx, cfg)
	case "serve-single":
		out, err = runServe(ctx, cfg)
	case "serve-fleet":
		cfg.workers = 2
		out, err = runServe(ctx, cfg)
	case "serve-fleet-4":
		cfg.workers = 4
		out, err = runServe(ctx, cfg)
	default:
		err = fmt.Errorf("unknown --workload %q (%s)", cfg.workload, strings.Join(workloads, ", "))
	}
	removeAll(cfg.dir)
	if err != nil {
		fatal(err)
	}
	if ctx.Err() != nil {
		fatal(fmt.Errorf("stopped: %w", ctx.Err()))
	}
	if !emit(cfg, out) {
		os.Exit(1)
	}
}

// emit prints the report and the result line, and reports whether every
// check passed.
func emit(cfg config, out *outcome) bool {
	var b strings.Builder
	all := append(append([]metricDef(nil), endToEnd...), reportOnly...)
	fmt.Fprintf(&b, "== %s seed %d, %v per phase ==\n", cfg.workload, cfg.seed, cfg.dur)
	out.e2e.report(&b, cfg.workload, all)
	if cfg.trace && out.tracedE2E == nil {
		fmt.Fprintf(&b, "-- tracing overhead: none; the replay traces every layer after the measured phase --\n")
	}
	if out.tracedE2E != nil {
		fmt.Fprintf(&b, "-- traced phase --\n")
		out.tracedE2E.report(&b, cfg.workload, all)
		fmt.Fprintf(&b, "-- tracing overhead: traced minus untraced --\n")
		for _, d := range all {
			u, t := out.e2e[d.Name], out.tracedE2E[d.Name]
			fmt.Fprintf(&b, "%-18s %-29s %+12.4f %-8s (%.4f - %.4f)\n", cfg.workload, d.Name, t.v-u.v, d.Unit, t.v, u.v)
		}
	}
	if cfg.trace {
		fmt.Fprintf(&b, "-- per layer (traced run) --\n")
		out.layers.report(&b, cfg.workload, perLayer)
	}
	correct := out.failed == 0
	verdict := "PASS"
	if !correct {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "checks: %s, %d failed of %d attempted", verdict, out.failed, out.attempted)
	if out.determinism > 0 {
		fmt.Fprintf(&b, "; %d served jobs re-run in-process and compared byte for byte", out.determinism)
	}
	b.WriteString("\n")
	for _, f := range out.failures {
		fmt.Fprintf(&b, "  failure: %s\n", f)
	}
	fmt.Print(b.String())

	defs := endToEnd
	vs := out.e2e
	if cfg.trace {
		defs, vs = perLayer, out.layers
	}
	metrics, err := vs.jsonMetrics(defs)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	return correct
}

// removeAll deletes a scratch directory, reporting failure on stderr.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: clean %s: %v\n", dir, err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}
