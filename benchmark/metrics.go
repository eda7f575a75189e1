package main

import (
	"fmt"
	"math"
	"strings"
)

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off, as BENCHMARK.json bounds them.
var endToEnd = []metricDef{
	{"runs_per_s", "runs/s", "higher"},
	{"first_result_ms_p50", "ms", "lower"},
	{"first_result_ms_p90", "ms", "lower"},
	{"done_ms_p50", "ms", "lower"},
	{"done_ms_p90", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// reportOnly are end-to-end metrics the report prints but BENCHMARK.json
// does not bound. cpu_ms_per_run is CPU time, which follows the box's
// drifting clock rate (README.md) by more than any bound allows;
// failed_share is 0 on every passing run, so it has no relative spread,
// and the result line's attempted and failed fields carry it.
var reportOnly = []metricDef{
	{"cpu_ms_per_run", "ms/run", "lower"},
	{"failed_share", "ratio", "lower"},
}

// perLayer are the traced run's metrics, one module each (the prefix).
var perLayer = []metricDef{
	{"core.step_ns", "ns/step", "lower"},
	{"core.self_ns", "ns/step", "lower"},
	{"core.plan_ns", "ns/step", "lower"},
	{"core.active_share", "ratio", "lower"},
	{"core.sends_per_step", "count", "higher"},
	{"core.build_ms", "ms/run", "lower"},
	{"sim.overhead_ns_per_step", "ns", "lower"},
	{"sim.alloc_kb_per_run", "KB", "lower"},
	{"sweep.summarize_us", "us", "lower"},
	{"sweep.journal_append_us", "us", "lower"},
	{"sweep.result_bytes", "B", "lower"},
	{"experiments.grid_jobs_ms", "ms", "lower"},
	{"client.submit_ms_p50", "ms", "lower"},
	{"client.attempts_per_submit", "count", "lower"},
	{"server.first_line_ms_p50", "ms", "lower"},
	{"server.http_requests_per_job", "count", "lower"},
	{"server.shed_share", "ratio", "lower"},
	{"federation.dispatch_ms_p50", "ms", "lower"},
	{"federation.range_ms_p50", "ms", "lower"},
	{"federation.polls_per_range", "count", "lower"},
	{"federation.fetch_ms_p50", "ms", "lower"},
	{"federation.merge_lag_ms_p50", "ms", "lower"},
	{"federation.steal_share", "ratio", "lower"},
	{"federation.retry_share", "ratio", "lower"},
}

// value is one measured metric. note gives its sample count or base; na,
// when set, says why the metric does not apply to the workload (the
// value is then 0); unsupported, when set, says why a percentile breaks
// the sample-count rule.
type value struct {
	v           float64
	note        string
	na          string
	unsupported string
}

func measured(v float64, format string, args ...any) value {
	return value{v: v, note: fmt.Sprintf(format, args...)}
}

func notApplicable(why string) value { return value{na: why} }

// values maps metric name to value.
type values map[string]value

// jsonMetrics renders the defs' values for the result line, failing if
// any is missing, not a finite number, or a percentile that breaks the
// sample-count rule.
func (vs values) jsonMetrics(defs []metricDef) (map[string]any, error) {
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := vs[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v.v)
		}
		if v.unsupported != "" {
			return nil, fmt.Errorf("metric %s is unsupported (%s): measure longer", d.Name, v.unsupported)
		}
		out[d.Name] = map[string]any{"value": v.v, "unit": d.Unit}
	}
	return out, nil
}

// report prints one line per def: name, value, unit, and the sample
// count or the reason it does not apply.
func (vs values) report(w *strings.Builder, workload string, defs []metricDef) {
	for _, d := range defs {
		v := vs[d.Name]
		if v.na != "" {
			fmt.Fprintf(w, "%-18s %-29s %12s %-8s n/a: %s\n", workload, d.Name, "-", d.Unit, v.na)
			continue
		}
		fmt.Fprintf(w, "%-18s %-29s %12.4f %-8s %s\n", workload, d.Name, v.v, d.Unit, v.note)
	}
}
