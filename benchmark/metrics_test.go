package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append(append([]metricDef{}, endToEnd...), reportOnly...), perLayer...) {
		if !nameRe.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRe)
		}
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("metric %s has unit %q, which does not match %s", m.Name, m.Unit, unitRe)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if (metricDef{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, perLayer[i])
		}
	}
	if len(doc.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(doc.Workloads))
	}
	for _, w := range doc.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs (%v)", w.Name, workloads)
		}
	}
}

func TestJSONMetricsRejectsMissingAndNonFinite(t *testing.T) {
	defs := []metricDef{{"a", "ms", "lower"}}
	if _, err := (values{}).jsonMetrics(defs); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := (values{"a": {v: math.Inf(1)}}).jsonMetrics(defs); err == nil {
		t.Error("an infinite metric was accepted")
	}
	if _, err := (values{"a": {v: 1.5}}).jsonMetrics(defs); err != nil {
		t.Error(err)
	}
}
