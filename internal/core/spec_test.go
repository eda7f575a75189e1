package core

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
)

func lineSpec(n int, in, out int64) *Spec {
	s := NewSpec(graph.Line(n))
	s.SetSource(0, in)
	s.SetSink(graph.NodeID(n-1), out)
	return s
}

func TestSpecBuilders(t *testing.T) {
	s := lineSpec(4, 2, 3)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.N() != 4 || s.Delta() != 2 {
		t.Fatalf("n=%d Δ=%d", s.N(), s.Delta())
	}
	if got := s.Sources(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("sources = %v", got)
	}
	if got := s.Sinks(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("sinks = %v", got)
	}
	if s.ArrivalRate() != 2 || s.MaxOut() != 3 || s.MaxRetention() != 0 {
		t.Fatal("rates wrong")
	}
	if s.Terminals() != 2 {
		t.Fatalf("terminals = %d", s.Terminals())
	}
	if !s.IsClassical() {
		t.Fatal("classical spec misreported")
	}
	if !strings.Contains(s.String(), "n=4") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSpecGeneralizedDetection(t *testing.T) {
	s := lineSpec(3, 1, 1)
	s.SetRetention(1, 5)
	if s.IsClassical() {
		t.Fatal("retention should make the spec non-classical")
	}
	s2 := lineSpec(3, 1, 1)
	s2.SetSink(0, 2) // node 0 is both source and sink
	if s2.IsClassical() {
		t.Fatal("dual-role node should make the spec non-classical")
	}
}

func TestSpecValidateErrors(t *testing.T) {
	s := NewSpec(graph.Line(3))
	if err := s.Validate(); err == nil {
		t.Fatal("no sources accepted")
	}
	s.SetSource(0, 1)
	if err := s.Validate(); err == nil {
		t.Fatal("no sinks accepted")
	}
	s.SetSink(2, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.In = s.In[:2]
	if err := s.Validate(); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestSpecSetterPanics(t *testing.T) {
	s := NewSpec(graph.Line(2))
	for i, f := range []func(){
		func() { s.SetSource(0, 0) },
		func() { s.SetSink(1, -1) },
		func() { s.SetRetention(0, -2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestPotentialHelpers(t *testing.T) {
	q := []int64{0, 3, 1, 2}
	if Potential(q) != 14 {
		t.Fatalf("Potential = %d", Potential(q))
	}
	if TotalQueued(q) != 6 {
		t.Fatalf("TotalQueued = %d", TotalQueued(q))
	}
	if MaxQueue(q) != 3 {
		t.Fatalf("MaxQueue = %d", MaxQueue(q))
	}
	if Potential(nil) != 0 || TotalQueued(nil) != 0 || MaxQueue(nil) != 0 {
		t.Fatal("empty helpers nonzero")
	}
}

func TestSpecAnalyze(t *testing.T) {
	a := lineSpec(4, 1, 1).Analyze(flow.NewPushRelabel())
	if a.Feasibility != flow.Saturated {
		t.Fatalf("line(1,1): %v", a.Feasibility)
	}
	a2 := lineSpec(4, 2, 2).Analyze(flow.NewPushRelabel())
	if a2.Feasibility != flow.Infeasible {
		t.Fatalf("line(2,2): %v", a2.Feasibility)
	}
}

func TestSendTo(t *testing.T) {
	g := graph.Line(3)
	s := Send{Edge: 0, From: 0}
	if s.To(g) != 1 {
		t.Fatalf("To = %d", s.To(g))
	}
	s2 := Send{Edge: 0, From: 1}
	if s2.To(g) != 0 {
		t.Fatalf("To = %d", s2.To(g))
	}
}

func TestSnapshotEdgeAlive(t *testing.T) {
	sn := &Snapshot{}
	if !sn.EdgeAlive(0) {
		t.Fatal("nil Alive should mean alive")
	}
	sn.Alive = []bool{false, true}
	if sn.EdgeAlive(0) || !sn.EdgeAlive(1) {
		t.Fatal("alive mask ignored")
	}
}

// TestSourcesCacheSharedAcrossEngines: engines running concurrently on
// one spec fill and read its cached source list at once (run under
// -race), and SetSource invalidates the cache.
func TestSourcesCacheSharedAcrossEngines(t *testing.T) {
	spec := NewSpec(graph.Line(64)).SetSource(0, 1).SetSource(5, 2).SetSink(40, 3)
	var wg sync.WaitGroup
	totals := make([]Totals, 8)
	for i := range totals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			totals[i] = NewEngine(spec, NewLGG()).Run(200)
		}()
	}
	wg.Wait()
	for i, tot := range totals {
		if tot != totals[0] || tot.Injected != 3*200 {
			t.Fatalf("engine %d: totals %+v, engine 0: %+v", i, tot, totals[0])
		}
	}
	spec.SetSource(9, 1)
	if got := spec.Sources(); !slices.Equal(got, []graph.NodeID{0, 5, 9}) {
		t.Fatalf("Sources after SetSource = %v, want [0 5 9]", got)
	}
}
