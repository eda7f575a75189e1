package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/interference"
	"repro/internal/loss"
	"repro/internal/rng"
)

// The engine keeps its snapshot and stats current by visiting only the
// nodes whose queues can have changed. These tests drive it through
// adversarial dynamics and, after every step, recompute both densely
// from the full queue vector.

// burstArrivals is a stateful, RNG-driven arrival process that sometimes
// bursts above In. It does not implement SourceOnlyArrivals, so the
// engine takes its dense injection scan.
type burstArrivals struct{ r *rng.Source }

func (burstArrivals) Name() string { return "test-burst" }
func (a burstArrivals) Injections(_ int64, spec *core.Spec, inj []int64) {
	for v := range inj {
		if spec.In[v] == 0 {
			continue
		}
		x := spec.In[v]
		if a.r.Bool(0.2) {
			x += int64(a.r.IntN(3))
		}
		if a.r.Bool(0.1) {
			x = 0
		}
		inj[v] = x
	}
}

// hashLie declares a value that depends only on (t, v, r), sometimes
// outside [0, r] so the engine's clamp is exercised. Being stateless, it
// can be called again to recompute a step's declarations densely.
type hashLie struct{}

func (hashLie) Name() string { return "hash-lie" }
func (hashLie) Declare(t int64, v graph.NodeID, _, r int64) int64 {
	return (t*7+int64(v)*3)%(r+3) - 1
}

// stressSpec is a grid with parallel edges, two sources, two sinks and a
// band of retention nodes across the middle: lying there makes both
// endpoints of an edge claim it, which forces collisions.
func stressSpec(w, h int) *core.Spec {
	g := graph.New(w * h)
	id := func(x, y int) graph.NodeID { return graph.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				g.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	g.AddEdges(id(1, 1), id(2, 1), 2)
	spec := core.NewSpec(g)
	spec.SetSource(id(0, 0), 2)
	spec.SetSource(id(w-1, 0), 1)
	spec.SetSink(id(w-1, h-1), 2)
	spec.SetSink(id(0, h-1), 1)
	for x := 1; x < w-1; x++ {
		spec.SetRetention(id(x, h/2), 2)
	}
	return spec
}

// replayRows is a random schedule that also injects at non-source nodes.
func replayRows(n int, r *rng.Source) [][]int64 {
	rows := make([][]int64, 7)
	for i := range rows {
		rows[i] = make([]int64, n)
		for v := range rows[i] {
			if r.Bool(0.06) {
				rows[i][v] = int64(r.IntN(4))
			}
		}
	}
	return rows
}

// stressEngine builds seed's engine with the given arrival process. The
// remaining plug-ins vary with the seed: Bernoulli loss always, one of
// two lying policies, lazy extraction on even seeds and an interference
// filter on every third.
func stressEngine(seed uint64, process string) *core.Engine {
	spec := stressSpec(8, 6)
	r := rng.New(seed)
	e := core.NewEngine(spec, core.NewLGG())
	switch process {
	case "burst":
		e.Arrivals = burstArrivals{r: r.Split(1)}
	case "replay":
		e.Arrivals = &arrivals.Replay{Steps: replayRows(spec.N(), r.Split(1))}
	case "window":
		e.Arrivals = &adversary.WindowBudget{W: 8, Budget: 14, Mode: adversary.RandomSplit, R: r.Split(1)}
	case "thinned":
		e.Arrivals = &arrivals.Thinned{P: 0.8, R: r.Split(1)}
	}
	e.Loss = &loss.Bernoulli{P: 0.15, R: r.Split(2)}
	e.Declare = core.DeclareZero{}
	if seed%2 == 0 {
		e.Declare = hashLie{}
		e.Extract = core.ExtractMin{}
	}
	if seed%3 == 0 {
		e.Interference = interference.NewGreedy(interference.NodeExclusive)
	}
	return e
}

// denseSnapshot recomputes a step's planning queues and declarations
// from the queues before the step and its injections, the way a full
// copy-and-declare pass over every node would.
func denseSnapshot(e *core.Engine, t int64, pre, injected []int64) (q, declared []int64) {
	spec := e.Spec
	q = make([]int64, len(pre))
	declared = make([]int64, len(pre))
	for v := range pre {
		q[v] = pre[v] + injected[v]
		declared[v] = q[v]
		if r := spec.R[v]; r > 0 && q[v] <= r {
			declared[v] = min(max(e.Declare.Declare(t, graph.NodeID(v), q[v], r), 0), r)
		}
	}
	return q, declared
}

// TestIncrementalMatchesDense runs 60 seeds of each arrival process for
// 120 steps, with a crash that drops two queues, links taken down, and a
// SetQueues mid-run. After every step the stats must equal PotentialSat,
// TotalQueued and MaxQueue of the queue vector, and the snapshot the
// router saw must equal the dense copy-and-declare of the post-injection
// queues.
func TestIncrementalMatchesDense(t *testing.T) {
	const steps = 120
	var collisions, lost, filtered, dropped int64
	for _, process := range []string{"burst", "replay", "window", "thinned"} {
		for seed := uint64(1); seed <= 60; seed++ {
			label := fmt.Sprintf("%s seed=%d", process, seed)
			e := stressEngine(seed, process)
			tr := e.EnableTrace()
			pre := make([]int64, len(e.Q))
			// Registered before the faults, so it runs before the crash
			// observer drops queues at the end of a step.
			e.AddObserver(core.ObserverFunc(func(step int64, sn *core.Snapshot, st *core.StepStats) {
				pot, over := core.PotentialSat(e.Q)
				if st.Potential != pot || st.Overflowed != over ||
					st.Queued != core.TotalQueued(e.Q) || st.MaxQueue != core.MaxQueue(e.Q) {
					t.Fatalf("%s step %d: stats P=%d/%v N=%d max=%d, dense P=%d/%v N=%d max=%d", label, step,
						st.Potential, st.Overflowed, st.Queued, st.MaxQueue,
						pot, over, core.TotalQueued(e.Q), core.MaxQueue(e.Q))
				}
				q, declared := denseSnapshot(e, step, pre, tr.Injected)
				if !slices.Equal(sn.Q, q) {
					t.Fatalf("%s step %d: snapshot queues %v, dense %v", label, step, sn.Q, q)
				}
				if !slices.Equal(sn.Declared, declared) {
					t.Fatalf("%s step %d: declared %v, dense %v", label, step, sn.Declared, declared)
				}
				if sn.Active == nil {
					return
				}
				if !slices.IsSorted(sn.Active) || len(slices.Compact(slices.Clone(sn.Active))) != len(sn.Active) {
					t.Fatalf("%s step %d: active list %v not strictly ascending", label, step, sn.Active)
				}
				for v, x := range sn.Q {
					if _, found := slices.BinarySearch(sn.Active, graph.NodeID(v)); x > 0 && !found {
						t.Fatalf("%s step %d: node %d holds %d packets but is not active", label, step, v, x)
					}
				}
			}))
			crash := int64(30 + seed%20)
			sched := faults.Schedule{Events: []faults.Event{
				{Kind: faults.Crash, From: crash, To: crash + 15, Nodes: []graph.NodeID{18, 25}, Drop: true},
				{Kind: faults.LinkDown, From: 10 + int64(seed%7), To: 60, Edges: []graph.EdgeID{3, 8, 21}},
			}}
			if _, err := faults.Inject(e, sched, rng.New(seed).Split(3)); err != nil {
				t.Fatal(err)
			}
			var prevQueued int64
			for i := 0; i < steps; i++ {
				if i == 80 {
					q := make([]int64, len(e.Q))
					for v := range q {
						q[v] = int64((v * int(seed)) % 4)
					}
					e.SetQueues(q)
				} else if held := core.TotalQueued(e.Q); held < prevQueued {
					dropped += prevQueued - held
				}
				copy(pre, e.Q)
				st := e.Step()
				prevQueued = st.Queued
				collisions += st.Collisions
				lost += st.Lost
				filtered += st.Filtered
			}
		}
	}
	if collisions == 0 || lost == 0 || filtered == 0 || dropped == 0 {
		t.Fatalf("stress dynamics too tame: collisions=%d lost=%d filtered=%d dropped=%d",
			collisions, lost, filtered, dropped)
	}
}

// TestStressStepAllocFree: with losses, lying retention nodes and an
// arrival process that needs the dense injection scan, a warm Step still
// allocates nothing.
func TestStressStepAllocFree(t *testing.T) {
	e := stressEngine(2, "burst")
	for i := 0; i < 200; i++ {
		e.Step()
	}
	if avg := testing.AllocsPerRun(100, func() { e.Step() }); avg != 0 {
		t.Fatalf("Step allocates %.1f times per step in steady state", avg)
	}
}
