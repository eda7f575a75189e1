package packetsim

import (
	"testing"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/interference"
	"repro/internal/loss"
	"repro/internal/rng"
)

// gridSpec is a 3×4 grid with two sources, two sinks and a retention
// node, busy enough that interference, losses and lies all bite.
func gridSpec() *core.Spec {
	return core.NewSpec(graph.Grid(3, 4)).
		SetSource(0, 2).SetSource(4, 1).
		SetSink(11, 2).SetSink(7, 1).
		SetRetention(5, 3)
}

// TestFollowerParityUnderExtensions steps a packet engine and a count
// engine side by side under each core extension. Each extension is
// built twice from the same seed, so both engines see the same draws.
// After every step the packet queues must equal both the side-by-side
// count engine's Q and the embedded one's, and every injected packet
// must be delivered, lost or stored.
func TestFollowerParityUnderExtensions(t *testing.T) {
	// replay injects at non-source nodes too, so the engine must take
	// the dense injection path.
	replay := func() core.ArrivalProcess {
		rows := make([][]int64, 3)
		for i := range rows {
			rows[i] = make([]int64, 12)
		}
		rows[0][0], rows[0][6] = 2, 1
		rows[1][3], rows[1][9] = 1, 2
		rows[2][4] = 3
		return &arrivals.Replay{Steps: rows}
	}
	cases := []struct {
		name  string
		apply func(e *core.Engine)
	}{
		{"flaky-topology", func(e *core.Engine) {
			e.Topology = &dynamic.Flaky{PUp: 0.6, R: rng.New(11)}
		}},
		{"greedy-interference", func(e *core.Engine) {
			e.Interference = interference.NewGreedy(interference.NodeExclusive)
		}},
		{"bernoulli-loss", func(e *core.Engine) {
			e.Loss = &loss.Bernoulli{P: 0.2, R: rng.New(12)}
		}},
		{"lying-declare", func(e *core.Engine) {
			e.Declare = core.DeclareR{}
			e.Extract = core.ExtractMin{}
		}},
		{"replay-arrivals", func(e *core.Engine) {
			e.Arrivals = replay()
		}},
		{"all-at-once", func(e *core.Engine) {
			e.Topology = &dynamic.Flaky{PUp: 0.8, R: rng.New(13)}
			e.Interference = interference.NewGreedy(interference.NodeExclusive)
			e.Loss = &loss.Bernoulli{P: 0.1, R: rng.New(14)}
			e.Declare = core.DeclareZero{}
			e.Arrivals = &arrivals.Thinned{P: 0.9, R: rng.New(15)}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := gridSpec()
			pe := New(spec, core.NewLGG())
			c.apply(pe.Engine)
			ce := core.NewEngine(spec, core.NewLGG())
			c.apply(ce)
			lens := make([]int64, spec.N())
			var moved int64
			for i := 0; i < 400; i++ {
				pe.Step()
				st := ce.Step()
				moved += st.Sent
				pe.QueueLens(lens)
				for v := range lens {
					if lens[v] != ce.Q[v] || lens[v] != pe.Q[v] {
						t.Fatalf("step %d node %d: packet queue %d, count engine %d, embedded %d",
							i, v, lens[v], ce.Q[v], pe.Q[v])
					}
				}
				if pe.Injected != pe.Delivered+pe.Lost+pe.Stored() {
					t.Fatalf("step %d: injected %d != delivered %d + lost %d + stored %d",
						i, pe.Injected, pe.Delivered, pe.Lost, pe.Stored())
				}
			}
			if moved == 0 || pe.Delivered == 0 {
				t.Fatalf("degenerate run: %d sends, %d deliveries", moved, pe.Delivered)
			}
		})
	}
}

// TestSetQueuesPanics pins the one core operation the follower refuses:
// a queue rewrite names no packets to drop or create.
func TestSetQueuesPanics(t *testing.T) {
	pe := New(thetaSpec(), core.NewLGG())
	defer func() {
		if recover() == nil {
			t.Fatal("SetQueues accepted a queue rewrite")
		}
	}()
	pe.SetQueues(make([]int64, pe.Spec.N()))
}
