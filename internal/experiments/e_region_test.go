package experiments

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
)

// thetaCritical brackets one router's critical load on theta(3,2) with
// E23's frontier search at resolution 1/8, 3 seeds and horizon 1200.
func thetaCritical(mk func(spec *core.Spec, seed uint64) core.Router) [2]float64 {
	cfg := Config{Seed: 1, Horizon: 1200}
	ws := []workload{{"theta(3,2)", thetaSpec(3, 2, 3, 3)}}
	return criticalLoads(cfg, ws, []e23Router{{"r", mk}}, 8, 3)[0]
}

func TestLGGCriticalLoadIsOne(t *testing.T) {
	b := thetaCritical(func(*core.Spec, uint64) core.Router { return core.NewLGG() })
	// Theorem 1: stable through ρ = 1, diverging above. With resolution
	// 1/8 the bracket must straddle 1.
	if b[0] < 1.0-1e-9 {
		t.Fatalf("LGG critical bracket %v: lost stability below 1", b)
	}
	if b[1] > 1.0+0.25 {
		t.Fatalf("LGG critical bracket %v: stable past capacity?!", b)
	}
}

func TestNullRouterCriticalLoadIsZero(t *testing.T) {
	b := thetaCritical(func(*core.Spec, uint64) core.Router { return baseline.Null{} })
	if b[0] != 0 {
		t.Fatalf("null router stable at positive load %v", b[0])
	}
	if b[1] > 0.2 {
		t.Fatalf("null router bracket hi = %v", b[1])
	}
}

func TestSleepyCriticalLoadTracksDutyCycle(t *testing.T) {
	// Half-asleep LGG should lose roughly half its stability region.
	b := thetaCritical(func(_ *core.Spec, seed uint64) core.Router {
		return &baseline.Sleepy{Inner: core.NewLGG(), P: 0.5, Seed: seed}
	})
	if b[1] > 0.95 {
		t.Fatalf("sleepy(0.5) bracket %v: should lose capacity", b)
	}
	if b[0] < 0.2 {
		t.Fatalf("sleepy(0.5) bracket %v: should retain some capacity", b)
	}
}

// TestCutNetworkCriticalLoadIsTop checks the top of E23's axis: a
// network whose source cannot reach its sink has f* = 0, so every load
// injects nothing and each router stays stable through 2, which
// criticalLoads reports as the bracket [2, 2].
func TestCutNetworkCriticalLoadIsTop(t *testing.T) {
	cfg := Config{Seed: 1, Horizon: 1200}
	ws := []workload{{"cut", core.NewSpec(graph.New(2)).SetSource(0, 1).SetSink(1, 1)}}
	routers := []e23Router{
		{"lgg", func(*core.Spec, uint64) core.Router { return core.NewLGG() }},
		{"null", func(*core.Spec, uint64) core.Router { return baseline.Null{} }},
	}
	for i, b := range criticalLoads(cfg, ws, routers, 8, 3) {
		if b != [2]float64{2, 2} {
			t.Errorf("%s on the cut network: bracket %v, want [2, 2]", routers[i].name, b)
		}
	}
}
