// Command lggsim runs a single S-D-network simulation and reports the
// stability verdict, run statistics and (optionally) the P_t time series
// as CSV, live per-step JSONL events, and a Prometheus-style metrics
// scrape.
//
// Examples:
//
//	lggsim -topo theta -paths 3 -len 2 -in 2 -out 3 -horizon 5000
//	lggsim -topo grid -rows 4 -cols 6 -in 1 -out 3 -router shortest -load 0.9
//	lggsim -topo random -n 20 -m 40 -loss 0.1 -series series.csv
//	lggsim -topo line -n 8 -metrics - -events steps.jsonl -eventstride 100
//	lggsim -topo line -n 1000000 -horizon 1000
//	lggsim -topo theta -faults 'burst@500-1500:pg=0.05,pb=0.7,gb=0.1,bg=0.3'
//	lggsim -topo grid -faults @schedule.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/arrivals"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/interference"
	"repro/internal/loss"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/viz"
)

func main() {
	var (
		topo        = flag.String("topo", "theta", "topology: theta|line|grid|random|barbell")
		paths       = flag.Int("paths", 3, "theta: number of disjoint paths")
		length      = flag.Int("len", 2, "theta: path length (edges)")
		n           = flag.Int("n", 12, "line/random: node count")
		m           = flag.Int("m", 24, "random: edge count")
		rows        = flag.Int("rows", 4, "grid: rows")
		cols        = flag.Int("cols", 6, "grid: cols")
		srcRows     = flag.Int("srcrows", 2, "grid: rows carrying a source")
		k           = flag.Int("k", 3, "barbell: clique size")
		bridge      = flag.Int("bridge", 2, "barbell: bridge length")
		in          = flag.Int64("in", 2, "per-source injection capacity in(s)")
		out         = flag.Int64("out", 3, "per-sink extraction capacity out(d)")
		router      = flag.String("router", "lgg", "router: lgg|flow|gradient|shortest|random|null")
		horizon     = flag.Int64("horizon", 5000, "steps to simulate")
		seed        = flag.Uint64("seed", 1, "root seed")
		lossP       = flag.Float64("loss", 0, "Bernoulli loss probability")
		thin        = flag.Float64("thin", 1, "arrival thinning probability (1 = exact)")
		loadN       = flag.Int64("loadnum", 0, "scale arrivals by loadnum/loadden (0 = off)")
		loadD       = flag.Int64("loadden", 1, "load denominator")
		retain      = flag.Int64("retention", 0, "retention constant R on all terminals")
		declare     = flag.String("declare", "truth", "declaration policy: truth|zero|max")
		interf      = flag.String("interference", "", "interference: ''|greedy|oracle (node-exclusive)")
		faultsArg   = flag.String("faults", "", "fault schedule: 'kind@from-to:params;…' text, JSON, or @file")
		series      = flag.String("series", "", "write t,P,N,maxQ CSV to this file")
		show        = flag.Bool("viz", false, "render backlog sparkline and final queue state")
		metricsPath = flag.String("metrics", "", "write Prometheus text metrics after the run (- = stdout)")
		eventsPath  = flag.String("events", "", "stream per-step JSONL events to this file (- = stdout)")
		eventStride = flag.Int64("eventstride", 1, "emit only every Nth step event")
	)
	flag.Parse()

	spec, err := buildSpec(*topo, *paths, *length, *n, *m, *rows, *cols, *srcRows, *k, *bridge, *in, *out, *seed)
	if err != nil {
		fatal(err)
	}
	if *retain > 0 {
		for v := range spec.R {
			if spec.In[v] > 0 || spec.Out[v] > 0 {
				spec.R[v] = *retain
			}
		}
	}

	a := spec.Analyze(flow.NewPushRelabel())
	fmt.Printf("network:     %s\n", spec)
	fmt.Printf("class:       %v (rate=%d, maxflow=%d, f*=%d)\n",
		a.Feasibility, a.ArrivalRate, a.MaxFlow.Value, a.FStar)

	rt, err := buildRouter(*router, spec, *seed)
	if err != nil {
		fatal(err)
	}
	e := core.NewEngine(spec, rt)
	if *lossP > 0 {
		e.Loss = &loss.Bernoulli{P: *lossP, R: rng.New(*seed).Split(1)}
	}
	if *thin < 1 {
		e.Arrivals = &arrivals.Thinned{P: *thin, R: rng.New(*seed).Split(2)}
	}
	if *loadN > 0 {
		e.Arrivals = &arrivals.Scaled{Inner: e.Arrivals, Num: *loadN, Den: *loadD}
	}
	switch *declare {
	case "truth":
	case "zero":
		e.Declare = core.DeclareZero{}
	case "max":
		e.Declare = core.DeclareR{}
	default:
		fatal(fmt.Errorf("unknown declaration policy %q", *declare))
	}
	switch *interf {
	case "":
	case "greedy":
		e.Interference = interference.NewGreedy(interference.NodeExclusive)
	case "oracle":
		e.Interference = interference.NewOracle(interference.NodeExclusive)
	default:
		fatal(fmt.Errorf("unknown interference scheduler %q", *interf))
	}

	// Fault injection: compile the schedule against the spec's graph and
	// hang it off the engine's hooks, plus a recovery observer for the
	// post-fault verdict.
	var recObs *faults.RecoveryObserver
	if *faultsArg != "" {
		sched, err := faults.Load(*faultsArg)
		if err != nil {
			fatal(err)
		}
		if _, err := faults.Inject(e, sched, rng.New(*seed).Split(0xFA)); err != nil {
			fatal(err)
		}
		recObs = faults.NewRecoveryObserver(sched)
		e.AddObserver(recObs)
		fmt.Printf("faults:      %s\n", faults.FormatText(sched))
	}

	// Observability: registry-backed metrics and/or a live event stream
	// hang off the engine's step-observer hook.
	var reg *metrics.Registry
	if *metricsPath != "" {
		reg = metrics.NewRegistry()
		e.AddObserver(metrics.NewStepMetrics(reg))
		e.AddObserver(metrics.NewDriftObserver(reg))
	}
	var ew *metrics.EventWriter
	var eventsClose func() error
	if *eventsPath != "" {
		w, closeFn, err := openOut(*eventsPath)
		if err != nil {
			fatal(err)
		}
		eventsClose = closeFn
		ew = metrics.NewEventWriter(w)
		if *eventStride > 1 {
			ew.Stride = *eventStride
		}
		e.AddObserver(ew)
	}

	res := sim.Run(e, sim.Options{Horizon: *horizon})
	if ew != nil {
		if err := ew.Flush(); err != nil {
			fatal(err)
		}
		if err := eventsClose(); err != nil {
			fatal(err)
		}
	}
	tt := res.Totals
	fmt.Printf("router:      %s\n", rt.Name())
	fmt.Printf("steps:       %d\n", tt.Steps)
	fmt.Printf("injected:    %d\n", tt.Injected)
	fmt.Printf("delivered:   %d (%.1f%%)\n", tt.Extracted, pct(tt.Extracted, tt.Injected))
	fmt.Printf("lost:        %d\n", tt.Lost)
	fmt.Printf("stored:      %d (peak %d)\n", tt.FinalQueued, tt.PeakQueued)
	fmt.Printf("peak P_t:    %d\n", tt.PeakPotential)
	fmt.Printf("verdict:     %v (slope %.4f, rel-growth %.4f)\n",
		res.Diagnosis.Verdict, res.Diagnosis.Slope, res.Diagnosis.RelGrowth)
	if recObs != nil {
		rec := recObs.Report()
		fmt.Printf("recovery:    %v (time-to-drain %d, fault peak P %d, fault peak N %d)\n",
			rec.Verdict, rec.TimeToDrain, rec.PeakPotential, rec.PeakBacklog)
		if reg != nil {
			recObs.Record(reg)
		}
	}

	if *show {
		fmt.Printf("backlog N_t: |%s|\n", viz.Sparkline(viz.Downsample(res.Series.Queued, 72)))
		fmt.Printf("state P_t:   |%s|\n", viz.Sparkline(viz.Downsample(res.Series.Potential, 72)))
		if *topo == "grid" {
			fmt.Printf("final queues:\n%s", viz.GridHeat(e.Q, *rows, *cols))
		} else {
			fmt.Printf("final queues:\n%s", viz.QueueBars(e.Q))
		}
	}

	if *series != "" {
		f, err := os.Create(*series)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		fmt.Fprintln(f, "t,potential,queued,maxq")
		for i := range res.Series.Potential {
			fmt.Fprintf(f, "%d,%.0f,%.0f,%.0f\n", int64(i)*res.Series.Stride,
				res.Series.Potential[i], res.Series.Queued[i], res.Series.MaxQ[i])
		}
		fmt.Printf("series:      %s (%d samples)\n", *series, len(res.Series.Potential))
	}

	if reg != nil {
		w, closeFn, err := openOut(*metricsPath)
		if err != nil {
			fatal(err)
		}
		if err := reg.WriteProm(w); err != nil {
			fatal(err)
		}
		if err := closeFn(); err != nil {
			fatal(err)
		}
	}
}

// openOut resolves "-" to stdout (with a no-op closer) and anything else
// to a created file.
func openOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func buildSpec(topo string, paths, length, n, m, rows, cols, srcRows, k, bridge int, in, out int64, seed uint64) (*core.Spec, error) {
	switch topo {
	case "theta":
		g := graph.ThetaGraph(paths, length)
		return core.NewSpec(g).SetSource(0, in).SetSink(1, out), nil
	case "line":
		g := graph.Line(n)
		return core.NewSpec(g).SetSource(0, in).SetSink(graph.NodeID(n-1), out), nil
	case "grid":
		g := graph.Grid(rows, cols)
		s := core.NewSpec(g)
		for r := 0; r < srcRows && r < rows; r++ {
			s.SetSource(graph.NodeID(r*cols), in)
		}
		for r := 0; r < rows; r++ {
			s.SetSink(graph.NodeID(r*cols+cols-1), out)
		}
		return s, nil
	case "random":
		g := graph.RandomMultigraph(n, m, rng.New(seed))
		return core.NewSpec(g).SetSource(0, in).SetSink(graph.NodeID(n-1), out), nil
	case "barbell":
		g := graph.Barbell(k, bridge)
		return core.NewSpec(g).SetSource(0, in).SetSink(graph.NodeID(g.NumNodes()-1), out), nil
	}
	return nil, fmt.Errorf("unknown topology %q", topo)
}

func buildRouter(name string, spec *core.Spec, seed uint64) (core.Router, error) {
	switch name {
	case "lgg":
		return core.NewLGG(), nil
	case "flow":
		return baseline.NewFlowRouter(spec, flow.NewPushRelabel())
	case "gradient":
		return baseline.NewFullGradient(), nil
	case "shortest":
		return baseline.NewShortestPath(spec), nil
	case "random":
		return baseline.NewRandomForward(rng.New(seed).Split(9)), nil
	case "null":
		return baseline.Null{}, nil
	}
	return nil, fmt.Errorf("unknown router %q", name)
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lggsim: %v\n", err)
	os.Exit(1)
}
