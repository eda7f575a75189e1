package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/federation"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// The serve job: Theorem 1's load sweep (the stability grid) with two
// seeds per cell and 1000 steps per run, 32 runs in all. Closed-loop
// clients each wait for their sweep: two, as many as the box has CPUs.
const (
	serveGrid    = "stability"
	serveSeeds   = 2
	serveHorizon = 1000
	serveRuns    = 32
	serveClients = 2
)

// system is a running set of lggd processes.
type system struct {
	front   *daemon   // the daemon clients submit to
	lggds   []*daemon // every daemon whose CPU and memory count
	coord   *daemon   // the coordinator of a fleet
	proxies []*proxy  // traced fleets only: one per worker
}

// startSystem launches one lggd, or a coordinator with cfg.workers
// workers, with default flags apart from the address, state directory and
// fleet role.
// With traced set, each worker sits behind a timing proxy.
func startSystem(ctx context.Context, cfg config, dir string, traced bool) (sys *system, err error) {
	sys = &system{}
	defer func() {
		if err != nil {
			sys.stop()
		}
	}()
	lggd := func(name string, args ...string) (*daemon, error) {
		args = append([]string{"-addr", "127.0.0.1:0", "-state", filepath.Join(dir, name)}, args...)
		d, err := startDaemon(ctx, cfg.lggd, name, args...)
		if err == nil {
			sys.lggds = append(sys.lggds, d)
		}
		return d, err
	}
	if cfg.workers == 0 {
		sys.front, err = lggd("lggd")
		return sys, err
	}
	var fleet []string
	for i := 1; i <= cfg.workers; i++ {
		w, err := lggd(fmt.Sprintf("worker%d", i))
		if err != nil {
			return sys, err
		}
		url := w.url
		if traced {
			p, err := startProxy(w.url)
			if err != nil {
				return sys, err
			}
			sys.proxies = append(sys.proxies, p)
			url = p.url
		}
		fleet = append(fleet, url)
	}
	sys.coord, err = lggd("coordinator", "-coordinator", "-fleet", strings.Join(fleet, ","))
	sys.front = sys.coord
	return sys, err
}

// stop drains every daemon, the front one first, and closes the proxies.
func (s *system) stop() {
	for i := len(s.lggds) - 1; i >= 0; i-- {
		s.lggds[i].stop()
	}
	for _, p := range s.proxies {
		p.close()
	}
}

// usage sums the daemons' peak RSS and CPU time.
func (s *system) usage() (rssMB float64, cpu time.Duration, err error) {
	for _, d := range s.lggds {
		hwm, c, err := procStats(d.cmd.Process.Pid)
		if err != nil {
			return 0, 0, err
		}
		rssMB += hwm
		cpu += c
	}
	return rssMB, cpu, nil
}

// jobRec is one client job: its timestamps and the bytes streamed.
type jobRec struct {
	num                              int
	spec                             server.JobSpec
	start, submitted, getSent, first time.Time
	done                             time.Time
	raw                              []byte
	err                              error
}

// submitter submits jobs the way lggsweep -remote does and follows each
// results stream to EOF.
type submitter struct {
	front   string
	clients int
	httpc   *http.Client
	cli     *client.Client
	posts   atomic.Int64 // HTTP attempts at POST /v1/jobs
}

// countingTransport counts submit attempts, retries included.
type countingTransport struct {
	base  http.RoundTripper
	posts *atomic.Int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
		t.posts.Add(1)
	}
	return t.base.RoundTrip(r)
}

func newSubmitter(front string, clients int) (*submitter, error) {
	d := &submitter{front: front, clients: clients}
	d.httpc = &http.Client{Transport: countingTransport{
		base:  &http.Transport{MaxIdleConnsPerHost: 2 * clients},
		posts: &d.posts,
	}}
	cli, err := client.New(client.Config{BaseURL: front, HTTP: d.httpc})
	if err != nil {
		return nil, err
	}
	d.cli = cli
	return d, nil
}

func serveSpec(seed uint64) server.JobSpec {
	return server.JobSpec{Grid: serveGrid, Seed: seed, Seeds: serveSeeds, Horizon: serveHorizon}
}

// do runs one job: submit, follow the results stream to EOF, then check
// that the job ended done.
func (d *submitter) do(ctx context.Context, num int, seed uint64) jobRec {
	rec := jobRec{num: num, spec: serveSpec(seed), start: time.Now()}
	st, err := d.cli.Submit(ctx, rec.spec)
	rec.submitted = time.Now()
	if err != nil {
		rec.err = fmt.Errorf("submit refused: %w", err)
		return rec
	}
	rec.getSent = time.Now()
	req, err := http.NewRequestWithContext(ctx, "GET", d.front+"/v1/jobs/"+st.ID+"/results", nil)
	if err != nil {
		rec.err = err
		return rec
	}
	resp, err := d.httpc.Do(req)
	if err != nil {
		rec.err = fmt.Errorf("results: %w", err)
		return rec
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("results: %s", resp.Status)
		return rec
	}
	var buf bytes.Buffer
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		buf.Write(line)
		if rec.first.IsZero() && len(line) > 0 && line[len(line)-1] == '\n' {
			rec.first = time.Now()
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			rec.err = fmt.Errorf("results stream: %w", err)
			return rec
		}
	}
	rec.done = time.Now()
	rec.raw = buf.Bytes()
	final, err := d.cli.Job(ctx, st.ID)
	switch {
	case err != nil:
		rec.err = fmt.Errorf("job state: %w", err)
	case final.Status != server.StatusDone:
		rec.err = fmt.Errorf("job %s ended %s: %s", st.ID, final.Status, final.Error)
	}
	return rec
}

// phase runs d.clients closed-loop clients until dur has passed and
// every job in flight has finished. Job n has seed seedBase+n; numbering
// continues from *next so no two jobs of a run share results.
func (d *submitter) phase(ctx context.Context, dur time.Duration, seedBase uint64, next *atomic.Int64) (recs []jobRec, start, end time.Time) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start = time.Now()
	deadline := start.Add(dur)
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			failures := 0
			// A dead daemon would fail every job at once; stop after a few.
			for failures < 5 && time.Now().Before(deadline) && ctx.Err() == nil {
				num := int(next.Add(1))
				rec := d.do(ctx, num, seedBase+uint64(num))
				if rec.err != nil {
					failures++
				} else {
					failures = 0
				}
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	end = time.Now()
	sort.Slice(recs, func(i, j int) bool { return recs[i].num < recs[j].num })
	return recs, start, end
}

// setupServe starts the system setupRepeats times, each time waiting for
// readiness and one warm-up job, and keeps the last one running.
func setupServe(ctx context.Context, cfg config, next *atomic.Int64) (sys *system, times []float64, err error) {
	for k := 0; k < setupRepeats; k++ {
		if sys != nil {
			sys.stop()
		}
		start := time.Now()
		sys, err = startSystem(ctx, cfg, filepath.Join(cfg.dir, fmt.Sprintf("setup%d", k)), false)
		if err != nil {
			return nil, nil, err
		}
		if err := warmUp(ctx, sys, cfg.seed, next); err != nil {
			sys.stop()
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return sys, times, nil
}

// warmUp runs one checked job on a fresh system.
func warmUp(ctx context.Context, sys *system, seed uint64, next *atomic.Int64) error {
	d, err := newSubmitter(sys.front.url, 1)
	if err != nil {
		return err
	}
	num := int(next.Add(1))
	rec := d.do(ctx, num, seed+warmSeedOffset+uint64(num))
	if rec.err == nil {
		rec.err = checkStream(rec.raw, serveRuns)
	}
	if rec.err != nil {
		return fmt.Errorf("warm-up job: %w (daemon log: %s)", rec.err, sys.front.logTail())
	}
	return nil
}

// servePhase measures one phase on a running system.
func servePhase(ctx context.Context, cfg config, sys *system, next *atomic.Int64) (phase, []jobRec, *submitter) {
	var ph phase
	d, err := newSubmitter(sys.front.url, serveClients)
	if err != nil {
		ph.fail(1, "client: %v", err)
		ph.attempted = 1
		return ph, nil, nil
	}
	_, cpu0, err := sys.usage()
	if err != nil {
		ph.fail(1, "daemon usage: %v", err)
	}
	recs, start, end := d.phase(ctx, cfg.dur, cfg.seed, next)
	rss, cpu1, err := sys.usage()
	if err != nil {
		ph.fail(1, "daemon usage: %v", err)
	}
	ph.wall, ph.cpu = end.Sub(start), cpu1-cpu0
	ph.rssMB = rss
	ph.rssNote = fmt.Sprintf("VmHWM summed over %d lggd processes", len(sys.lggds))
	for i := range recs {
		r := &recs[i]
		ph.attempted++
		if r.err == nil {
			r.err = checkStream(r.raw, serveRuns)
		}
		if r.err != nil {
			ph.fail(1, "job %d: %v", r.num, r.err)
			continue
		}
		ph.runs += serveRuns
		ph.firstMs = append(ph.firstMs, ms(r.first.Sub(r.start)))
		ph.doneMs = append(ph.doneMs, ms(r.done.Sub(r.start)))
	}
	return ph, recs, d
}

// checkDeterminism re-runs a fixed sample of served jobs in-process and
// compares the bytes with what the daemon streamed: jobs 1-4 of the
// phase, every 100th, and the last.
func checkDeterminism(recs []jobRec, ph *phase) {
	var ok []jobRec
	for _, r := range recs {
		if r.err == nil {
			ok = append(ok, r)
		}
	}
	for i, r := range ok {
		if i >= 4 && i%100 != 0 && i != len(ok)-1 {
			continue
		}
		want, err := rerun(r.spec)
		switch {
		case err != nil:
			ph.fail(1, "job %d: in-process re-run: %v", r.num, err)
		case !bytes.Equal(want, r.raw):
			ph.fail(1, "job %d: streamed results differ from an in-process run of the same spec", r.num)
		}
		ph.determinism++
	}
}

// rerun executes spec in-process and returns its JSONL.
func rerun(spec server.JobSpec) ([]byte, error) {
	g, err := experiments.FindGrid(spec.Grid)
	if err != nil {
		return nil, err
	}
	rs, err := (&sweep.Runner{}).Run(g.Jobs(spec.WithDefaults().Config()))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = sweep.WriteJSONL(&buf, rs)
	return buf.Bytes(), err
}

// runServe runs serve-single, serve-fleet or serve-fleet-4.
func runServe(ctx context.Context, cfg config) (*outcome, error) {
	if n := len(experiments.StabilityGrid(serveSpec(1).WithDefaults().Config())); n != serveRuns {
		return nil, fmt.Errorf("the serve job has %d runs, want %d", n, serveRuns)
	}
	var next atomic.Int64
	sys, setups, err := setupServe(ctx, cfg, &next)
	if err != nil {
		return nil, err
	}
	ph, recs, _ := servePhase(ctx, cfg, sys, &next)
	sys.stop()
	checkDeterminism(recs, &ph)
	out := &outcome{e2e: ph.e2e(setups, "jobs")}
	out.add(ph)
	if !cfg.trace {
		return out, nil
	}

	start := time.Now()
	sys, err = startSystem(ctx, cfg, filepath.Join(cfg.dir, "traced"), true)
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	if err := warmUp(ctx, sys, cfg.seed, &next); err != nil {
		return nil, err
	}
	tracedSetup := time.Since(start).Seconds()
	before, err := scrapeAll(ctx, sys)
	if err != nil {
		return nil, err
	}
	traced, trecs, d := servePhase(ctx, cfg, sys, &next)
	after, err := scrapeAll(ctx, sys)
	if err != nil {
		return nil, err
	}
	out.tracedE2E = traced.e2e([]float64{tracedSetup}, "jobs")
	out.add(traced)
	out.layers = serveLayers(cfg, sys, trecs, d, before, after)

	var jobs []sweep.Job
	for _, r := range trecs[:min(2, len(trecs))] {
		g, err := experiments.FindGrid(serveGrid)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, g.Jobs(r.spec.WithDefaults().Config())...)
	}
	ls, err := replay(ctx, jobs, cfg.dir)
	if err != nil {
		return nil, err
	}
	for k, v := range ls.values() {
		out.layers[k] = v
	}
	out.layers["experiments.grid_jobs_ms"] = gridJobsMs(serveSpec(cfg.seed + 1))
	return out, nil
}

// scrapeAll reads every daemon's /metrics, keyed by daemon name.
func scrapeAll(ctx context.Context, sys *system) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	for _, d := range sys.lggds {
		m, err := scrape(ctx, d.url)
		if err != nil {
			return nil, err
		}
		out[d.name] = m
	}
	return out, nil
}

// gridJobsMs times NamedGrid.Jobs for spec, which the daemon repeats for
// every job and each worker for every range.
func gridJobsMs(spec server.JobSpec) value {
	g, err := experiments.FindGrid(spec.Grid)
	if err != nil {
		return notApplicable(err.Error())
	}
	const reps = 20
	var xs []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		_ = g.Jobs(spec.WithDefaults().Config())
		xs = append(xs, ms(time.Since(t)))
	}
	return measured(stats.Median(xs), "median of %d calls for the %d-run serve job", reps, serveRuns)
}

// serveLayers computes the client, server and federation metrics of a
// traced serve phase.
func serveLayers(cfg config, sys *system, recs []jobRec, d *submitter, before, after map[string]map[string]float64) values {
	vs := values{}
	var submitMs, firstLineMs []float64
	seedDone := map[uint64]time.Time{}
	seedSubmitted := map[uint64]time.Time{}
	jobs := 0
	for _, r := range recs {
		submitMs = append(submitMs, ms(r.submitted.Sub(r.start)))
		if r.err != nil {
			continue
		}
		jobs++
		firstLineMs = append(firstLineMs, ms(r.first.Sub(r.getSent)))
		seedDone[r.spec.Seed] = r.done
		seedSubmitted[r.spec.Seed] = r.submitted
	}
	vs["client.submit_ms_p50"] = percentile(submitMs, 0.5).value("submits")
	if d != nil && len(recs) > 0 {
		vs["client.attempts_per_submit"] = measured(float64(d.posts.Load())/float64(len(recs)),
			"%d POST attempts / %d Submit calls", d.posts.Load(), len(recs))
	}
	vs["server.first_line_ms_p50"] = percentile(firstLineMs, 0.5).value("streams")

	delta := func(daemon, metric string) float64 { return after[daemon][metric] - before[daemon][metric] }
	var reqs float64
	var per []string
	for _, dm := range sys.lggds {
		if dm == sys.coord {
			continue // the coordinator has no request counter
		}
		// The closing scrape counts itself.
		n := delta(dm.name, server.MetricHTTPRequests) - 1
		reqs += n
		per = append(per, fmt.Sprintf("%s %.0f", dm.name, n))
	}
	vs["server.http_requests_per_job"] = measured(reqs/float64(jobs), "%.0f requests (%s) / %d jobs", reqs, strings.Join(per, ", "), jobs)
	shedName, shedDaemon := server.MetricShed, sys.front.name
	if cfg.workers > 0 {
		shedName = federation.MetricShed
	}
	shed := delta(shedDaemon, shedName)
	vs["server.shed_share"] = measured(shed/float64(len(recs)), "%.0f shed / %d submissions", shed, len(recs))

	if cfg.workers == 0 {
		for _, m := range perLayer {
			if strings.HasPrefix(m.Name, "federation.") {
				vs[m.Name] = notApplicable("serve-single has no coordinator")
			}
		}
		return vs
	}
	pt := collectProxies(sys.proxies)
	firstPost := map[uint64]time.Time{}
	lastFetch := map[uint64]time.Time{}
	var rangeMs []float64
	for _, rg := range pt.ranges {
		if _, ok := seedDone[rg.seed]; !ok {
			continue // a warm-up job
		}
		if t, ok := firstPost[rg.seed]; !ok || rg.posted.Before(t) {
			firstPost[rg.seed] = rg.posted
		}
		if !rg.fetched.IsZero() {
			rangeMs = append(rangeMs, ms(rg.fetched.Sub(rg.posted)))
			if rg.fetched.After(lastFetch[rg.seed]) {
				lastFetch[rg.seed] = rg.fetched
			}
		}
	}
	var dispatchMs, mergeMs []float64
	for seed, done := range seedDone {
		if t, ok := firstPost[seed]; ok {
			dispatchMs = append(dispatchMs, ms(t.Sub(seedSubmitted[seed])))
		}
		if t, ok := lastFetch[seed]; ok {
			mergeMs = append(mergeMs, ms(done.Sub(t)))
		}
	}
	vs["federation.dispatch_ms_p50"] = percentile(dispatchMs, 0.5).value("jobs")
	vs["federation.range_ms_p50"] = percentile(rangeMs, 0.5).value("ranges")
	vs["federation.polls_per_range"] = measured(float64(pt.polls)/float64(len(pt.ranges)),
		"%d status GETs / %d ranges", pt.polls, len(pt.ranges))
	vs["federation.fetch_ms_p50"] = percentile(pt.fetchMs, 0.5).value("fetches")
	vs["federation.merge_lag_ms_p50"] = percentile(mergeMs, 0.5).value("jobs")
	coord := sys.coord.name
	done := delta(coord, federation.MetricRangesDone)
	stolen := delta(coord, federation.MetricRangesStolen)
	retried := delta(coord, federation.MetricRangesRetried)
	vs["federation.steal_share"] = measured(stolen/done, "%.0f stolen / %.0f ranges done", stolen, done)
	vs["federation.retry_share"] = measured(retried/done, "%.0f retried / %.0f ranges done", retried, done)
	return vs
}
