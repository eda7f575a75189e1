package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sweep"
)

// unitResolver mirrors the server package's synthetic grid: a "unit"
// grid whose run count is seeds (one line(5) network), so tests size
// jobs precisely; every other name resolves as experiments.FindGrid
// does. perRun, when non-zero, is injected into every unit Build — the
// hook that makes one worker a straggler without changing a single
// result byte.
func unitResolver(perRun func()) server.GridResolver {
	ng := experiments.NamedGrid{
		Name: "unit",
		Desc: "synthetic test grid",
		Jobs: func(cfg experiments.Config) []sweep.Job {
			spec := core.NewSpec(graph.Line(5)).SetSource(0, 1).SetSink(4, 1)
			s := &sweep.Space{
				Name: "unit", BaseSeed: cfg.Seed, Replicas: cfg.Seeds, Horizon: cfg.Horizon,
				Axes: []sweep.Axis{
					{Name: "network", Labels: []string{"line(5)"}},
					{Name: "router", Labels: []string{"lgg"}},
				},
				SeedFn: func(sweep.Point, int) uint64 { return cfg.Seed },
				Build:  func(sweep.Probe) *core.Engine { return core.NewEngine(spec, core.NewLGG()) },
			}
			jobs, err := s.Jobs()
			if err != nil {
				panic(err)
			}
			if perRun != nil {
				for i := range jobs {
					build := jobs[i].Build
					jobs[i].Build = func(seed uint64) *core.Engine {
						perRun()
						return build(seed)
					}
				}
			}
			return jobs
		},
	}
	return func(name string) (experiments.NamedGrid, error) {
		if name == "unit" {
			return ng, nil
		}
		return experiments.FindGrid(name)
	}
}

// newWorker starts one lggd daemon and returns its base URL.
func newWorker(t *testing.T, perRun func()) (*server.Server, string) {
	t.Helper()
	s, err := server.New(server.Config{
		StateDir:     t.TempDir(),
		Jobs:         2,
		SweepWorkers: 2,
		FindGrid:     unitResolver(perRun),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = s.Drain(ctx)
	})
	return s, ts.URL
}

// newCoordinator starts a coordinator over the given worker URLs.
func newCoordinator(t *testing.T, cfg Config, workers ...string) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	cfg.Workers = append(cfg.Workers, workers...)
	if cfg.FindGrid == nil {
		cfg.FindGrid = unitResolver(nil)
	}
	if cfg.Poll == 0 {
		cfg.Poll = 20 * time.Millisecond
	}
	if cfg.Client.MaxAttempts == 0 {
		cfg.Client.MaxAttempts = 2
	}
	if cfg.Client.BaseBackoff == 0 {
		cfg.Client.BaseBackoff = 10 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = c.Drain(ctx)
	})
	return c, ts
}

// waitTerminal polls a front end's job table (a Coordinator's or a
// daemon's plane) until job id is terminal.
func waitTerminal(t *testing.T, c interface {
	Job(string) (server.JobState, bool)
}, id string, timeout time.Duration) server.JobState {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, ok := c.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.Status.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never went terminal within %v", id, timeout)
	return server.JobState{}
}

// singleDaemonJournal runs spec on a standalone daemon and returns the
// raw journal bytes — the byte-identity reference for every federated
// variant.
func singleDaemonJournal(t *testing.T, spec server.JobSpec) []byte {
	t.Helper()
	s, url := newWorker(t, nil)
	cli, err := client.New(client.Config{BaseURL: url})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := cli.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cli.Wait(ctx, st.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st.Status != server.StatusDone {
		t.Fatalf("reference job ended %s: %s", st.Status, st.Error)
	}
	raw, err := os.ReadFile(s.JournalPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func testSpec(seeds int) server.JobSpec {
	return server.JobSpec{Grid: "unit", Seeds: seeds, Horizon: 150}
}

func TestFederatedSweepMatchesSingleDaemonBytes(t *testing.T) {
	spec := testSpec(13) // deliberately not a multiple of RangeRuns
	ref := singleDaemonJournal(t, spec)

	var urls []string
	for i := 0; i < 3; i++ {
		_, url := newWorker(t, nil)
		urls = append(urls, url)
	}
	c, _ := newCoordinator(t, Config{RangeRuns: 4}, urls...)
	st, created, err := c.Admit(spec, "")
	if err != nil || !created {
		t.Fatalf("admit: created=%v err=%v", created, err)
	}
	final := waitTerminal(t, c, st.ID, 60*time.Second)
	if final.Status != server.StatusDone {
		t.Fatalf("federated job ended %s: %s", final.Status, final.Error)
	}
	if final.Done != 13 || final.Total != 13 {
		t.Fatalf("done %d/%d, want 13/13", final.Done, final.Total)
	}
	got, err := os.ReadFile(c.JournalPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("merged journal differs from the single-daemon journal")
	}
}

func TestStragglerRangeIsStolenAndBytesStillMatch(t *testing.T) {
	spec := testSpec(8)
	ref := singleDaemonJournal(t, spec)

	// Worker A stalls indefinitely per run — far past the lease — while
	// worker B is healthy. Every range leased to A must be stolen by B
	// before A finishes anything, and the merged bytes must not care.
	// The stall is released at cleanup (registered after the daemons, so
	// it runs first) to keep teardown instant.
	stall := make(chan struct{})
	slow := func() { <-stall }
	_, slowURL := newWorker(t, slow)
	_, fastURL := newWorker(t, nil)
	reg := metrics.NewRegistry()
	c, _ := newCoordinator(t, Config{
		RangeRuns: 4,
		Lease:     150 * time.Millisecond,
		StealMax:  2,
		Registry:  reg,
	}, slowURL, fastURL)
	t.Cleanup(func() { close(stall) })

	st, _, err := c.Admit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, c, st.ID, 60*time.Second)
	if final.Status != server.StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	got, err := os.ReadFile(c.JournalPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("merged journal with a stolen range differs from the single-daemon bytes")
	}
	if stolen := reg.Counter(MetricRangesStolen, "").Value(); stolen == 0 {
		t.Fatal("no range was stolen despite a wedged worker")
	}
}

func TestRangesRerouteAroundDeadWorker(t *testing.T) {
	spec := testSpec(8)
	ref := singleDaemonJournal(t, spec)

	// One fleet member is a black hole (nothing listens there). Attempts
	// routed to it fail fast and relaunch on the live workers.
	dead := "http://127.0.0.1:1" // reserved port: connection refused
	_, liveURL := newWorker(t, nil)
	c, _ := newCoordinator(t, Config{RangeRuns: 4, Lease: 2 * time.Second}, dead, liveURL)

	st, _, err := c.Admit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, c, st.ID, 60*time.Second)
	if final.Status != server.StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	got, err := os.ReadFile(c.JournalPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("merged journal differs after rerouting around a dead worker")
	}
}

// TestErroringWorkerIsRoutedAround rigs one worker to 500 every job
// submission. The sweep must complete byte-identical to a single-daemon
// run on the healthy worker alone, its failed attempts retried there.
func TestErroringWorkerIsRoutedAround(t *testing.T) {
	spec := testSpec(12)
	ref := singleDaemonJournal(t, spec)

	_, good := newWorker(t, nil)
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/jobs") {
			http.Error(w, `{"error":"disk on fire"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	}))
	t.Cleanup(bad.Close)

	reg := metrics.NewRegistry()
	c, _ := newCoordinator(t, Config{RangeRuns: 2, Registry: reg}, good, bad.URL)

	st, created, err := c.Admit(spec, "")
	if err != nil || !created {
		t.Fatalf("admit: created=%v err=%v", created, err)
	}
	final := waitTerminal(t, c, st.ID, 60*time.Second)
	if final.Status != server.StatusDone {
		t.Fatalf("sweep ended %s with a half-broken fleet: %s", final.Status, final.Error)
	}
	got, err := os.ReadFile(c.JournalPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("merged journal differs from the single-daemon journal")
	}
	if n := reg.Counter(MetricRangesRetried, "").Value(); n == 0 {
		t.Fatal("no range attempt was retried despite an erroring worker")
	}
}

func TestTenantQuotaRefusesWithRetryAfterHTTP(t *testing.T) {
	// A worker that naps per run keeps jobs live long enough for the
	// quota to bite.
	_, url := newWorker(t, func() { time.Sleep(50 * time.Millisecond) })
	_, ts := newCoordinator(t, Config{TenantQuota: 2, Jobs: 1}, url)

	submit := func(tenant string) *http.Response {
		spec := testSpec(4)
		spec.Tenant = tenant
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := submit("acme"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %d", resp.StatusCode)
	}
	if resp := submit("acme"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: %d", resp.StatusCode)
	}
	resp := submit("acme")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3: got %d, want 429 (quota)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota refusal carried no Retry-After")
	}
	// Another tenant is unaffected by acme's quota exhaustion.
	if resp := submit("globex"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant: got %d, want 202", resp.StatusCode)
	}
}

func TestResultsEndpointServesCompactedSummaries(t *testing.T) {
	spec := testSpec(6)
	_, url := newWorker(t, nil)
	c, ts := newCoordinator(t, Config{RangeRuns: 3}, url)
	st, _, err := c.Admit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, c, st.ID, 60*time.Second); final.Status != server.StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/results?job=" + st.ID + "&router=lgg")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cells []CellSummary
	if err := json.NewDecoder(resp.Body).Decode(&cells); err != nil {
		t.Fatal(err)
	}
	// unit grid: one network × one router × one variant = one cell of 6
	// replicas.
	if len(cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(cells))
	}
	if cells[0].Replicas != 6 || cells[0].Job != st.ID || cells[0].Network != "line(5)" {
		t.Fatalf("unexpected summary %+v", cells[0])
	}
	// A filter that matches nothing returns empty, not an error.
	resp2, err := http.Get(ts.URL + "/v1/results?router=nosuch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var none []CellSummary
	if err := json.NewDecoder(resp2.Body).Decode(&none); err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("filter miss returned %d cells", len(none))
	}
}

func TestKeepJournalsEvictsCompactedJournals(t *testing.T) {
	_, url := newWorker(t, nil)
	c, _ := newCoordinator(t, Config{RangeRuns: 4, KeepJournals: 1}, url)
	var ids []string
	for i := 0; i < 2; i++ {
		spec := testSpec(4)
		spec.Seed = uint64(i + 1) // distinct jobs
		st, _, err := c.Admit(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		if final := waitTerminal(t, c, st.ID, 60*time.Second); final.Status != server.StatusDone {
			t.Fatalf("job %d ended %s: %s", i, final.Status, final.Error)
		}
		ids = append(ids, st.ID)
	}
	if _, err := os.Stat(c.JournalPath(ids[0])); !os.IsNotExist(err) {
		t.Fatalf("journal of evicted job %s still on disk (err %v)", ids[0], err)
	}
	if _, err := os.Stat(c.JournalPath(ids[1])); err != nil {
		t.Fatalf("journal of most recent job should be kept: %v", err)
	}
	// Evicted jobs stay queryable through the compacted index.
	if cells := c.rstore.query(ResultFilter{Job: ids[0]}); len(cells) != 1 {
		t.Fatalf("evicted job has %d summaries, want 1", len(cells))
	}
}

func TestFleetJoinValidatesWorker(t *testing.T) {
	_, ts := newCoordinator(t, Config{})
	join := func(url string) *http.Response {
		body, _ := json.Marshal(joinRequest{URL: url})
		resp, err := http.Post(ts.URL+"/v1/fleet/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := join("http://127.0.0.1:1"); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead worker join: got %d, want 502", resp.StatusCode)
	}
	_, url := newWorker(t, nil)
	if resp := join(url); resp.StatusCode != http.StatusOK {
		t.Fatalf("live worker join: got %d, want 200", resp.StatusCode)
	}
	// Re-registration is idempotent.
	if resp := join(url); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-join: got %d, want 200", resp.StatusCode)
	}
	// A join body from an older worker still carries a capacity hint;
	// the decoder ignores it.
	resp, err := http.Post(ts.URL+"/v1/fleet/join", "application/json",
		strings.NewReader(fmt.Sprintf(`{"url":%q,"capacity_runs_per_sec":12.5}`, url)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join with a capacity hint: got %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleet []server.FleetMember
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 1 || fleet[0].URL != url {
		t.Fatalf("fleet %+v, want exactly one member %s", fleet, url)
	}
	if fleet[0].State != stateAlive {
		t.Fatalf("freshly joined worker is %q, want %q", fleet[0].State, stateAlive)
	}
}

func TestAdmitRejectsRangeSpecs(t *testing.T) {
	_, url := newWorker(t, nil)
	c, _ := newCoordinator(t, Config{}, url)
	spec := testSpec(4)
	spec.RunCount = 2
	if _, _, err := c.Admit(spec, ""); err == nil {
		t.Fatal("coordinator accepted a pre-sharded range spec")
	}
}
