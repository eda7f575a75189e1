package federation

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

// TestReapFailureIsRetriedAndCounted rigs a worker whose DELETE
// endpoint always 500s: when a client cancel abandons the in-flight
// worker job, the reaper must retry with backoff and — once it gives up
// — surface the leak on lggfed_reap_failures_total instead of silently
// dropping it.
func TestReapFailureIsRetriedAndCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	_, workerURL := newWorker(t, func() { time.Sleep(20 * time.Millisecond) })
	target, err := url.Parse(workerURL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var polls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			http.Error(w, `{"error":"no deletes today"}`, http.StatusInternalServerError)
			return
		}
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			polls.Add(1)
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	c, _ := newCoordinator(t, Config{
		Registry:     reg,
		RangeRuns:    4,
		ReapAttempts: 2,
		ReapBackoff:  5 * time.Millisecond,
	}, ts.URL)

	st, created, err := c.Admit(testSpec(8), "")
	if err != nil || !created {
		t.Fatalf("admit: created=%v err=%v", created, err)
	}

	// Cancel only once the coordinator is demonstrably polling the
	// worker-side job — a cancel racing the submit response would find
	// no job handle to reap. The first status poll through the proxy
	// proves the attempt holds one.
	deadline := time.Now().Add(10 * time.Second)
	for polls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never polled the range job")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := c.Cancel(st.ID); !ok {
		t.Fatal("cancel: job vanished")
	}
	final := waitTerminal(t, c, st.ID, 20*time.Second)
	if final.Status != server.StatusCancelled {
		t.Fatalf("job ended %s, want cancelled", final.Status)
	}

	ctr := reg.Counter(MetricReapFailures, "")
	deadline = time.Now().Add(10 * time.Second)
	for ctr.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s stayed 0: the failed reap was never surfaced", MetricReapFailures)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDemotionSendsNoWorkerDelete: a demotion checkpoints its running
// jobs to be resumed by whichever coordinator leads next, so the
// worker-side range jobs must survive it. The worker holds every run
// until the end of the test, so the range job is live throughout; once
// the demoted coordinator's attempts have all returned and its drain
// has waited out every reaper, not one DELETE may have reached the
// worker.
func TestDemotionSendsNoWorkerDelete(t *testing.T) {
	hold := make(chan struct{})
	_, workerURL := newWorker(t, func() { <-hold })
	t.Cleanup(func() { close(hold) }) // before the worker drains
	target, err := url.Parse(workerURL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var polls, deletes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodDelete:
			deletes.Add(1)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			polls.Add(1)
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	var authoritative atomic.Bool
	winner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/coordinator/status" || !authoritative.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(server.CoordStatus{Epoch: 5, Role: server.RolePrimary})
	}))
	t.Cleanup(winner.Close)

	c, _ := newCoordinator(t, Config{
		Rank:          1,
		Watch:         []string{winner.URL},
		Heartbeat:     20 * time.Millisecond,
		FailoverAfter: time.Hour, // stay demoted
		RangeRuns:     4,
	}, ts.URL)
	st, created, err := c.Admit(testSpec(8), "")
	if err != nil || !created {
		t.Fatalf("admit: created=%v err=%v", created, err)
	}
	// A status poll through the proxy proves an attempt holds a worker
	// job that a reaper could cancel.
	waitFor(t, "the coordinator to poll its range job", func() bool { return polls.Load() > 0 })

	authoritative.Store(true)
	waitFor(t, "the demotion", c.Standby)
	waitFor(t, "the job's demotion checkpoint", func() bool {
		jst, _ := c.Job(st.ID)
		return jst.Status == server.StatusQueued
	})
	waitFor(t, "every range attempt to return", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.outstanding) == 0
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if n := deletes.Load(); n != 0 {
		t.Fatalf("demotion sent %d DELETEs to the worker, want 0", n)
	}
}

// waitFor polls cond until it holds, failing the test after 20s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
