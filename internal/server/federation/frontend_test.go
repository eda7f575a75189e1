package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// frontEnd opens one lggd front end on a state directory and returns its
// HTTP API and its drain.
type frontEnd func(t *testing.T, dir string) (http.Handler, func(context.Context) error)

// TestFrontEndsBehaveAlike drives a single daemon and a coordinator over
// two workers through the same HTTP script. Both are the job plane with
// a different executor, so every status code, header and result byte
// must agree.
func TestFrontEndsBehaveAlike(t *testing.T) {
	_, w1 := newWorker(t, nil)
	_, w2 := newWorker(t, nil)
	var ref [][]byte // the daemon's result streams, for the coordinator to match
	for _, fe := range []struct {
		name string
		open frontEnd
	}{
		{"daemon", func(t *testing.T, dir string) (http.Handler, func(context.Context) error) {
			s, err := server.New(server.Config{
				StateDir: dir, Jobs: 1, QueueDepth: 1, SweepWorkers: 2, FindGrid: unitResolver(nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			return s.Handler(), s.Drain
		}},
		{"coordinator", func(t *testing.T, dir string) (http.Handler, func(context.Context) error) {
			c, err := New(Config{
				StateDir: dir, Jobs: 1, QueueDepth: 1, RangeRuns: 2,
				Workers:  []string{w1, w2},
				FindGrid: unitResolver(nil),
				Poll:     20 * time.Millisecond,
				Client:   client.Config{MaxAttempts: 2, BaseBackoff: 10 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			return c.Handler(), c.Drain
		}},
	} {
		t.Run(fe.name, func(t *testing.T) {
			results := frontEndScript(t, fe.open)
			if ref == nil {
				ref = results
				return
			}
			for i, name := range []string{"served", "resumed"} {
				if !bytes.Equal(results[i], ref[i]) {
					t.Errorf("%s job's results stream differs from the daemon's:\n%s\n--- daemon\n%s", name, results[i], ref[i])
				}
			}
		})
	}
}

// frontEndScript runs the shared script against one front end and
// returns the results streams of a job served start to finish and of a
// job resumed after a drain and restart.
func frontEndScript(t *testing.T, open frontEnd) [][]byte {
	dir := filepath.Join(t.TempDir(), "state") // created by the front end
	h, drain := open(t, dir)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = drain(expired()) })

	call := func(base, method, path, body, key string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}
	submit := func(base, body, key string, want int) (*http.Response, server.JobState) {
		t.Helper()
		resp, raw := call(base, "POST", "/v1/jobs", body, key)
		if resp.StatusCode != want {
			t.Fatalf("submit %s: got %d, want %d: %s", body, resp.StatusCode, want, raw)
		}
		var st server.JobState
		_ = json.Unmarshal(raw, &st)
		return resp, st
	}
	job := func(base, id string) server.JobState {
		t.Helper()
		_, raw := call(base, "GET", "/v1/jobs/"+id, "", "")
		var st server.JobState
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("job %s: %v: %s", id, err, raw)
		}
		return st
	}
	until := func(base, id, what string, cond func(server.JobState) bool) server.JobState {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			st := job(base, id)
			if cond(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never %s: %+v", id, what, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	retryAfter := func(resp *http.Response) {
		t.Helper()
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
		}
	}
	const (
		endless = `{"grid":"unit","seeds":1,"horizon":1099511627776}`
		small   = `{"grid":"unit","seeds":2,"horizon":150}`
		served  = `{"grid":"unit","seeds":6,"horizon":150}`
		long    = `{"grid":"unit","seeds":6,"horizon":400000}`
	)

	// One executor, busy with an endless job; the queue holds one more.
	_, blocker := submit(ts.URL, endless, "", http.StatusAccepted)
	until(ts.URL, blocker.ID, "ran", func(st server.JobState) bool { return st.Status == server.StatusRunning })
	_, queued := submit(ts.URL, small, "k", http.StatusAccepted)
	if _, dup := submit(ts.URL, small, "k", http.StatusOK); dup.ID != queued.ID {
		t.Fatalf("repeated Idempotency-Key answered job %s, want %s", dup.ID, queued.ID)
	}
	resp, _ := submit(ts.URL, small, "", http.StatusTooManyRequests)
	retryAfter(resp)

	if resp, raw := call(ts.URL, "DELETE", "/v1/jobs/"+queued.ID, "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued job: got %d: %s", resp.StatusCode, raw)
	}
	if st := job(ts.URL, queued.ID); st.Status != server.StatusCancelled {
		t.Fatalf("queued job after DELETE: %+v, want cancelled", st)
	}

	// The cancel freed the queue slot; ending the blocker lets the job run,
	// and its followed results stream ends when it is done.
	_, sv := submit(ts.URL, served, "", http.StatusAccepted)
	call(ts.URL, "DELETE", "/v1/jobs/"+blocker.ID, "", "")
	_, servedBytes := call(ts.URL, "GET", "/v1/jobs/"+sv.ID+"/results", "", "")
	if st := job(ts.URL, sv.ID); st.Status != server.StatusDone || st.Done != 6 {
		t.Fatalf("served job after its stream ended: %+v", st)
	}

	// Drain with a job mid-flight: admission closes and the job is
	// checkpointed.
	_, lg := submit(ts.URL, long, "", http.StatusAccepted)
	until(ts.URL, lg.ID, "got in flight", func(st server.JobState) bool {
		if st.Status.Terminal() {
			t.Fatalf("job finished before the drain could interrupt it: %+v — grow its horizon", st)
		}
		return st.Done >= 1
	})
	if err := drain(expired()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if resp, _ := call(ts.URL, "GET", "/readyz", "", ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: got %d, want 503", resp.StatusCode)
	}
	resp, _ = submit(ts.URL, small, "", http.StatusServiceUnavailable)
	retryAfter(resp)
	if st := job(ts.URL, lg.ID); st.Status != server.StatusQueued || st.Done >= 6 {
		t.Fatalf("drained job: %+v, want a queued checkpoint", st)
	}

	// A restart from the same state directory resumes it.
	h2, drain2 := open(t, dir)
	ts2 := httptest.NewServer(h2)
	t.Cleanup(ts2.Close)
	t.Cleanup(func() { _ = drain2(expired()) })
	fin := until(ts2.URL, lg.ID, "finished", func(st server.JobState) bool { return st.Status.Terminal() })
	if fin.Status != server.StatusDone || fin.Done != 6 || fin.Total != 6 {
		t.Fatalf("resumed job: %+v", fin)
	}
	_, resumedBytes := call(ts2.URL, "GET", "/v1/jobs/"+lg.ID+"/results", "", "")
	return [][]byte{servedBytes, resumedBytes}
}

// expired returns an already-cancelled context: a drain with it
// checkpoints in-flight jobs at once.
func expired() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}
