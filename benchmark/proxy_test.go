package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		method, path string
		kind         reqKind
		id           string
	}{
		{"POST", "/v1/jobs", kindSubmit, ""},
		{"GET", "/v1/jobs/job-00000007", kindStatus, "job-00000007"},
		{"GET", "/v1/jobs/job-00000007/results", kindResults, "job-00000007"},
		{"GET", "/v1/jobs", kindOther, ""},
		{"DELETE", "/v1/jobs/job-00000007", kindOther, ""},
		{"POST", "/v1/jobs/job-00000007", kindOther, ""},
		{"GET", "/v1/jobs/job-00000007/", kindOther, ""},
		{"GET", "/v1/jobs/job-00000007/results/x", kindOther, ""},
		{"GET", "/v1/jobsx/results", kindOther, ""},
		{"GET", "/healthz", kindOther, ""},
		{"GET", "/metrics", kindOther, ""},
	} {
		kind, id := classify(c.method, c.path)
		if kind != c.kind || id != c.id {
			t.Errorf("%s %s = %v %q, want %v %q", c.method, c.path, kind, id, c.kind, c.id)
		}
	}
}

// TestProxyRecordsRange drives a fake worker through the proxy the way
// the coordinator does: submit, two polls, one fetch.
func TestProxyRecordsRange(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch kind, _ := classify(r.Method, r.URL.Path); kind {
		case kindSubmit:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintln(w, `{"id": "job-00000003", "status": "queued"}`)
		case kindStatus:
			fmt.Fprintln(w, `{"id": "job-00000003", "status": "done"}`)
		case kindResults:
			fmt.Fprintln(w, `{"index": 0}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer worker.Close()
	p, err := startProxy(worker.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()

	do := func(method, path, body string) string {
		req, err := http.NewRequest(method, p.url+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	spec, _ := json.Marshal(map[string]any{"grid": "stability", "seed": 42, "run_start": 8, "run_count": 8})
	if got := do("POST", "/v1/jobs", string(spec)); !strings.Contains(got, "job-00000003") {
		t.Fatalf("submit through the proxy answered %q", got)
	}
	do("GET", "/v1/jobs/job-00000003", "")
	do("GET", "/v1/jobs/job-00000003", "")
	if got := do("GET", "/v1/jobs/job-00000003/results", ""); got != "{\"index\": 0}\n" {
		t.Fatalf("results through the proxy = %q", got)
	}

	// The proxy books a fetch once its handler returns, which can be just
	// after the client has read the body.
	tot := collectProxies([]*proxy{p})
	for deadline := time.Now().Add(5 * time.Second); len(tot.fetchMs) == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		tot = collectProxies([]*proxy{p})
	}
	if tot.posts != 1 || tot.polls != 2 || len(tot.fetchMs) != 1 || len(tot.ranges) != 1 {
		t.Fatalf("proxy saw %d posts, %d polls, %d fetches, %d ranges; want 1, 2, 1, 1",
			tot.posts, tot.polls, len(tot.fetchMs), len(tot.ranges))
	}
	rg := tot.ranges[0]
	if rg.seed != 42 || rg.posted.IsZero() || rg.fetched.Before(rg.posted) {
		t.Fatalf("range record %+v: want seed 42, fetched after posted", rg)
	}
}
