package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// reqKind classifies the coordinator's traffic to a worker.
type reqKind int

const (
	kindOther   reqKind = iota
	kindSubmit          // POST /v1/jobs: a range submit
	kindStatus          // GET /v1/jobs/{id}: a status poll
	kindResults         // GET /v1/jobs/{id}/results: a results fetch
)

func (k reqKind) String() string {
	return [...]string{"other", "submit", "status", "results"}[k]
}

// classify names a worker request and the worker job id it concerns.
func classify(method, path string) (reqKind, string) {
	rest, ok := strings.CutPrefix(path, "/v1/jobs")
	if !ok {
		return kindOther, ""
	}
	switch {
	case rest == "" || rest == "/":
		if method == http.MethodPost {
			return kindSubmit, ""
		}
	case method == http.MethodGet && rest[0] == '/':
		id, tail, _ := strings.Cut(rest[1:], "/")
		switch {
		case id == "":
		case tail == "" && !strings.HasSuffix(rest, "/"):
			return kindStatus, id
		case tail == "results":
			return kindResults, id
		}
	}
	return kindOther, ""
}

// rangeRec is one range job as seen at a worker's proxy.
type rangeRec struct {
	seed    uint64 // the client job's seed, unique per job
	posted  time.Time
	fetched time.Time // when its results GET finished; zero until then
}

// proxy is a timing reverse proxy in front of one worker; the
// coordinator's -fleet lists the proxy instead of the worker.
type proxy struct {
	url string
	rp  *httputil.ReverseProxy
	srv *http.Server
	ln  net.Listener

	mu      sync.Mutex
	ranges  map[string]*rangeRec // by worker job id
	posts   int
	polls   int
	fetchMs []float64
}

func startProxy(target string) (*proxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.FlushInterval = -1
	rp.Transport = &http.Transport{MaxIdleConnsPerHost: 16}
	p := &proxy{url: "http://" + ln.Addr().String(), rp: rp, ln: ln, ranges: map[string]*rangeRec{}}
	p.srv = &http.Server{Handler: p}
	go func() { _ = p.srv.Serve(ln) }()
	return p, nil
}

func (p *proxy) close() { _ = p.srv.Close() }

// captureWriter keeps a copy of a small response body.
type captureWriter struct {
	http.ResponseWriter
	code int
	buf  bytes.Buffer
}

func (c *captureWriter) WriteHeader(code int) {
	c.code = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.buf.Write(b)
	return c.ResponseWriter.Write(b)
}

func (c *captureWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

func (p *proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	kind, id := classify(r.Method, r.URL.Path)
	start := time.Now()
	switch kind {
	case kindSubmit:
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var spec server.JobSpec
		_ = json.Unmarshal(body, &spec) // the worker reports a bad spec itself
		cw := &captureWriter{ResponseWriter: w, code: http.StatusOK}
		p.rp.ServeHTTP(cw, r)
		var st server.JobState
		if cw.code < 300 && json.Unmarshal(cw.buf.Bytes(), &st) == nil && st.ID != "" {
			p.mu.Lock()
			p.posts++
			if _, seen := p.ranges[st.ID]; !seen {
				p.ranges[st.ID] = &rangeRec{seed: spec.Seed, posted: start}
			}
			p.mu.Unlock()
		}
		return
	case kindStatus:
		p.mu.Lock()
		p.polls++
		p.mu.Unlock()
	}
	p.rp.ServeHTTP(w, r)
	if kind == kindResults {
		end := time.Now()
		p.mu.Lock()
		p.fetchMs = append(p.fetchMs, ms(end.Sub(start)))
		if rg := p.ranges[id]; rg != nil && rg.fetched.IsZero() {
			rg.fetched = end
		}
		p.mu.Unlock()
	}
}

// proxyTotals merges what a fleet's proxies saw.
type proxyTotals struct {
	ranges  []rangeRec
	posts   int
	polls   int
	fetchMs []float64
}

func collectProxies(ps []*proxy) proxyTotals {
	var t proxyTotals
	for _, p := range ps {
		p.mu.Lock()
		for _, rg := range p.ranges {
			t.ranges = append(t.ranges, *rg)
		}
		t.posts += p.posts
		t.polls += p.polls
		t.fetchMs = append(t.fetchMs, p.fetchMs...)
		p.mu.Unlock()
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
