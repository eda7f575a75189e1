package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"
)

// routes registers the job surface, shared by both front ends:
//
//	POST   /v1/jobs              submit a job (JobSpec body); 202 on
//	                             admission, 200 when an Idempotency-Key
//	                             matches an existing job, 429 + Retry-After
//	                             when the queue or a tenant quota sheds,
//	                             503 + Retry-After while draining or in
//	                             standby
//	GET    /v1/jobs              list all jobs
//	GET    /v1/jobs/{id}         one job's state
//	DELETE /v1/jobs/{id}         cancel (queued: immediate; running:
//	                             mid-sweep; terminal: no-op)
//	GET    /v1/jobs/{id}/results stream the job's results as JSONL,
//	                             following live output until the job is
//	                             terminal
//	GET    /healthz              process liveness (always 200)
//	GET    /readyz               admission readiness (503 while draining
//	                             or in standby)
//	GET    /metrics              Prometheus text metrics
func (p *Plane) routes() {
	p.Handle("POST /v1/jobs", p.handleSubmit)
	p.Handle("GET /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, p.Jobs())
	})
	p.Handle("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := p.Job(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, "no such job")
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})
	p.Handle("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := p.Cancel(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, "no such job")
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})
	p.Handle("GET /v1/jobs/{id}/results", p.handleResults)
	p.Handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	p.Handle("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		switch {
		case p.Draining():
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
		case p.Standby():
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "standby")
		default:
			fmt.Fprintln(w, "ready")
		}
	})
	p.Handle("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := p.cfg.Registry.WriteProm(w); err != nil {
			p.cfg.Logf("%s: metrics write: %v", p.role.Name, err)
		}
	})
}

// Handle adds a route to the plane's HTTP API, counted in its
// http_requests_total like the job routes. A front end registers its
// own routes this way before serving Handler.
func (p *Plane) Handle(pattern string, h http.HandlerFunc) {
	p.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		p.cHTTP.Inc()
		h(w, r)
	})
}

// Handler returns the plane's HTTP API: the job surface plus any routes
// added with Handle.
func (p *Plane) Handler() http.Handler { return p.mux }

// WriteJSON writes v as an indented JSON response with status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes the JSON error body {"error": ...} with status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

func (p *Plane) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			WriteError(w, http.StatusBadRequest, "decode spec: %v", err)
			return
		}
	}
	st, created, err := p.Admit(spec, r.Header.Get("Idempotency-Key"))
	if err != nil {
		var u *Unavailable
		if errors.As(err, &u) {
			w.Header().Set("Retry-After", strconv.Itoa(u.RetryAfter))
			code := http.StatusTooManyRequests
			if u.Draining || u.Standby {
				code = http.StatusServiceUnavailable
			}
			WriteError(w, code, "%s", u.Error())
			return
		}
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	code := http.StatusAccepted
	if !created {
		code = http.StatusOK
	}
	WriteJSON(w, code, st)
}

// handleResults streams a job's sweep journal as JSONL (the header line
// is stripped; each line is one sweep.Result). For a live job the stream
// follows the journal — results appear as runs finish, or as a
// coordinator merges them in global index order — and ends when the job
// reaches a terminal state. The stream also ends, possibly mid-job, if
// the client disconnects or the plane drains.
func (p *Plane) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	p.mu.Lock()
	jb, ok := p.jobs[id]
	p.mu.Unlock()
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	StreamJournal(w, r, p.store.journalPath(id), jb.terminal, jb.doneCh, p.stopc)
}

// lineFramer reassembles whole journal lines from arbitrary read
// chunks. The journal writer appends whole lines, but a follower's
// reads race the writer, so a chunk can end mid-line — a torn tail.
// The framer holds the newline-less fragment in pending and emits the
// line exactly once, when its terminating newline arrives; the journal
// header (first line) is swallowed.
type lineFramer struct {
	pending       []byte
	headerSkipped bool
}

// feed appends chunk and invokes emit once per completed line (newline
// included). It reports whether any line was emitted, so callers know
// when to flush.
func (l *lineFramer) feed(chunk []byte, emit func(line []byte) error) (wrote bool, err error) {
	l.pending = append(l.pending, chunk...)
	for {
		i := bytes.IndexByte(l.pending, '\n')
		if i < 0 {
			return wrote, nil
		}
		line := l.pending[:i+1]
		l.pending = l.pending[i+1:]
		if !l.headerSkipped {
			l.headerSkipped = true
			continue
		}
		if err := emit(line); err != nil {
			return wrote, err
		}
		wrote = true
	}
}

// StreamJournal serves the sweep journal at path as a follow-mode
// application/x-ndjson response: the header line is stripped, each
// remaining line is relayed verbatim as it lands on disk, and the
// stream ends once terminal() reports true and the file is drained.
// done wakes the follower when the job completes (so the final lines
// are relayed without waiting out a poll interval); stop aborts the
// stream mid-job (daemon drain), as does the client disconnecting.
// A missing journal is waited for while the job is live and served as
// an empty complete stream if the job went terminal without producing
// one.
func StreamJournal(w http.ResponseWriter, r *http.Request, path string, terminal func() bool, done, stop <-chan struct{}) {
	f, err := waitForJournal(r, path, terminal, done, stop)
	if err != nil {
		WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if f == nil {
		// Terminal with no journal (e.g. cancelled while queued, or failed
		// before the first run): an empty, complete stream.
		return
	}
	defer f.Close()

	flusher, _ := w.(http.Flusher)
	var framer lineFramer
	chunk := make([]byte, 32*1024)
	for {
		wasTerminal := terminal()
		n, rerr := f.Read(chunk)
		if n > 0 {
			wrote, err := framer.feed(chunk[:n], func(line []byte) error {
				_, werr := w.Write(line)
				return werr
			})
			if err != nil {
				return
			}
			if wrote && flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return
		}
		if rerr != nil || n == 0 {
			// Caught up with the journal. A snapshot taken before the read
			// says whether more could still arrive.
			if wasTerminal {
				return
			}
			select {
			case <-done:
				// Loop once more to drain anything the final flush wrote.
			case <-stop:
				return
			case <-r.Context().Done():
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
	}
}

// waitForJournal opens the journal, waiting for a queued job to start
// writing it. Returns (nil, nil) if the job went terminal without ever
// producing a journal.
func waitForJournal(r *http.Request, path string, terminal func() bool, done, stop <-chan struct{}) (*os.File, error) {
	for {
		f, err := os.Open(path)
		if err == nil {
			return f, nil
		}
		if !os.IsNotExist(err) {
			return nil, err
		}
		if terminal() {
			return nil, nil
		}
		select {
		case <-done:
		case <-stop:
			return nil, errors.New("server draining before the job produced results")
		case <-r.Context().Done():
			return nil, r.Context().Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}
