package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// lineWriter is a ResponseWriter whose Write calls (one per emitted
// journal line) land on a channel, so a test observes exactly what the
// stream relays and when.
type lineWriter struct {
	header http.Header
	lines  chan string
}

func newLineWriter() *lineWriter {
	return &lineWriter{header: make(http.Header), lines: make(chan string, 64)}
}

func (w *lineWriter) Header() http.Header { return w.header }
func (w *lineWriter) WriteHeader(int)     {}
func (w *lineWriter) Write(p []byte) (int, error) {
	w.lines <- string(p)
	return len(p), nil
}

// expectLine waits for the next relayed line.
func expectLine(t *testing.T, w *lineWriter, want string) {
	t.Helper()
	select {
	case got := <-w.lines:
		if got != want {
			t.Fatalf("streamed line %q, want %q", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("stream never relayed %q", want)
	}
}

// expectQuiet asserts nothing is relayed for the given window.
func expectQuiet(t *testing.T, w *lineWriter, d time.Duration) {
	t.Helper()
	select {
	case got := <-w.lines:
		t.Fatalf("stream relayed %q while the tail was still torn", got)
	case <-time.After(d):
	}
}

// TestStreamJournalHoldsTornTailUntilCompleted is the follow-mode race
// the journal's whole-line append discipline does not protect against:
// the follower's read can land between the writer's two halves of a
// line (or mid-write at the OS level), leaving a torn, newline-less
// tail. The stream must hold the fragment in its pending buffer —
// relaying nothing — and emit the completed line exactly once after the
// terminating newline arrives.
func TestStreamJournalHoldsTornTailUntilCompleted(t *testing.T) {
	const (
		header = "{\"journal\":\"v1\",\"jobs\":2}\n"
		line0  = "{\"index\":0,\"delivered\":7}\n"
		line1  = "{\"index\":1,\"delivered\":9}\n"
	)
	path := filepath.Join(t.TempDir(), "job.jsonl")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// The writer has finished run 0 and is midway through appending run
	// 1 when the follower attaches: the journal ends in a torn tail.
	torn := len(line1) / 2
	if _, err := f.WriteString(header + line0 + line1[:torn]); err != nil {
		t.Fatal(err)
	}

	var terminal atomic.Bool
	done := make(chan struct{})
	stop := make(chan struct{})
	w := newLineWriter()
	req := httptest.NewRequest("GET", "/v1/jobs/job-00000000/results", nil)
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		StreamJournal(w, req, path, terminal.Load, done, stop)
	}()

	// The complete line is relayed (header stripped); the torn tail is
	// held, not leaked, across several poll intervals.
	expectLine(t, w, line0)
	expectQuiet(t, w, 200*time.Millisecond)

	// The writer finishes the line and the job completes.
	if _, err := f.WriteString(line1[torn:]); err != nil {
		t.Fatal(err)
	}
	terminal.Store(true)
	close(done)

	// The held line arrives exactly once, whole, and the stream ends.
	expectLine(t, w, line1)
	select {
	case <-streamed:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after the job went terminal")
	}
	select {
	case got := <-w.lines:
		t.Fatalf("stream relayed extra line %q after completion", got)
	default:
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
}

// twoLineJournal is a journal header followed by two result lines.
const twoLineJournal = "{\"journal\":\"v1\",\"jobs\":2}\n{\"index\":0}\n{\"index\":1}\n"

// TestLineFramerEmitsOncePerLineAcrossChunkBoundaries drives the framer
// with every possible split point of a two-line journal and asserts the
// reassembled emission is identical regardless of where reads tore the
// stream.
func TestLineFramerEmitsOncePerLineAcrossChunkBoundaries(t *testing.T) {
	full := twoLineJournal
	for split := 0; split <= len(full); split++ {
		var fr lineFramer
		var got []string
		emit := func(line []byte) error {
			got = append(got, string(line))
			return nil
		}
		if _, err := fr.feed([]byte(full[:split]), emit); err != nil {
			t.Fatal(err)
		}
		if _, err := fr.feed([]byte(full[split:]), emit); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != "{\"index\":0}\n" || got[1] != "{\"index\":1}\n" {
			t.Fatalf("split %d: emitted %q", split, got)
		}
	}
}

// FuzzLineFramer feeds arbitrary bytes to the framer in chunks that
// alternate between two fuzzed sizes. Whatever the bytes and the cuts,
// the framer must emit exactly the newline-terminated lines after the
// first, once each and in order, report each feed that emitted, and
// hold the trailing newline-less fragment in pending.
func FuzzLineFramer(f *testing.F) {
	f.Add([]byte(twoLineJournal), uint8(1), uint8(1))
	f.Add([]byte(twoLineJournal), uint8(5), uint8(17))
	f.Add([]byte(twoLineJournal[:len(twoLineJournal)-4]), uint8(3), uint8(0))
	f.Add([]byte("\n\n\nno newline"), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, a, b uint8) {
		sizes := [2]int{int(a) + 1, int(b) + 1}
		lines := bytes.SplitAfter(data, []byte("\n")) // whole lines, then the fragment
		whole, tail := lines[:len(lines)-1], lines[len(lines)-1]
		var want []string
		for i, line := range whole {
			if i > 0 {
				want = append(want, string(line))
			}
		}

		var fr lineFramer
		var got []string
		emit := func(line []byte) error {
			got = append(got, string(line))
			return nil
		}
		for i, k := 0, 0; i < len(data); k++ {
			n := min(sizes[k%2], len(data)-i)
			before := len(got)
			wrote, err := fr.feed(data[i:i+n], emit)
			if err != nil {
				t.Fatal(err)
			}
			if wrote != (len(got) > before) {
				t.Fatalf("feed of [%d,%d) reported wrote=%v after emitting %d lines", i, i+n, wrote, len(got)-before)
			}
			i += n
		}
		if !slices.Equal(got, want) {
			t.Fatalf("emitted %q, want %q", got, want)
		}
		if !bytes.Equal(fr.pending, tail) {
			t.Fatalf("pending %q, want the trailing fragment %q", fr.pending, tail)
		}
	})
}

// TestStreamJournalWaitsForJournalCreation covers the follower that
// attaches before the job's first run lands: the stream must wait for
// the journal, then relay it, rather than 404ing a live job.
func TestStreamJournalWaitsForJournalCreation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.jsonl")
	var terminal atomic.Bool
	done := make(chan struct{})
	stop := make(chan struct{})
	w := newLineWriter()
	req := httptest.NewRequest("GET", "/v1/jobs/job-00000000/results", nil)
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		StreamJournal(w, req, path, terminal.Load, done, stop)
	}()

	expectQuiet(t, w, 100*time.Millisecond)
	const header = "{\"journal\":\"v1\",\"jobs\":1}\n"
	const line0 = "{\"index\":0}\n"
	if err := os.WriteFile(path, []byte(header+line0), 0o644); err != nil {
		t.Fatal(err)
	}
	expectLine(t, w, line0)
	terminal.Store(true)
	close(done)
	select {
	case <-streamed:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after the job went terminal")
	}
}
