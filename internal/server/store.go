package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// The store is the job plane's durable ledger: one append-only JSONL
// file (jobs.jsonl) holding a full JobState snapshot per transition, plus
// one PR-4 sweep journal per job under results/. The ledger follows the
// sweep journal's crash discipline — whole-line appends, fsync per
// append, torn tails truncated on open — so whatever a killed daemon
// left on disk is a consistent prefix of its history. Replaying the
// ledger (last snapshot per job wins) reconstructs every job; the ones
// that are not terminal go back on the admission queue, and their sweep
// journals let the runner skip every run already recorded.

// storeVersion tags the ledger format in its header line.
const storeVersion = "lggd-jobs-v1"

type storeHeader struct {
	Store string `json:"store"`
}

// store owns the state directory.
type store struct {
	dir string
	// lastDispatched is the tenant of the most recent queued→running
	// transition found while replaying the ledger. The plane uses it to
	// re-seat its round-robin fair-share cursor after a restart, so the
	// tenant that was served last does not get served first again.
	lastDispatched string

	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
}

// openStore opens (or initialises) the state directory and replays the
// job ledger. Jobs come back in first-submission order.
func openStore(dir string) (*store, []JobState, error) {
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: state dir: %w", err)
	}
	path := filepath.Join(dir, "jobs.jsonl")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: job ledger: %w", err)
	}
	br := bufio.NewReader(f)
	head, err := br.ReadBytes('\n')
	offset := int64(len(head))
	if err != nil {
		// Empty (or torn-at-birth) ledger: claim it with a fresh header.
		if len(head) > 0 && !errors.Is(err, io.EOF) {
			f.Close()
			return nil, nil, fmt.Errorf("server: job ledger: %w", err)
		}
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("server: job ledger: %w", err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("server: job ledger: %w", err)
		}
		s := &store{dir: dir, f: f, enc: json.NewEncoder(f)}
		if err := s.enc.Encode(storeHeader{Store: storeVersion}); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("server: job ledger header: %w", err)
		}
		return s, nil, f.Sync()
	}
	var hdr storeHeader
	if json.Unmarshal(head, &hdr) != nil || hdr.Store != storeVersion {
		f.Close()
		return nil, nil, fmt.Errorf("server: %s is not a %s ledger", path, storeVersion)
	}

	latest := make(map[string]*JobState)
	var order []string
	lastDispatched := ""
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			break // EOF or torn tail: everything before it stands
		}
		var js JobState
		if json.Unmarshal(line, &js) != nil || js.ID == "" {
			break // malformed line: truncate it and everything after
		}
		if _, seen := latest[js.ID]; !seen {
			order = append(order, js.ID)
		}
		if js.Status == StatusRunning {
			lastDispatched = js.Spec.Tenant
		}
		latest[js.ID] = &js
		offset += int64(len(line))
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("server: job ledger truncate: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("server: job ledger seek: %w", err)
	}
	jobs := make([]JobState, 0, len(order))
	for _, id := range order {
		jobs = append(jobs, *latest[id])
	}
	return &store{dir: dir, lastDispatched: lastDispatched, f: f, enc: json.NewEncoder(f)}, jobs, nil
}

// append durably records a job snapshot: one whole-line write, then
// fsync. Transitions are rare (a handful per job), so the fsync cost is
// irrelevant next to a sweep.
func (s *store) append(js JobState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Encode(&js); err != nil {
		return fmt.Errorf("server: job ledger: %w", err)
	}
	return s.f.Sync()
}

// journalPath is where a job's sweep journal lives.
func (s *store) journalPath(id string) string {
	return filepath.Join(s.dir, "results", id+".jsonl")
}

// close closes the ledger.
func (s *store) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
