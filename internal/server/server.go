// Package server is the resilient simulation service behind cmd/lggd: an
// HTTP/JSON daemon that admits run and sweep jobs, executes them on a
// bounded worker pool built from internal/sweep's panic-isolated retrying
// runner, and survives overload, deadlines, cancellation, crashes and
// restarts without losing or corrupting work.
//
// Robustness is applied at every layer, mirroring the paper's saturation
// semantics (Section III): a network fed past its service rate must shed
// at the edge, not grow an unbounded backlog. Concretely:
//
//   - Admission is a bounded queue. A full queue sheds with HTTP 429 and
//     a Retry-After derived from the queue depth and the measured mean
//     job duration — the service-side analogue of the paper's saturated
//     regime, where bounded state is bought by refusing excess arrivals.
//   - Deadlines propagate: a job's timeout_ms flows through the sweep
//     runner into sim.RunContext, so even a single enormous run is
//     cancelled mid-flight instead of wedging a worker.
//   - Idempotency keys deduplicate client retries, so an at-least-once
//     client (the companion client package) never double-submits.
//   - Jobs are durable: every state transition appends to a fsynced
//     JSONL ledger, and every finished run is checkpointed to the PR-4
//     sweep journal. A killed daemon resumes unfinished jobs on restart,
//     and — by the sweep determinism contract — the resumed results are
//     byte-identical to an uninterrupted execution.
//   - Drain is graceful: Drain stops admission (readyz goes 503), lets
//     in-flight jobs finish within the caller's grace, then cancels
//     them so their journals hold the finished prefix, flushes, and
//     returns. Nothing is lost; the next start picks the work back up.
//
// All of that lives in the job plane (plane.go), which the federation
// coordinator shares: a Server is the plane with a local executor, a
// coordinator the same plane with an executor that shards each job
// across a worker fleet.
package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Config tunes a Server. The zero value is usable apart from StateDir,
// which is required.
type Config struct {
	// StateDir holds the job ledger and per-job sweep journals.
	StateDir string
	// Jobs is the number of concurrent job executors (default 2).
	Jobs int
	// QueueDepth bounds the admission queue; arrivals beyond it are shed
	// with 429 + Retry-After (default 16).
	QueueDepth int
	// SweepWorkers is the per-sweep worker pool (default GOMAXPROCS).
	SweepWorkers int
	// Retries is the per-run panic retry budget (sweep.Runner.Retries).
	Retries int
	// FindGrid resolves grid names (default experiments.FindGrid).
	FindGrid GridResolver
	// Registry receives the daemon's metrics (default: a fresh registry,
	// exposed at /metrics).
	Registry *metrics.Registry
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// Daemon metric names. A coordinator's plane exports the same series
// under the lggfed_ prefix.
const (
	MetricQueueDepth   = "lggd_queue_depth"
	MetricInflight     = "lggd_inflight_jobs"
	MetricDraining     = "lggd_draining"
	MetricShed         = "lggd_jobs_shed_total"
	MetricAdmitted     = "lggd_jobs_admitted_total"
	MetricDeduped      = "lggd_jobs_deduplicated_total"
	MetricJobsDone     = "lggd_jobs_done_total"
	MetricJobsFailed   = "lggd_jobs_failed_total"
	MetricJobsCancel   = "lggd_jobs_cancelled_total"
	MetricJobsResumed  = "lggd_jobs_resumed_total"
	MetricRunsFinished = "lggd_runs_finished_total"
	MetricHTTPRequests = "lggd_http_requests_total"
)

// Server is a single daemon: the job plane with a local executor that
// runs each job through sweep.Runner on this machine. Construct with
// New, serve its Handler, and stop with Drain.
type Server struct {
	*Plane
}

// New opens the state directory, replays the job ledger, re-queues every
// unfinished job (oldest first) and starts the executors.
func New(cfg Config) (*Server, error) {
	s := &Server{}
	p, err := NewPlane(cfg, Role{Name: "lggd", Exec: s})
	if err != nil {
		return nil, err
	}
	s.Plane = p
	p.Start()
	return s, nil
}

// Check accepts every valid spec: a daemon runs whole grids and, for a
// coordinator, run ranges.
func (s *Server) Check(JobSpec) error { return nil }

// Execute runs one job on this machine: its grid (or run range) through
// sweep.Runner into the job's journal, resuming after whatever prefix
// the journal already holds, under the job's timeout_ms deadline.
func (s *Server) Execute(ctx context.Context, jb *Job) error {
	st := jb.State()
	spec := st.Spec
	g, err := s.cfg.FindGrid(spec.Grid)
	if err != nil {
		return err
	}
	runs := g.Jobs(spec.Config())
	if spec.Faults != "" {
		if err := experiments.ApplyFaults(runs, spec.Faults); err != nil {
			return err
		}
	}
	if spec.RunCount > 0 {
		// Range job (federation shard): execute only the requested
		// index window. Desc.Index stays global, so the results are the
		// exact lines an unsharded sweep would emit for these indices.
		if spec.RunStart+spec.RunCount > len(runs) {
			return fmt.Errorf("run range %d+%d exceeds the grid's %d runs", spec.RunStart, spec.RunCount, len(runs))
		}
		runs = runs[spec.RunStart : spec.RunStart+spec.RunCount]
	}
	journal, prefix, err := sweep.OpenJournalResume(s.JournalPath(st.ID), len(runs))
	if err != nil {
		return err
	}
	jb.SetTotal(len(runs))

	if spec.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	runner := &sweep.Runner{
		Workers: s.cfg.SweepWorkers,
		Retries: s.cfg.Retries,
		Journal: journal,
		Resume:  prefix,
		// The runner replays the resumed prefix through OnResult too.
		OnResult: func(_ sweep.Job, res sweep.Result, _ *sim.Result) { jb.Record(res) },
	}
	_, err = runner.RunWithContext(ctx, runs)
	if cerr := journal.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("journal close: %w", cerr)
	}
	if errors.Is(err, sweep.ErrTimeout) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("deadline exceeded after %dms", spec.TimeoutMS)
	}
	return err
}
