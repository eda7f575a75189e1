package server

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/faults"
)

// JobSpec is the client-supplied description of a sweep job: which named
// grid to run and with what configuration. It is the JSON body of
// POST /v1/jobs and the durable identity of a job across daemon
// restarts — a resumed job re-derives its exact job list from the spec,
// which (by the sweep determinism contract) re-produces byte-identical
// results for the runs the journal has not yet recorded.
type JobSpec struct {
	// Grid names a registered sweep grid (experiments.SweepGrids).
	Grid string `json:"grid"`
	// Seed, Seeds, Horizon and Quick mirror experiments.Config; zero
	// values take the experiments defaults (seed 1, 8 replicas, horizon
	// 3000).
	Seed    uint64 `json:"seed,omitempty"`
	Seeds   int    `json:"seeds,omitempty"`
	Horizon int64  `json:"horizon,omitempty"`
	Quick   bool   `json:"quick,omitempty"`
	// Faults optionally injects a fault schedule into every run (text or
	// JSON form; @file is rejected — the daemon does not read client
	// paths).
	Faults string `json:"faults,omitempty"`
	// TimeoutMS, when positive, is the job's execution deadline in
	// milliseconds per attempt. The deadline propagates through the
	// sweep runner into sim.RunContext, so even a single enormous run is
	// cancelled mid-flight. A job killed by its deadline is terminal
	// (failed), not resumed.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IdempotencyKey deduplicates client retries: a second POST with the
	// same key returns the first job instead of admitting a new one. The
	// Idempotency-Key HTTP header takes precedence when both are set.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Tenant names the submitting tenant for admission accounting. Both
	// front ends dispatch round-robin across tenants with queued jobs,
	// FIFO within a tenant; the federation coordinator also caps each
	// tenant's live jobs at its quota, a single daemon sets none. Empty
	// means the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// RunStart / RunCount restrict the job to the contiguous run-index
	// range [RunStart, RunStart+RunCount) of the grid enumeration — the
	// unit of federation sharding. RunCount 0 means the whole grid.
	// Because every run's RNG stream derives only from the root seed and
	// its global index, a range job's results are byte-identical to the
	// same indices of an unsharded sweep, which is what makes the
	// coordinator's k-way merge byte-stable.
	RunStart int `json:"run_start,omitempty"`
	RunCount int `json:"run_count,omitempty"`
}

// WithDefaults fills unset fields from the experiments defaults.
// Exported because the federation coordinator normalizes a spec the
// same way the daemon's admission does, so the two agree on the grid
// enumeration a job shards over.
func (s JobSpec) WithDefaults() JobSpec {
	d := experiments.Defaults()
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	if s.Seeds <= 0 {
		s.Seeds = d.Seeds
	}
	if s.Horizon <= 0 {
		s.Horizon = d.Horizon
	}
	return s
}

// Config converts the spec to the experiments configuration it runs as.
func (s JobSpec) Config() experiments.Config {
	return experiments.Config{Seed: s.Seed, Seeds: s.Seeds, Horizon: s.Horizon, Quick: s.Quick}
}

// Validate rejects specs the daemon could never execute, before they
// are admitted (and persisted).
func (s JobSpec) Validate(find GridResolver) error {
	if s.Grid == "" {
		return fmt.Errorf("spec: grid is required")
	}
	if _, err := find(s.Grid); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if s.Seeds < 0 || s.Horizon < 0 || s.TimeoutMS < 0 {
		return fmt.Errorf("spec: negative seeds/horizon/timeout_ms")
	}
	if s.RunStart < 0 || s.RunCount < 0 {
		return fmt.Errorf("spec: negative run_start/run_count")
	}
	if s.RunStart > 0 && s.RunCount == 0 {
		return fmt.Errorf("spec: run_start without run_count (use run_count for a bounded range)")
	}
	if s.Faults != "" {
		if len(s.Faults) > 0 && s.Faults[0] == '@' {
			return fmt.Errorf("spec: @file fault schedules are not accepted over the API; inline the schedule")
		}
		if _, err := faults.Load(s.Faults); err != nil {
			return fmt.Errorf("spec: faults: %w", err)
		}
	}
	return nil
}

// GridResolver maps a grid name to its registered definition. The
// default is experiments.FindGrid; tests inject synthetic grids.
type GridResolver func(name string) (experiments.NamedGrid, error)

// JobStatus is the lifecycle state of a job.
type JobStatus string

const (
	// StatusQueued: admitted, waiting for a worker (also the state a
	// drained-but-unfinished job re-enters on restart).
	StatusQueued JobStatus = "queued"
	// StatusRunning: a worker is executing the sweep.
	StatusRunning JobStatus = "running"
	// StatusDone: every run finished; results are complete.
	StatusDone JobStatus = "done"
	// StatusFailed: the job hit a terminal error (bad spec at execution
	// time, journal write failure, or its deadline).
	StatusFailed JobStatus = "failed"
	// StatusCancelled: the client cancelled the job.
	StatusCancelled JobStatus = "cancelled"
)

// Terminal reports whether the status is final — terminal jobs are never
// resumed on restart and their results are immutable.
func (s JobStatus) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// JobState is the wire representation of a job, returned by every job
// endpoint.
type JobState struct {
	ID     string    `json:"id"`
	Spec   JobSpec   `json:"spec"`
	Status JobStatus `json:"status"`
	Error  string    `json:"error,omitempty"`
	// Done / Total count finished runs out of the job's sweep size
	// (Total is 0 until the job first starts and enumerates its grid).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Recovered / Degraded / Indeterminate aggregate the fault-recovery
	// verdicts of finished runs (zero for fault-free jobs).
	Recovered     int `json:"recovered,omitempty"`
	Degraded      int `json:"degraded,omitempty"`
	Indeterminate int `json:"indeterminate,omitempty"`
}
