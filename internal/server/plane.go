package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// The job plane is everything a job goes through between admission and
// a terminal state, shared by both front ends of cmd/lggd: the job
// table with its idempotency keys and ID numbering, the tenant queue,
// admission with its shed/drain/standby refusals and Retry-After
// estimate, the fsynced ledger and its replay, cancel, the dispatch
// loop, drain, and the HTTP job surface. What a front end plugs in is
// its Executor: a single daemon runs each job through sweep.Runner on
// this machine (Server), a federation coordinator shards it across a
// worker fleet. Both executors end the same way — the job's journal
// holds its sweep.Result lines in index order — so everything the plane
// does with a job, including streaming its results, is the same for
// both.

// Executor runs admitted jobs for a Plane.
type Executor interface {
	// Check refuses, at admission, a spec that passed JobSpec.Validate
	// but that this executor can never run.
	Check(spec JobSpec) error
	// Execute runs jb until its journal holds every result, reporting
	// progress through jb.SetTotal and jb.Record. ctx is cancelled to
	// end the job early; the plane reads the cause (see Checkpointed),
	// so Execute just returns once it has stopped. A nil return means
	// the job is done; any other error fails it, unless the cause says
	// the job was cancelled or checkpointed.
	Execute(ctx context.Context, jb *Job) error
}

// Role is what one front end plugs into the plane.
type Role struct {
	// Name prefixes the plane's metric names and log lines: "lggd" for
	// a single daemon, "lggfed" for a coordinator.
	Name string
	Exec Executor
	// Quota caps one tenant's live (queued+running) jobs; <=0 means
	// unlimited.
	Quota int
	// Standby starts the plane as a standby: admission is refused with
	// 503 and a Retry-After of StandbyRetryAfter seconds, nothing is
	// dispatched, and replayed jobs keep their recorded state until
	// LeaveStandby.
	Standby           bool
	StandbyRetryAfter int
}

var (
	// errDrain and errDemote checkpoint a job: its journal keeps the
	// finished prefix and it goes back to queued, to resume on the next
	// start or promotion.
	errDrain  = errors.New("server: draining")
	errDemote = errors.New("server: demoted to standby")
	// errClientCancel ends a job cancelled by its client.
	errClientCancel = errors.New("server: cancelled by client")
)

// Checkpointed reports whether ctx was cancelled to checkpoint its job —
// by a drain or a demotion — rather than to end it. The job will resume
// where its journal ends, so work it started elsewhere must survive.
func Checkpointed(ctx context.Context) bool {
	cause := context.Cause(ctx)
	return errors.Is(cause, errDrain) || errors.Is(cause, errDemote)
}

// Job is one admitted job. Its executor reads it through State and
// reports progress through SetTotal and Record; the rest of its
// lifecycle belongs to the plane. Lock order: Plane.mu before Job.mu.
type Job struct {
	mu     sync.Mutex
	st     JobState
	runs   *metrics.Counter
	cancel context.CancelCauseFunc // non-nil while an executor runs the job
	doneCh chan struct{}           // closed when the job reaches a terminal status
}

// State returns a consistent snapshot.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.Status.Terminal()
}

// SetTotal records the job's run count once its executor has
// enumerated the grid.
func (j *Job) SetTotal(n int) {
	j.mu.Lock()
	j.st.Total = n
	j.mu.Unlock()
}

// Record counts one result in the job's journal. An executor that
// resumes from a journal prefix records the prefix too: the plane
// resets the counts whenever the job starts.
func (j *Job) Record(res sweep.Result) {
	j.mu.Lock()
	j.st.Done++
	switch res.Recovery {
	case "Recovered":
		j.st.Recovered++
	case "Degraded":
		j.st.Degraded++
	case "Indeterminate":
		j.st.Indeterminate++
	}
	j.mu.Unlock()
	j.runs.Inc()
}

// Plane admits, queues, dispatches and settles jobs for one front end.
// Construct with NewPlane, register any extra routes with Handle, call
// Start, serve Handler, and stop with Drain.
type Plane struct {
	cfg   Config
	role  Role
	store *store
	mux   *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	keys     map[string]string // idempotency key → job id
	queue    *tenantQueue
	nextID   int
	draining bool
	standby  bool

	wake  chan struct{} // buffered(1): work-available signal
	stopc chan struct{} // closed when draining starts
	wg    sync.WaitGroup

	gQueue, gInflight, gDraining, gStandby *metrics.Gauge
	cShed, cQuota, cAdmitted, cDeduped     *metrics.Counter
	cDone, cFailed, cCancelled, cResumed   *metrics.Counter
	cRuns, cHTTP                           *metrics.Counter
	ewmaMu                                 sync.Mutex
	jobSecs                                float64
}

// NewPlane opens cfg.StateDir, replays the job ledger and re-queues
// every unfinished job, oldest first (a standby keeps them as
// recorded). It uses cfg's StateDir, Jobs, QueueDepth, FindGrid,
// Registry and Logf. Nothing is dispatched until Start.
func NewPlane(cfg Config, role Role) (*Plane, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("server: Config.StateDir is required")
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.FindGrid == nil {
		cfg.FindGrid = experiments.FindGrid
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	st, replay, err := openStore(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	p := &Plane{
		cfg:     cfg,
		role:    role,
		store:   st,
		mux:     http.NewServeMux(),
		jobs:    make(map[string]*Job),
		keys:    make(map[string]string),
		queue:   newTenantQueue(role.Quota, cfg.QueueDepth),
		standby: role.Standby,
		wake:    make(chan struct{}, 1),
		stopc:   make(chan struct{}),
	}
	reg := cfg.Registry
	name := func(suffix string) string { return role.Name + "_" + suffix }
	p.gQueue = reg.Gauge(name("queue_depth"), "Jobs waiting in the admission queue.")
	p.gInflight = reg.Gauge(name("inflight_jobs"), "Jobs currently executing.")
	p.gDraining = reg.Gauge(name("draining"), "1 while the daemon drains (admission closed).")
	p.gStandby = reg.Gauge(name("standby"), "1 while this plane is a standby (admission refused, nothing dispatched).")
	p.cShed = reg.Counter(name("jobs_shed_total"), "Submissions shed with 429 because the queue was full.")
	p.cQuota = reg.Counter(name("jobs_quota_refused_total"), "Submissions refused by a tenant's quota.")
	p.cAdmitted = reg.Counter(name("jobs_admitted_total"), "Jobs admitted to the queue.")
	p.cDeduped = reg.Counter(name("jobs_deduplicated_total"), "Submissions answered by an existing job via idempotency key.")
	p.cDone = reg.Counter(name("jobs_done_total"), "Jobs that completed every run.")
	p.cFailed = reg.Counter(name("jobs_failed_total"), "Jobs that ended in a terminal error.")
	p.cCancelled = reg.Counter(name("jobs_cancelled_total"), "Jobs cancelled by clients.")
	p.cResumed = reg.Counter(name("jobs_resumed_total"), "Unfinished jobs re-queued at startup.")
	p.cRuns = reg.Counter(name("runs_finished_total"), "Individual sweep runs finished across all jobs.")
	p.cHTTP = reg.Counter(name("http_requests_total"), "HTTP requests served.")
	if role.Standby {
		p.gStandby.Set(1)
	}

	for _, rec := range replay {
		jb := p.addLocked(rec)
		if rec.Status.Terminal() || role.Standby {
			continue
		}
		// Unfinished (queued or running at the crash/drain): back on the
		// queue; its journal makes the re-run skip finished work.
		jb.st.Status = StatusQueued
		p.queue.push(rec.Spec.Tenant, jb)
		p.cResumed.Inc()
		cfg.Logf("%s: resuming %s (%s, %d/%d runs done)", role.Name, rec.ID, rec.Spec.Grid, rec.Done, rec.Total)
	}
	// Replay rebuilt the tenant ring in first-submission order; re-seat
	// the fair-share cursor past the tenant dispatched last before the
	// restart so it is not served first again.
	p.queue.alignAfter(st.lastDispatched)
	p.gQueue.Set(int64(p.queue.pending()))
	p.routes()
	return p, nil
}

// Start launches the dispatchers: cfg.Jobs of them, each running one
// job at a time until the plane drains.
func (p *Plane) Start() {
	for i := 0; i < p.cfg.Jobs; i++ {
		p.Go(func(<-chan struct{}) {
			for jb := p.pop(); jb != nil; jb = p.pop() {
				p.run(jb)
			}
		})
	}
}

// Go runs loop on its own goroutine; stop closes when Drain begins, and
// Drain waits for loop to return before it closes the ledger. A front
// end runs its background loops this way, so none outlives the state it
// writes. Call Go before Drain can start, or from a goroutine Go started
// (an executor runs on one), so Drain's wait always covers the new one.
func (p *Plane) Go(loop func(stop <-chan struct{})) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		loop(p.stopc)
	}()
}

// addLocked enters a recorded job into the table; requires p.mu (or a
// plane not yet shared).
func (p *Plane) addLocked(st JobState) *Job {
	jb := &Job{st: st, runs: p.cRuns, doneCh: make(chan struct{})}
	if st.Status.Terminal() {
		close(jb.doneCh)
	}
	if n, ok := idNumber(st.ID); ok && n >= p.nextID {
		p.nextID = n + 1
	}
	if st.Spec.IdempotencyKey != "" {
		p.keys[st.Spec.IdempotencyKey] = st.ID
	}
	p.jobs[st.ID] = jb
	p.order = append(p.order, st.ID)
	return jb
}

// idNumber parses the numeric suffix of "job-%08d".
func idNumber(id string) (int, bool) {
	const p = "job-"
	if len(id) <= len(p) || id[:len(p)] != p {
		return 0, false
	}
	n, err := strconv.Atoi(id[len(p):])
	return n, err == nil
}

// signal wakes one idle dispatcher.
func (p *Plane) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// Admit validates and enqueues a job. It returns the job's state and
// whether it was newly created (false = deduplicated by idempotency
// key). A full queue or an exhausted tenant quota sheds, and drain or
// standby refuses, with an *Unavailable carrying a Retry-After hint.
func (p *Plane) Admit(spec JobSpec, key string) (JobState, bool, error) {
	spec = spec.WithDefaults()
	if key != "" {
		spec.IdempotencyKey = key
	}
	if err := spec.Validate(p.cfg.FindGrid); err != nil {
		return JobState{}, false, err
	}
	if err := p.role.Exec.Check(spec); err != nil {
		return JobState{}, false, err
	}
	p.mu.Lock()
	if p.draining {
		ra := p.retryAfterLocked()
		p.mu.Unlock()
		return JobState{}, false, &Unavailable{Draining: true, RetryAfter: ra}
	}
	if p.standby {
		p.mu.Unlock()
		return JobState{}, false, &Unavailable{Standby: true, RetryAfter: p.role.StandbyRetryAfter}
	}
	if spec.IdempotencyKey != "" {
		if id, ok := p.keys[spec.IdempotencyKey]; ok {
			jb := p.jobs[id]
			p.mu.Unlock()
			p.cDeduped.Inc()
			return jb.State(), false, nil
		}
	}
	if overQuota, full := p.queue.admissible(spec.Tenant); overQuota || full {
		ra := p.retryAfterLocked()
		p.mu.Unlock()
		if overQuota {
			p.cQuota.Inc()
		} else {
			p.cShed.Inc()
		}
		return JobState{}, false, &Unavailable{RetryAfter: ra}
	}
	st := JobState{ID: fmt.Sprintf("job-%08d", p.nextID), Spec: spec, Status: StatusQueued}
	if err := p.store.append(st); err != nil {
		p.mu.Unlock()
		return JobState{}, false, err
	}
	jb := p.addLocked(st)
	p.queue.push(spec.Tenant, jb)
	p.gQueue.Set(int64(p.queue.pending()))
	p.mu.Unlock()
	p.cAdmitted.Inc()
	p.signal()
	return jb.State(), true, nil
}

// Unavailable is the shed/drain/standby admission refusal; RetryAfter
// is the server's backoff hint in seconds.
type Unavailable struct {
	Draining bool
	// Standby marks a federation coordinator that is mirroring a live
	// primary: it refuses admission (503 + Retry-After) until a missed
	// heartbeat window promotes it. A client that keeps retrying against
	// a standby is therefore admitted the moment failover completes.
	Standby    bool
	RetryAfter int
}

func (u *Unavailable) Error() string {
	switch {
	case u.Draining:
		return "server draining, not admitting jobs"
	case u.Standby:
		return "coordinator is a standby; submit to the primary (or retry after failover)"
	default:
		return "admission queue full, job shed"
	}
}

// retryAfterLocked derives the Retry-After hint from the queue depth and
// the measured mean job duration: the expected time until a queue slot
// frees for a new arrival. Requires p.mu.
func (p *Plane) retryAfterLocked() int {
	p.ewmaMu.Lock()
	mean := p.jobSecs
	p.ewmaMu.Unlock()
	if mean <= 0 {
		mean = 1
	}
	secs := int(math.Ceil(mean * float64(p.queue.pending()+1) / float64(p.cfg.Jobs)))
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

// observeJobSeconds feeds the duration EWMA behind Retry-After.
func (p *Plane) observeJobSeconds(secs float64) {
	p.ewmaMu.Lock()
	if p.jobSecs == 0 {
		p.jobSecs = secs
	} else {
		p.jobSecs = 0.7*p.jobSecs + 0.3*secs
	}
	p.ewmaMu.Unlock()
}

// Job returns a job's state by id.
func (p *Plane) Job(id string) (JobState, bool) {
	p.mu.Lock()
	jb, ok := p.jobs[id]
	p.mu.Unlock()
	if !ok {
		return JobState{}, false
	}
	return jb.State(), true
}

// Jobs lists every known job in submission order.
func (p *Plane) Jobs() []JobState {
	p.mu.Lock()
	jobs := make([]*Job, 0, len(p.order))
	for _, id := range p.order {
		jobs = append(jobs, p.jobs[id])
	}
	p.mu.Unlock()
	out := make([]JobState, 0, len(jobs))
	for _, jb := range jobs {
		out = append(out, jb.State())
	}
	return out
}

// Cancel requests cancellation of a job. Terminal jobs are left alone
// (the current state is returned); queued jobs become cancelled
// immediately and refund their tenant's quota; running jobs are
// cancelled mid-sweep, their journal keeping the finished prefix.
func (p *Plane) Cancel(id string) (JobState, bool) {
	p.mu.Lock()
	jb, ok := p.jobs[id]
	p.mu.Unlock()
	if !ok {
		return JobState{}, false
	}
	jb.mu.Lock()
	switch {
	case jb.st.Status.Terminal():
		jb.mu.Unlock()
	case jb.st.Status == StatusQueued:
		jb.st.Status = StatusCancelled
		jb.st.Error = errClientCancel.Error()
		st := jb.st
		close(jb.doneCh)
		jb.mu.Unlock()
		p.mu.Lock()
		if p.queue.remove(st.Spec.Tenant, jb) {
			p.gQueue.Set(int64(p.queue.pending()))
		} else {
			p.queue.release(st.Spec.Tenant) // popped, not yet running
		}
		p.mu.Unlock()
		p.cCancelled.Inc()
		p.persist(st)
	default: // running
		cancel := jb.cancel
		jb.mu.Unlock()
		if cancel != nil {
			cancel(errClientCancel)
		}
	}
	return jb.State(), true
}

// persist appends a snapshot to the ledger, logging (not propagating)
// failures — an unwritable ledger must not wedge the control plane.
func (p *Plane) persist(st JobState) {
	if err := p.store.append(st); err != nil {
		p.cfg.Logf("%s: ledger append for %s: %v", p.role.Name, st.ID, err)
	}
}

// pop blocks until a job is available or the plane drains. Draining
// stops dispatch even with a non-empty queue: queued jobs stay persisted
// and resume on the next start. A standby dispatches nothing until
// LeaveStandby.
func (p *Plane) pop() *Job {
	for {
		p.mu.Lock()
		if p.draining {
			p.mu.Unlock()
			return nil
		}
		if !p.standby {
			if jb := p.queue.pop(); jb != nil {
				more := p.queue.pending() > 0
				p.gQueue.Set(int64(p.queue.pending()))
				p.mu.Unlock()
				if more {
					p.signal() // pass the wake-up on to the next idle dispatcher
				}
				return jb
			}
		}
		p.mu.Unlock()
		select {
		case <-p.wake:
		case <-p.stopc:
			return nil
		}
	}
}

// run executes one job through the role's executor and settles it.
func (p *Plane) run(jb *Job) {
	p.mu.Lock()
	jb.mu.Lock()
	if jb.st.Status.Terminal() || p.standby {
		// Cancelled while queued, or demoted since the pop: a standby
		// leaves the job queued for whichever coordinator leads.
		jb.mu.Unlock()
		p.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	jb.cancel = cancel
	jb.st.Status = StatusRunning
	jb.st.Done, jb.st.Recovered, jb.st.Degraded, jb.st.Indeterminate = 0, 0, 0, 0
	st := jb.st
	jb.mu.Unlock()
	p.mu.Unlock()
	p.persist(st)
	p.gInflight.Add(1)
	start := time.Now()
	err := p.role.Exec.Execute(ctx, jb)
	p.observeJobSeconds(time.Since(start).Seconds())
	p.gInflight.Add(-1)

	cause := context.Cause(ctx)
	switch {
	case err == nil:
		p.finish(jb, StatusDone, "")
	case Checkpointed(ctx):
		p.requeue(jb, cause)
	case errors.Is(cause, errClientCancel):
		p.finish(jb, StatusCancelled, errClientCancel.Error())
	default:
		p.finish(jb, StatusFailed, err.Error())
	}
}

// requeue settles a checkpointed job back to queued: its journal holds
// the finished prefix, and the next start or promotion resumes it. A
// plane promoted again while the executor was winding down dispatches
// it right away.
func (p *Plane) requeue(jb *Job, cause error) {
	p.mu.Lock()
	jb.mu.Lock()
	jb.cancel = nil
	jb.st.Status = StatusQueued
	st := jb.st
	jb.mu.Unlock()
	// Active again means LeaveStandby rebuilt the queue since the
	// demotion, without this job's quota charge.
	active := !p.draining && !p.standby
	if active {
		p.queue.push(st.Spec.Tenant, jb)
		p.gQueue.Set(int64(p.queue.pending()))
	} else {
		p.queue.release(st.Spec.Tenant)
	}
	p.mu.Unlock()
	p.persist(st)
	reason := "drain"
	if errors.Is(cause, errDemote) {
		reason = "demotion"
	}
	p.cfg.Logf("%s: %s checkpointed at %d/%d runs for %s", p.role.Name, st.ID, st.Done, st.Total, reason)
	if active {
		p.signal()
	}
}

// finish moves a job to a terminal state, refunds its quota, persists
// it and wakes waiters.
func (p *Plane) finish(jb *Job, status JobStatus, errMsg string) {
	jb.mu.Lock()
	jb.cancel = nil
	if jb.st.Status.Terminal() {
		jb.mu.Unlock()
		return
	}
	jb.st.Status = status
	jb.st.Error = errMsg
	st := jb.st
	close(jb.doneCh)
	jb.mu.Unlock()
	p.mu.Lock()
	p.queue.release(st.Spec.Tenant)
	p.mu.Unlock()
	switch status {
	case StatusDone:
		p.cDone.Inc()
	case StatusFailed:
		p.cFailed.Inc()
	case StatusCancelled:
		p.cCancelled.Inc()
	}
	p.persist(st)
	p.cfg.Logf("%s: %s → %s (%d/%d runs)", p.role.Name, st.ID, status, st.Done, st.Total)
}

// checkpoint cancels every running job with cause.
func (p *Plane) checkpoint(cause error) {
	p.mu.Lock()
	jobs := make([]*Job, 0, len(p.order))
	for _, id := range p.order {
		jobs = append(jobs, p.jobs[id])
	}
	p.mu.Unlock()
	for _, jb := range jobs {
		jb.mu.Lock()
		cancel := jb.cancel
		jb.mu.Unlock()
		if cancel != nil {
			cancel(cause)
		}
	}
}

// JournalPath reports where a job's sweep journal lives on disk.
func (p *Plane) JournalPath(id string) string {
	return p.store.journalPath(id)
}

// Draining reports whether admission is closed for good.
func (p *Plane) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

// Standby reports whether the plane is a standby.
func (p *Plane) Standby() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.standby
}

// EnterStandby steps the plane down: admission refuses as a standby,
// dispatch stops, every running job is checkpointed back to queued, and
// the dispatch queue empties — queued jobs stay durable for whichever
// coordinator leads. It reports false, doing nothing, on a draining
// plane or one already in standby.
func (p *Plane) EnterStandby() bool {
	p.mu.Lock()
	if p.draining || p.standby {
		p.mu.Unlock()
		return false
	}
	p.standby = true
	p.gStandby.Set(1)
	p.queue = newTenantQueue(p.role.Quota, p.cfg.QueueDepth)
	p.gQueue.Set(0)
	p.mu.Unlock()
	p.checkpoint(errDemote)
	return true
}

// LeaveStandby makes the plane dispatch: every non-terminal job is
// queued again, in submission order, and admission opens. It returns
// the number of jobs queued and reports false, doing nothing, on a
// draining plane or one not in standby.
func (p *Plane) LeaveStandby() (int, bool) {
	p.mu.Lock()
	if p.draining || !p.standby {
		p.mu.Unlock()
		return 0, false
	}
	p.standby = false
	p.gStandby.Set(0)
	var requeued []JobState
	for _, id := range p.order {
		jb := p.jobs[id]
		jb.mu.Lock()
		// A job whose executor is still winding down from the demotion
		// is queued by its own checkpoint (requeue) instead.
		if !jb.st.Status.Terminal() && jb.cancel == nil {
			jb.st.Status = StatusQueued
			p.queue.push(jb.st.Spec.Tenant, jb)
			requeued = append(requeued, jb.st)
		}
		jb.mu.Unlock()
	}
	p.gQueue.Set(int64(p.queue.pending()))
	p.mu.Unlock()
	for _, st := range requeued {
		p.persist(st)
	}
	p.signal()
	return len(requeued), true
}

// Mirror folds a job record from another coordinator's ledger into the
// plane: an unknown job is added as recorded, a known one takes the new
// state. The ledger is appended only on Status/Error/Total transitions —
// not per-run Done increments — so mirroring a busy primary does not
// fsync per result line.
func (p *Plane) Mirror(js JobState) {
	p.mu.Lock()
	jb, known := p.jobs[js.ID]
	if !known {
		p.addLocked(js)
		p.mu.Unlock()
		p.persist(js)
		return
	}
	p.mu.Unlock()
	jb.mu.Lock()
	transition := jb.st.Status != js.Status || jb.st.Error != js.Error || jb.st.Total != js.Total
	wasTerminal := jb.st.Status.Terminal()
	jb.st = js
	if !wasTerminal && js.Status.Terminal() {
		close(jb.doneCh)
	}
	jb.mu.Unlock()
	if transition {
		p.persist(js)
	}
}

// Drain gracefully stops the plane: admission closes immediately
// (readyz → 503, submissions refused), queued jobs stay durably queued,
// and in-flight jobs get until ctx's deadline to finish. Jobs still
// running when the grace expires are checkpointed mid-sweep — their
// journals keep every finished run — and left queued for the next
// start. Drain returns once every dispatcher and every loop started
// with Go has returned and the ledger is closed; it is safe to call
// once.
func (p *Plane) Drain(ctx context.Context) error {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		return fmt.Errorf("%s: already draining", p.role.Name)
	}
	p.draining = true
	p.mu.Unlock()
	p.gDraining.Set(1)
	close(p.stopc)

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		p.checkpoint(errDrain)
		<-done
	}
	return p.store.close()
}
