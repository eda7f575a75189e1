// Package federation scales the lggd daemon horizontally without
// touching its determinism contract. A coordinator accepts the same
// sweep jobs as a single daemon (same JobSpec, same HTTP API), splits
// each job into contiguous run-index ranges, executes the ranges on a
// fleet of ordinary lggd workers, and k-way merges the returned results
// into one journal that is byte-identical to a single-daemon run of the
// same spec.
//
// Byte-stability falls out of the sweep determinism contract: every
// run's RNG stream derives only from the root seed and the run's global
// index, so a worker handed [start, start+count) produces exactly the
// result lines an unsharded sweep would for those indices, and merging
// by index reconstitutes the unsharded byte stream (internal/sweep's
// Merger).
//
// The same contract pays for fault tolerance. A range whose worker goes
// quiet past its lease is re-leased to another worker — work stealing —
// and if both eventually finish, the duplicate runs are byte-identical
// by construction, so merge dedup-by-index loses nothing. Worker jobs
// are submitted with deterministic idempotency keys derived from the
// coordinator job and range, so a restarted coordinator re-attaches to
// in-flight worker jobs instead of duplicating them.
//
// The coordinator itself is no longer a single point of failure. A
// standby coordinator (Config.Standby) tails the primary's
// /v1/coordinator/status heartbeat, mirroring its job ledger and fleet
// view, and promotes itself after a missed-heartbeat window — re-queueing
// every non-terminal job, whose merged output stays byte-identical to an
// unfailed run because the worker-side idempotency keys are derived from
// the job, not the coordinator. Fleet membership is age-based: every
// worker contact refreshes a liveness age, standbys mirror the primary's
// view as age vectors (membership.go), and departed workers age out
// through suspicion instead of holding leases. Dispatch is
// health-aware: per-worker EWMA service rates drive adaptive straggler
// leases, and a worker whose error share crosses a threshold is browned
// out and drained instead of fed more ranges (health.go).
//
// Everything a job goes through between admission and a terminal state
// — the job table, the tenant queue with its per-tenant quotas, the
// ledger, cancel, dispatch, drain and the HTTP job surface — is the job
// plane of package server, shared with the single daemon. A Coordinator
// is that plane with a fleet executor (Execute) plus what only a
// coordinator has: the fleet, its health board, the standby chain and a
// compacting result store that distils finished jobs into per-cell
// summaries queryable without replaying journals (store.go).
package federation

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sweep"
)

// Config tunes a Coordinator; only StateDir is required.
type Config struct {
	// StateDir holds the coordinator's job ledger, merged per-job
	// journals (results/) and the compacted summary index. The layout
	// matches a single daemon's state directory.
	StateDir string
	// Workers seeds the fleet with lggd base URLs; more join at runtime
	// via POST /v1/fleet/join.
	Workers []string
	// Jobs is the number of coordinator jobs sharded concurrently
	// (default 2) — each one fans out to the whole fleet.
	Jobs int
	// QueueDepth bounds total queued jobs across tenants (default 16).
	QueueDepth int
	// TenantQuota caps one tenant's live (queued+running) jobs
	// (default 4; <=0 only via an explicit negative = unlimited).
	TenantQuota int
	// RangeRuns is the target shard size in runs (default 8). Smaller
	// ranges steal and rebalance faster; larger ones amortise per-job
	// HTTP overhead.
	RangeRuns int
	// Lease is the straggler-lease ceiling and cold-start value
	// (default 60s). Once a worker has observed throughput, its actual
	// lease adapts: Health.LeaseFactor times the expected range
	// duration at max(its own EWMA rate, the fleet mean), clamped to
	// [Health.MinLease, Lease] — so a worker that falls behind the
	// fleet is stolen from sooner, without any fixed -lease tuning.
	Lease time.Duration
	// StealMax caps concurrent attempts per range, the original lease
	// included (default 2). Attempts stuck on suspect or browned-out
	// workers don't count against the cap, so a dying worker can't pin
	// a range to its own corpse.
	StealMax int
	// Poll is the worker job poll cadence (default 200ms).
	Poll time.Duration
	// KeepJournals, when positive, bounds merged journals kept on disk:
	// after a job is compacted into the summary index, only the most
	// recent KeepJournals journals survive (0 keeps all).
	KeepJournals int
	// FindGrid resolves grid names (default experiments.FindGrid). The
	// coordinator and its workers must resolve identically or range
	// bounds will not line up.
	FindGrid server.GridResolver

	// Standby starts the coordinator as a warm standby: admission is
	// refused (503 + Retry-After) and nothing is dispatched; instead the
	// coordinator tails Primary's /v1/coordinator/status, mirroring its
	// job ledger and fleet view. After FailoverAfter without a
	// successful heartbeat it promotes itself, re-queues every
	// non-terminal job and starts dispatching. Requires Primary.
	Standby bool
	// Primary is the primary coordinator's base URL (standby mode only).
	Primary string
	// Rank is this coordinator's fixed position in the failover order:
	// 0 for the configured primary, 1 for the first standby, 2 for the
	// second, and so on (defaults to 1 in standby mode). Rank is
	// identity, not state — it never changes at runtime. It orders
	// promotions (a standby waits until EVERY better-ranked coordinator
	// has been silent for FailoverAfter, so rank 2 defers to a live
	// rank 1 even with the primary dead) and breaks the epoch tie two
	// coordinators can reach across a healed partition: equal epochs,
	// lower rank wins.
	Rank int
	// Watch lists the other coordinators in the failover chain this one
	// must monitor, besides Primary. A standby ranked r watches Primary
	// plus the standbys ranked 1..r-1; promotion requires them ALL
	// silent for FailoverAfter. An acting primary with a non-empty
	// watch set runs a guard loop over it: a watched coordinator
	// claiming the primary role with a higher epoch — or the same epoch
	// and a lower rank — demotes this one back to standby (no
	// consensus; the rank order is the arbiter).
	Watch []string
	// Heartbeat is the standby's primary-poll cadence (default 1s).
	Heartbeat time.Duration
	// FailoverAfter is how long a standby tolerates failed heartbeats
	// before assuming leadership (default 5s).
	FailoverAfter time.Duration
	// SuspectAfter marks a worker suspect after this long without
	// contact (default 75s). Suspect workers are dispatched to only
	// when no alive worker is eligible.
	SuspectAfter time.Duration
	// DeadAfter removes a worker unheard from for this long
	// (default 2×SuspectAfter).
	DeadAfter time.Duration
	// JoinPingTimeout bounds the liveness probe run against a joining
	// worker before it is admitted to the fleet, so a hung peer cannot
	// block the join handler (default 2s). Also bounds the periodic
	// liveness probes of stale members.
	JoinPingTimeout time.Duration
	// Health tunes worker health scoring (EWMA rates, adaptive leases,
	// brown-out); zero values take HealthConfig defaults.
	Health HealthConfig
	// ReapAttempts / ReapBackoff shape the retry loop that cancels
	// abandoned worker-side jobs after a steal won or a client
	// cancelled (defaults 4 / 250ms, doubling).
	ReapAttempts int
	ReapBackoff  time.Duration

	// Client tunes the per-worker HTTP clients; BaseURL is overwritten
	// per worker.
	Client client.Config
	// Registry receives coordinator metrics (default: fresh registry).
	Registry *metrics.Registry
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
	// Now and Rand are injectable for tests (defaults time.Now and
	// math/rand.Float64). Rand jitters the heartbeat and membership
	// cadences.
	Now  func() time.Time
	Rand func() float64
}

// Coordinator metric names. The job-plane series (queue depth through
// standby) are the plane's, under the lggfed_ prefix; the rest are
// the fleet's.
const (
	MetricQueued           = "lggfed_queue_depth"
	MetricInflight         = "lggfed_inflight_jobs"
	MetricShed             = "lggfed_jobs_shed_total"
	MetricQuotaRefused     = "lggfed_jobs_quota_refused_total"
	MetricJobsDone         = "lggfed_jobs_done_total"
	MetricJobsFailed       = "lggfed_jobs_failed_total"
	MetricStandby          = "lggfed_standby"
	MetricFleet            = "lggfed_fleet_size"
	MetricRangesDone       = "lggfed_ranges_done_total"
	MetricRangesStolen     = "lggfed_ranges_stolen_total"
	MetricRangesRetried    = "lggfed_ranges_retried_total"
	MetricCellsCompacted   = "lggfed_cells_compacted_total"
	MetricEpoch            = "lggfed_epoch"
	MetricRank             = "lggfed_rank"
	MetricFailovers        = "lggfed_failovers_total"
	MetricDemotions        = "lggfed_demotions_total"
	MetricHeartbeatsMissed = "lggfed_heartbeats_missed_total"
	MetricMembersSuspect   = "lggfed_members_suspect"
	MetricBrownedOut       = "lggfed_workers_browned_out"
	MetricReapFailures     = "lggfed_reap_failures_total"
)

// worker is one fleet member's client handle. Liveness lives in the
// membership table, scheduling health in the health board — both keyed
// by URL.
type worker struct {
	url string
	cli *client.Client
}

// Coordinator shards sweep jobs across a fleet of lggd daemons: the job
// plane with a fleet executor. Construct with New, serve its Handler,
// stop with Drain.
type Coordinator struct {
	*server.Plane
	cfg     Config
	rstore  *resultStore
	members *membership
	health  *healthBoard

	upstreams []*upstream // the failover chain this coordinator monitors

	mu           sync.Mutex
	workers      map[string]*worker
	outstanding  map[string]int  // live range attempts per worker URL
	probing      map[string]bool // urls with an in-flight liveness probe
	rrWorker     int             // round-robin cursor for range placement
	epoch        int64
	mirrorEpoch  int64 // primary's epoch as last mirrored by a standby
	maxSeenEpoch int64 // highest epoch observed from any coordinator

	gFleet, gEpoch, gRank, gSuspect, gBrowned *metrics.Gauge
	cRanges, cStolen, cRetried, cCells        *metrics.Counter
	cFailovers, cDemotions                    *metrics.Counter
	cBeatsMissed, cReapFail                   *metrics.Counter
}

// upstream is one coordinator in the failover chain that this one
// monitors: the primary and every better-ranked standby for a follower,
// or the configured watch set for an acting primary's guard loop. The
// client is single-attempt — the follow and guard loops are the retry
// policy.
type upstream struct {
	url string
	cli *client.Client
}

// New opens the state directory, replays the ledger (re-queueing
// unfinished jobs), connects the seed fleet and starts the dispatchers —
// or, in standby mode, the primary-tailing follow loop.
func New(cfg Config) (*Coordinator, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("federation: Config.StateDir is required")
	}
	if cfg.Standby && cfg.Primary == "" {
		return nil, fmt.Errorf("federation: standby mode requires Config.Primary")
	}
	if cfg.Rank < 0 {
		return nil, fmt.Errorf("federation: Config.Rank must be non-negative")
	}
	if cfg.Standby && cfg.Rank == 0 {
		cfg.Rank = 1
	}
	if cfg.TenantQuota == 0 {
		cfg.TenantQuota = 4
	}
	if cfg.RangeRuns <= 0 {
		cfg.RangeRuns = 8
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 60 * time.Second
	}
	if cfg.StealMax <= 0 {
		cfg.StealMax = 2
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.FailoverAfter <= 0 {
		cfg.FailoverAfter = 5 * time.Second
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 75 * time.Second
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 2 * cfg.SuspectAfter
	}
	if cfg.JoinPingTimeout <= 0 {
		cfg.JoinPingTimeout = 2 * time.Second
	}
	if cfg.ReapAttempts <= 0 {
		cfg.ReapAttempts = 4
	}
	if cfg.ReapBackoff <= 0 {
		cfg.ReapBackoff = 250 * time.Millisecond
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
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Rand == nil {
		cfg.Rand = mrand.Float64
	}
	c := &Coordinator{
		cfg:         cfg,
		members:     newMembership(cfg.SuspectAfter, cfg.DeadAfter, cfg.Now),
		health:      newHealthBoard(cfg.Health, cfg.Lease, cfg.Now),
		workers:     make(map[string]*worker),
		outstanding: make(map[string]int),
		probing:     make(map[string]bool),
	}
	// The failover chain: a standby monitors the primary plus every
	// better-ranked standby; an acting primary guards against the URLs
	// in its watch set.
	chain := cfg.Watch
	if cfg.Standby {
		chain = append([]string{cfg.Primary}, cfg.Watch...)
	}
	for _, url := range chain {
		ucfg := cfg.Client
		ucfg.BaseURL = url
		ucfg.MaxAttempts = 1 // the follow/guard loop is the retry policy
		ucli, err := client.New(ucfg)
		if err != nil {
			return nil, fmt.Errorf("federation: upstream %s: %w", url, err)
		}
		c.upstreams = append(c.upstreams, &upstream{url: url, cli: ucli})
	}
	reg := cfg.Registry
	c.gFleet = reg.Gauge(MetricFleet, "Workers in the fleet.")
	c.gEpoch = reg.Gauge(MetricEpoch, "Leadership epoch (increments at every failover).")
	c.gRank = reg.Gauge(MetricRank, "This coordinator's fixed failover rank (0 = configured primary).")
	c.gSuspect = reg.Gauge(MetricMembersSuspect, "Fleet members past the suspicion threshold.")
	c.gBrowned = reg.Gauge(MetricBrownedOut, "Workers browned out by error rate.")
	c.cRanges = reg.Counter(MetricRangesDone, "Ranges completed by the fleet.")
	c.cStolen = reg.Counter(MetricRangesStolen, "Ranges re-leased past their straggler deadline.")
	c.cRetried = reg.Counter(MetricRangesRetried, "Range attempts retried after a worker failure.")
	c.cCells = reg.Counter(MetricCellsCompacted, "Per-cell summaries written to the result index.")
	c.cFailovers = reg.Counter(MetricFailovers, "Standby promotions to primary.")
	c.cDemotions = reg.Counter(MetricDemotions, "Acting primaries that stepped back down to standby.")
	c.cBeatsMissed = reg.Counter(MetricHeartbeatsMissed, "Failed heartbeat polls of the primary.")
	c.cReapFail = reg.Counter(MetricReapFailures, "Abandoned worker jobs the reaper gave up cancelling.")
	for _, url := range cfg.Workers {
		if err := c.addWorker(url, false); err != nil {
			return nil, err
		}
	}

	// A standby owns no fleet leases; a client it refuses should submit
	// to the primary — or retry here after a failover promotes us.
	standbyRetry := int(cfg.FailoverAfter / time.Second)
	if standbyRetry < 1 {
		standbyRetry = 1
	}
	var err error
	c.Plane, err = server.NewPlane(server.Config{
		StateDir:   cfg.StateDir,
		Jobs:       cfg.Jobs,
		QueueDepth: cfg.QueueDepth,
		FindGrid:   cfg.FindGrid,
		Registry:   cfg.Registry,
		Logf:       cfg.Logf,
	}, server.Role{
		Name:              "lggfed",
		Exec:              c,
		Quota:             cfg.TenantQuota,
		Standby:           cfg.Standby,
		StandbyRetryAfter: standbyRetry,
	})
	if err != nil {
		return nil, err
	}
	if c.rstore, err = openResultStore(cfg.StateDir); err != nil {
		_ = c.Plane.Drain(context.Background()) // closes the ledger; nothing runs yet
		return nil, err
	}
	c.routes()

	c.gRank.Set(int64(cfg.Rank))
	if cfg.Standby {
		c.Go(c.followLoop)
	} else {
		c.epoch = 1
		c.gEpoch.Set(1)
		if len(c.upstreams) > 0 {
			c.Go(c.guardLoop)
		}
	}
	c.Go(c.membershipLoop)
	c.Start()
	return c, nil
}

// jitter spreads a cadence across [d/2, 3d/2) so restarted fleet
// members desynchronise instead of thundering in lockstep.
func (c *Coordinator) jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(c.cfg.Rand()*float64(d))
}

// addWorker connects a worker URL to the fleet and refreshes its
// membership age. ping validates the worker's liveness first — through
// a single-attempt client bounded by JoinPingTimeout, so a hung peer
// cannot block the join handler (seed workers are added unpinged so the
// coordinator can start ahead of its fleet).
func (c *Coordinator) addWorker(url string, ping bool) error {
	ccfg := c.cfg.Client
	ccfg.BaseURL = url
	cli, err := client.New(ccfg)
	if err != nil {
		return fmt.Errorf("federation: worker %s: %w", url, err)
	}
	if ping {
		pcfg := c.cfg.Client
		pcfg.BaseURL = url
		pcfg.MaxAttempts = 1
		if pcfg.HTTP == nil {
			pcfg.HTTP = &http.Client{Timeout: c.cfg.JoinPingTimeout}
		}
		pcli, err := client.New(pcfg)
		if err != nil {
			return fmt.Errorf("federation: worker %s: %w", url, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.JoinPingTimeout)
		defer cancel()
		if err := pcli.Ping(ctx); err != nil {
			return fmt.Errorf("federation: worker %s failed liveness: %w", url, err)
		}
	}
	c.mu.Lock()
	_, known := c.workers[url]
	if !known {
		c.workers[url] = &worker{url: url, cli: cli}
	}
	c.mu.Unlock()
	if c.members.observe(url) {
		c.cfg.Logf("lggfed: worker %s joined (fleet size %d)", url, c.members.size())
	}
	c.gFleet.Set(int64(c.members.size()))
	return nil
}

// ensureWorker builds a client handle for a URL learned from the
// primary's fleet view without refreshing its membership age (the
// caller already merged the primary's age claim; claiming direct
// contact would forge freshness).
func (c *Coordinator) ensureWorker(url string) {
	ccfg := c.cfg.Client
	ccfg.BaseURL = url
	cli, err := client.New(ccfg)
	if err != nil {
		c.cfg.Logf("lggfed: mirrored worker %s: %v", url, err)
		return
	}
	c.mu.Lock()
	if _, ok := c.workers[url]; !ok {
		c.workers[url] = &worker{url: url, cli: cli}
		c.cfg.Logf("lggfed: worker %s learned from the primary (fleet size %d)", url, c.members.size())
	}
	c.mu.Unlock()
	c.gFleet.Set(int64(c.members.size()))
}

// Fleet lists the current worker URLs in join order.
func (c *Coordinator) Fleet() []string {
	rows := c.members.view()
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = row.url
	}
	return out
}

// FleetMembers is the live-worker view served at GET /v1/fleet: each
// member's liveness state, age since last contact, and scheduling
// health.
func (c *Coordinator) FleetMembers() []server.FleetMember {
	rows := c.members.view()
	out := make([]server.FleetMember, 0, len(rows))
	for _, row := range rows {
		out = append(out, server.FleetMember{
			URL:    row.url,
			State:  row.state,
			AgeMS:  row.age.Milliseconds(),
			Health: c.health.snapshot(row.url, c.cfg.RangeRuns),
		})
	}
	return out
}

// Status is the heartbeat payload served at GET /v1/coordinator/status.
func (c *Coordinator) Status() server.CoordStatus {
	c.mu.Lock()
	epoch := c.epoch
	c.mu.Unlock()
	role := server.RolePrimary
	if c.Standby() {
		role = server.RoleStandby
	}
	return server.CoordStatus{Epoch: epoch, Role: role, Rank: c.cfg.Rank, Fleet: c.FleetMembers(), Jobs: c.Jobs()}
}

// nextWorker picks a worker for one range attempt, preferring — in
// order — an alive, healthy worker not in exclude; then any non-excluded
// worker; then anyone at all (a degraded fleet still beats abandoning
// the range). Among the healthy (first-pass) candidates placement is
// capacity-weighted least-loaded: each candidate is scored by its live
// attempt count divided by its effective service rate
// (max of declared capacity and observed EWMA), so a worker that
// declares — or demonstrates — twice the throughput absorbs twice the
// outstanding ranges before a peer is preferred. Rate-less fleets
// degenerate to the plain least-loaded round-robin. The chosen worker's
// outstanding count is incremented here; the caller releases it via
// releaseWorker when the attempt resolves.
func (c *Coordinator) nextWorker(exclude map[string]bool) *worker {
	rows := c.members.view()
	n := len(rows)
	if n == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Pass 0: alive, non-excluded workers ordered by load per unit of
	// capacity (round-robin position breaks ties, preserving rotation).
	type candidate struct {
		w    *worker
		url  string
		load float64
		ord  int
	}
	var cands []candidate
	for i := 0; i < n; i++ {
		row := rows[(c.rrWorker+i)%n]
		w := c.workers[row.url]
		if w == nil || exclude[row.url] || row.state != stateAlive {
			continue
		}
		weight := c.health.effectiveRate(row.url)
		if weight <= 0 {
			weight = 1
		}
		cands = append(cands, candidate{w: w, url: row.url, load: float64(c.outstanding[row.url]) / weight, ord: i})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].load != cands[b].load {
			return cands[a].load < cands[b].load
		}
		return cands[a].ord < cands[b].ord
	})
	for _, cd := range cands {
		// health.available claims the half-open probe slot of a
		// cooled-down brown-out, so it must run only on a worker we
		// will actually use — it is the last check.
		if c.health.available(cd.url) {
			c.rrWorker = (c.rrWorker + cd.ord + 1) % n
			c.outstanding[cd.url]++
			return cd.w
		}
	}
	for pass := 1; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			row := rows[(c.rrWorker+i)%n]
			w := c.workers[row.url]
			if w == nil {
				continue
			}
			if pass < 2 && exclude[row.url] {
				continue
			}
			c.rrWorker = (c.rrWorker + i + 1) % n
			c.outstanding[row.url]++
			return w
		}
	}
	return nil
}

// releaseWorker retires one live range attempt from url's outstanding
// count (the capacity-weighted dispatch denominator).
func (c *Coordinator) releaseWorker(url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.outstanding[url] <= 1 {
		delete(c.outstanding, url)
	} else {
		c.outstanding[url]--
	}
}

// Check refuses pre-sharded specs: run ranges are the coordinator's own
// unit of dispatch.
func (c *Coordinator) Check(spec server.JobSpec) error {
	if spec.RunCount > 0 || spec.RunStart > 0 {
		return fmt.Errorf("federation: run_start/run_count are reserved for the coordinator's own sharding")
	}
	return nil
}

// runRange is one contiguous shard of a job.
type runRange struct {
	start, count int
}

// Execute is the fleet executor: it shards one job across the fleet,
// merges the returned ranges into the job's journal in global index
// order, and compacts the finished job into the result index. The job
// gets no deadline of its own; its timeout_ms applies per range on the
// workers.
func (c *Coordinator) Execute(ctx context.Context, jb *server.Job) error {
	st := jb.State()
	spec, id := st.Spec, st.ID
	g, err := c.cfg.FindGrid(spec.Grid)
	if err != nil {
		return err
	}
	total := len(g.Jobs(spec.Config()))
	if total == 0 {
		return errors.New("grid enumerates zero runs")
	}
	journal, prefix, err := sweep.OpenJournalResume(c.JournalPath(id), total)
	if err != nil {
		return err
	}
	jb.SetTotal(total)
	for _, r := range prefix {
		jb.Record(r)
	}

	var (
		mergeMu sync.Mutex
		merged  = make([]sweep.Result, 0, total)
	)
	merged = append(merged, prefix...)
	merger := sweep.NewMerger(total, func(r sweep.Result) error {
		merged = append(merged, r)
		if err := journal.Append(r); err != nil {
			return err
		}
		jb.Record(r)
		return nil
	})
	merger.Resume(len(prefix))

	// The merged prefix is already durable; shard only what remains.
	var ranges []runRange
	for s := len(prefix); s < total; s += c.cfg.RangeRuns {
		n := c.cfg.RangeRuns
		if s+n > total {
			n = total - s
		}
		ranges = append(ranges, runRange{start: s, count: n})
	}

	// jobKey makes worker-side idempotency keys deterministic per
	// coordinator job, so a restarted (or freshly promoted) coordinator
	// with the same job id re-attaches to worker jobs it — or its failed
	// predecessor — already submitted instead of re-running them.
	jobKey := id
	if spec.IdempotencyKey != "" {
		jobKey = spec.IdempotencyKey
	}

	// One lost range fails the job: its error cancels the rest.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	width := c.members.size()
	if width < 1 {
		width = 1
	}
	sem := make(chan struct{}, width)
	var (
		wg       sync.WaitGroup
		failMu   sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		failMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel(err)
		}
		failMu.Unlock()
	}
	for _, rg := range ranges {
		rg := rg
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rs, err := c.runRange(ctx, spec, jobKey, rg)
			if err != nil {
				fail(err)
				return
			}
			mergeMu.Lock()
			err = merger.Add(rs)
			mergeMu.Unlock()
			if err != nil {
				fail(err)
				return
			}
			c.cRanges.Inc()
		}()
	}
	wg.Wait()

	runErr := firstErr
	if runErr == nil {
		runErr = merger.Close()
	}
	if cerr := journal.Close(); cerr != nil && runErr == nil {
		runErr = fmt.Errorf("journal close: %w", cerr)
	}
	if runErr == nil {
		c.compact(id, spec, merged)
	}
	return runErr
}

// rangeOutcome is one attempt's verdict.
type rangeOutcome struct {
	rs  []sweep.Result
	err error
	url string
	dur time.Duration
}

// runRange executes one shard with straggler work-stealing: the first
// attempt gets its worker's adaptive lease to finish; each lease expiry
// launches another attempt on a different worker and the first success
// wins. Failed attempts relaunch immediately on the next worker. The
// live-attempt cap is StealMax, widened by any attempts stuck on
// suspect or browned-out workers (a dying worker must not pin the range
// to itself); the total attempt budget is maxAttempts, and exhausting
// it fails the range (and hence the job).
func (c *Coordinator) runRange(ctx context.Context, spec server.JobSpec, jobKey string, rg runRange) ([]sweep.Result, error) {
	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel() // losers stop polling once a winner returns

	fleetSize := c.members.size()
	if fleetSize == 0 {
		return nil, fmt.Errorf("federation: no workers in the fleet")
	}
	maxAttempts := 2 * fleetSize
	if maxAttempts < 3 {
		maxAttempts = 3
	}
	// Buffered to the attempt budget: an abandoned attempt's send never
	// blocks, so no goroutine outlives the range by more than its own
	// HTTP teardown.
	outcome := make(chan rangeOutcome, maxAttempts)
	tried := make(map[string]bool)
	liveOn := make(map[string]int)
	attempts, live := 0, 0
	var lastErr error

	// launch starts one more attempt and returns the chosen worker's
	// adaptive lease (0 when no worker was found).
	launch := func() time.Duration {
		w := c.nextWorker(tried)
		if w == nil {
			return 0
		}
		tried[w.url] = true
		attempts++
		live++
		liveOn[w.url]++
		c.Go(func(<-chan struct{}) {
			began := time.Now()
			rs, err := c.attemptRange(rctx, w, spec, jobKey, rg)
			// Released here, not in the channel reader: an abandoned
			// attempt's goroutine outlives the range, and its slot must
			// count against the worker's capacity until it resolves.
			c.releaseWorker(w.url)
			outcome <- rangeOutcome{rs: rs, err: err, url: w.url, dur: time.Since(began)}
		})
		return c.health.lease(w.url, rg.count)
	}
	leaseDur := launch()
	if leaseDur <= 0 {
		leaseDur = c.cfg.Lease
	}
	lease := time.NewTimer(leaseDur)
	defer lease.Stop()

	for {
		select {
		case o := <-outcome:
			live--
			liveOn[o.url]--
			if o.err == nil {
				c.health.success(o.url, rg.count, o.dur)
				c.members.observe(o.url)
				return o.rs, nil
			}
			lastErr = fmt.Errorf("range %d+%d on %s: %w", rg.start, rg.count, o.url, o.err)
			if rctx.Err() != nil {
				return nil, lastErr
			}
			c.health.failure(o.url)
			c.cfg.Logf("lggfed: %v", lastErr)
			if attempts >= maxAttempts {
				if live == 0 {
					return nil, fmt.Errorf("federation: range abandoned after %d attempts: %w", attempts, lastErr)
				}
				continue // a steal is still in flight; it may yet win
			}
			c.cRetried.Inc()
			if d := launch(); d > 0 {
				lease.Stop()
				lease.Reset(d)
			}
		case <-lease.C:
			next := c.cfg.Lease
			if live < c.cfg.StealMax+c.stuckAttempts(liveOn) && attempts < maxAttempts {
				c.cStolen.Inc()
				c.cfg.Logf("lggfed: range %d+%d past its lease, re-leasing", rg.start, rg.count)
				if d := launch(); d > 0 {
					next = d
				}
			}
			lease.Reset(next)
		case <-rctx.Done():
			return nil, rctx.Err()
		}
	}
}

// stuckAttempts counts live attempts held by workers that are currently
// suspect or browned out; runRange widens the steal budget by this much
// so a dying worker's lease cannot exclude healthy replacements.
func (c *Coordinator) stuckAttempts(liveOn map[string]int) int {
	extra := 0
	for url, n := range liveOn {
		if n > 0 && (c.members.suspected(url) || c.health.unhealthyNow(url)) {
			extra += n
		}
	}
	return extra
}

// attemptRange runs one shard on one worker: submit the range job
// (deterministic idempotency key → retries, coordinator restarts and
// failovers re-attach, never duplicate), poll to terminal, fetch and
// sanity-check the results. A context cancelled mid-wait (a steal won,
// the job was cancelled, or another range failed it) hands the
// abandoned worker-side job to the retrying reaper — except on a drain
// or demotion checkpoint, where worker jobs survive by design so the
// next primary re-attaches to them.
func (c *Coordinator) attemptRange(ctx context.Context, w *worker, spec server.JobSpec, jobKey string, rg runRange) ([]sweep.Result, error) {
	spec.RunStart, spec.RunCount = rg.start, rg.count
	spec.IdempotencyKey = fmt.Sprintf("%s/%d+%d", jobKey, rg.start, rg.count)
	st, err := w.cli.Submit(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	workerJob := st.ID
	st, err = w.cli.Wait(ctx, workerJob, c.cfg.Poll)
	if err != nil {
		if ctx.Err() != nil && !server.Checkpointed(ctx) {
			c.Go(func(stop <-chan struct{}) { c.reap(stop, w, workerJob) })
		}
		return nil, fmt.Errorf("wait: %w", err)
	}
	if st.Status != server.StatusDone {
		return nil, fmt.Errorf("worker job %s ended %s: %s", workerJob, st.Status, st.Error)
	}
	rs, err := w.cli.Results(ctx, workerJob)
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	if len(rs) != rg.count {
		return nil, fmt.Errorf("worker returned %d results for a %d-run range", len(rs), rg.count)
	}
	for i, r := range rs {
		if r.Index != rg.start+i {
			return nil, fmt.Errorf("worker result %d has index %d, want %d (determinism contract violated)", i, r.Index, rg.start+i)
		}
	}
	return rs, nil
}

// reap cancels an abandoned worker-side job (its attempt lost a steal
// race or the client cancelled the coordinator job) with retries and
// doubling backoff; a job the reaper finally gives up on is surfaced on
// lggfed_reap_failures_total instead of silently leaking worker
// capacity. A coordinator drain (stop) aborts the retries.
func (c *Coordinator) reap(stop <-chan struct{}, w *worker, workerJob string) {
	backoff := c.cfg.ReapBackoff
	var lastErr error
	for attempt := 0; attempt < c.cfg.ReapAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-stop:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		_, err := w.cli.Cancel(ctx, workerJob)
		cancel()
		if err == nil {
			return
		}
		var se *client.StatusError
		if errors.As(err, &se) && se.Code == http.StatusNotFound {
			return // already gone — reaped is reaped
		}
		lastErr = err
	}
	c.cReapFail.Inc()
	c.cfg.Logf("lggfed: reap of worker job %s on %s failed after %d attempts: %v",
		workerJob, w.url, c.cfg.ReapAttempts, lastErr)
}

// membershipLoop ages the fleet: stale members get an active liveness
// probe (statically seeded workers never re-join, so without probing a
// healthy fleet would silently age out), members past DeadAfter are
// removed, and the fleet gauges — including the per-worker health
// export — are refreshed.
func (c *Coordinator) membershipLoop(stop <-chan struct{}) {
	tick := c.cfg.SuspectAfter / 8
	if tick < 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	if tick > 10*time.Second {
		tick = 10 * time.Second
	}
	for {
		select {
		case <-stop:
			return
		case <-time.After(c.jitter(tick)):
		}
		c.membershipRound()
	}
}

func (c *Coordinator) membershipRound() {
	for _, url := range c.members.stale(c.cfg.SuspectAfter / 2) {
		c.mu.Lock()
		w := c.workers[url]
		busy := c.probing[url]
		if w != nil && !busy {
			c.probing[url] = true
		}
		c.mu.Unlock()
		if w == nil || busy {
			continue
		}
		go func(url string, w *worker) {
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.JoinPingTimeout)
			err := w.cli.Ping(ctx)
			cancel()
			if err == nil {
				c.members.observe(url)
			}
			c.mu.Lock()
			delete(c.probing, url)
			c.mu.Unlock()
		}(url, w)
	}
	for _, url := range c.members.sweepDead() {
		c.mu.Lock()
		delete(c.workers, url)
		c.mu.Unlock()
		c.health.forget(url)
		c.cfg.Logf("lggfed: worker %s unheard from for %v, aged out of the fleet", url, c.cfg.DeadAfter)
	}
	c.updateFleetMetrics()
}

// updateFleetMetrics refreshes the fleet gauges, including one gauge
// set per worker (suffixed with the sanitised worker address) so
// brown-outs and adaptive leases are observable per worker.
func (c *Coordinator) updateFleetMetrics() {
	rows := c.members.view()
	c.gFleet.Set(int64(len(rows)))
	suspect := 0
	for _, row := range rows {
		if row.state == stateSuspect {
			suspect++
		}
		h := c.health.snapshot(row.url, c.cfg.RangeRuns)
		sfx := metricSuffix(row.url)
		state := int64(1)
		if row.state != stateAlive {
			state = 0
		}
		c.cfg.Registry.Gauge("lggfed_worker_state_"+sfx, "Worker liveness (1 alive, 0 suspect).").Set(state)
		brown := int64(0)
		if h.BrownedOut {
			brown = 1
		}
		c.cfg.Registry.Gauge("lggfed_worker_browned_out_"+sfx, "Worker brown-out (1 browned out).").Set(brown)
		c.cfg.Registry.Gauge("lggfed_worker_milli_runs_per_sec_"+sfx, "EWMA service rate in milli-runs per second.").Set(int64(h.EWMARunsPerSec * 1000))
		c.cfg.Registry.Gauge("lggfed_worker_failures_"+sfx, "Failed range attempts on this worker.").Set(h.Failures)
		c.cfg.Registry.Gauge("lggfed_worker_lease_ms_"+sfx, "Adaptive straggler lease in milliseconds.").Set(h.LeaseMS)
	}
	c.gSuspect.Set(int64(suspect))
	c.gBrowned.Set(int64(c.health.brownedOut()))
}

// metricSuffix folds a worker URL into the Prometheus name charset:
// the scheme is dropped and every rune outside [a-zA-Z0-9_:] maps
// to '_'.
func metricSuffix(url string) string {
	if i := strings.Index(url, "://"); i >= 0 {
		url = url[i+3:]
	}
	var b strings.Builder
	for _, r := range url {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteRune('_')
		}
	}
	return b.String()
}

// compact distils a finished job into per-cell summaries in the result
// index. Compaction failures are logged, not fatal — the merged journal
// remains the source of truth.
func (c *Coordinator) compact(id string, spec server.JobSpec, merged []sweep.Result) {
	n, err := c.rstore.compact(id, spec, merged, c.cfg.KeepJournals, func(evict string) {
		// Best effort: a journal left behind is harmless.
		_ = os.Remove(c.JournalPath(evict))
	})
	if err != nil {
		c.cfg.Logf("lggfed: compact %s: %v", id, err)
		return
	}
	c.cCells.Add(int64(n))
}

// Drain gracefully stops the coordinator: the plane's drain (admission
// closes, queued jobs stay durably queued, in-flight jobs get until
// ctx's deadline before being checkpointed mid-merge, with worker-side
// range jobs left running to be re-attached by idempotency key on the
// next start) also stops the follow, guard and membership loops; the
// result index closes last.
func (c *Coordinator) Drain(ctx context.Context) error {
	if err := c.Plane.Drain(ctx); err != nil {
		return err
	}
	return c.rstore.close()
}
