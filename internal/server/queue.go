package server

// The tenant queue is the plane's admission layer: a bounded
// multi-tenant queue that (a) caps each tenant's live jobs — queued plus
// running — at a quota, and (b) dispatches round-robin across tenants
// with pending work, so a tenant that bulk-submits cannot starve the
// others however deep its backlog. A coordinator sets a quota; a single
// daemon sets none, and with one tenant its dispatch is plain FIFO. Both
// refusals surface as HTTP 429 + Retry-After, so the hardened client's
// retry/breaker machinery treats them like any shed.

// tenantQueue implements per-tenant quotas with fair-share dispatch.
// Not safe for concurrent use; the Plane serializes access under its
// own mutex.
type tenantQueue struct {
	quota  int // max live (queued+running) jobs per tenant; <=0 = unlimited
	depth  int // max total queued jobs across tenants
	queued int // current total queued

	tenants map[string]*tenantState
	rr      []string // tenant names in first-seen order, the round-robin ring
	rrNext  int      // ring position of the next dispatch scan
}

type tenantState struct {
	fifo []*Job // queued jobs, submission order
	live int    // queued + running jobs counted against the quota
}

func newTenantQueue(quota, depth int) *tenantQueue {
	return &tenantQueue{quota: quota, depth: depth, tenants: make(map[string]*tenantState)}
}

// state returns (creating if needed) the tenant's bookkeeping and its
// ring slot.
func (q *tenantQueue) state(tenant string) *tenantState {
	ts, ok := q.tenants[tenant]
	if !ok {
		ts = &tenantState{}
		q.tenants[tenant] = ts
		q.rr = append(q.rr, tenant)
	}
	return ts
}

// admissible reports whether the tenant may enqueue one more job:
// overQuota means its live-job quota is exhausted; full means the
// shared queue bound is hit. Admission is refused for either.
func (q *tenantQueue) admissible(tenant string) (overQuota, full bool) {
	if q.quota > 0 {
		if ts, ok := q.tenants[tenant]; ok && ts.live >= q.quota {
			overQuota = true
		}
	}
	return overQuota, q.depth > 0 && q.queued >= q.depth
}

// push enqueues an admitted job and charges the tenant's quota.
func (q *tenantQueue) push(tenant string, jb *Job) {
	ts := q.state(tenant)
	ts.fifo = append(ts.fifo, jb)
	ts.live++
	q.queued++
}

// pop dequeues the next job fair-share: the scan starts one past the
// tenant served last time and takes the first tenant with pending work,
// so each tenant in the ring gets one job per round regardless of
// backlog depth. The popped job stays live (running) until release.
func (q *tenantQueue) pop() *Job {
	n := len(q.rr)
	for i := 0; i < n; i++ {
		name := q.rr[(q.rrNext+i)%n]
		ts := q.tenants[name]
		if len(ts.fifo) == 0 {
			continue
		}
		jb := ts.fifo[0]
		ts.fifo = ts.fifo[1:]
		q.queued--
		q.rrNext = (q.rrNext + i + 1) % n
		return jb
	}
	return nil
}

// remove drops a specific queued job (client cancel before dispatch)
// and refunds its quota charge. Reports whether it was found queued.
func (q *tenantQueue) remove(tenant string, jb *Job) bool {
	ts, ok := q.tenants[tenant]
	if !ok {
		return false
	}
	for i, cand := range ts.fifo {
		if cand == jb {
			ts.fifo = append(ts.fifo[:i], ts.fifo[i+1:]...)
			ts.live--
			q.queued--
			return true
		}
	}
	return false
}

// release uncharges a tenant's quota when one of its jobs reaches a
// terminal state (done, failed, or cancelled while running).
func (q *tenantQueue) release(tenant string) {
	if ts, ok := q.tenants[tenant]; ok && ts.live > 0 {
		ts.live--
	}
}

// alignAfter re-seats the round-robin scan to start just past tenant.
// A restarted plane rebuilds the ring from its ledger replay and calls
// this with the last tenant dispatched before the crash, so the
// tenant served last is not served first again. An unknown (or empty)
// tenant leaves the cursor alone.
func (q *tenantQueue) alignAfter(tenant string) {
	for i, name := range q.rr {
		if name == tenant {
			q.rrNext = (i + 1) % len(q.rr)
			return
		}
	}
}

// pending reports the total queued jobs.
func (q *tenantQueue) pending() int { return q.queued }
