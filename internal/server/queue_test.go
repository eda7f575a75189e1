package server

import "testing"

// TestTenantQueueFairShareUnderChurn exercises the round-robin ring
// while tenants join and leave mid-dispatch: a newcomer slots into the
// scan immediately, departures leave the survivors' ordering intact.
func TestTenantQueueFairShareUnderChurn(t *testing.T) {
	q := newTenantQueue(4, 16)
	ja1, ja2, ja3 := &Job{}, &Job{}, &Job{}
	jb1, jc1 := &Job{}, &Job{}

	q.push("a", ja1)
	q.push("a", ja2)
	q.push("b", jb1)
	if got := q.pop(); got != ja1 {
		t.Fatal("first pop should serve tenant a's first job")
	}
	// Tenant c joins mid-dispatch: the scan reaches it this round,
	// after b but before a comes around again.
	q.push("c", jc1)
	if got := q.pop(); got != jb1 {
		t.Fatal("second pop should serve b")
	}
	if got := q.pop(); got != jc1 {
		t.Fatal("third pop should serve the newly joined c")
	}
	if got := q.pop(); got != ja2 {
		t.Fatal("fourth pop should wrap back to a's backlog")
	}

	// b and c finish everything and leave; a's quota accounting and ring
	// position survive the churn.
	q.release("b")
	q.release("c")
	q.release("a")
	q.release("a")
	q.push("a", ja3)
	if got := q.pop(); got != ja3 {
		t.Fatal("post-churn pop should serve a's new job")
	}
	if got := q.pop(); got != nil {
		t.Fatal("empty queue popped a job")
	}
}

// TestTenantQueueQuotaLoweredBelowLive: shrinking the quota under a
// tenant's live count evicts nothing — admission is simply refused
// until completions bring the tenant back under the new cap.
func TestTenantQueueQuotaLoweredBelowLive(t *testing.T) {
	q := newTenantQueue(4, 16)
	for i := 0; i < 3; i++ {
		q.push("a", &Job{})
	}
	if q.pop() == nil || q.pop() == nil {
		t.Fatal("setup pops failed")
	}
	// live = 3 (1 queued + 2 running); the cap drops to 1.
	q.quota = 1
	if over, _ := q.admissible("a"); !over {
		t.Fatal("tenant above the lowered quota was admissible")
	}
	// The already-queued job still dispatches: lowering the quota does
	// not evict.
	if q.pop() == nil {
		t.Fatal("queued job was evicted by the quota change")
	}
	q.release("a") // live 2
	if over, _ := q.admissible("a"); !over {
		t.Fatal("tenant still above quota was admissible")
	}
	q.release("a") // live 1 == quota: still refused
	if over, _ := q.admissible("a"); !over {
		t.Fatal("tenant at quota was admissible")
	}
	q.release("a") // live 0
	if over, _ := q.admissible("a"); over {
		t.Fatal("tenant under quota was refused")
	}
}

// TestRoundRobinAlignsAcrossRestart replays a ledger whose last
// dispatch went to tenant a, rebuilds the queue the way the coordinator
// does on restart, and checks the round-robin cursor resumes one past a
// — the tenant served last before the crash is not served first again.
func TestRoundRobinAlignsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ledger, _, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := func(id, tenant string, status JobStatus) JobState {
		return JobState{ID: id, Spec: JobSpec{Tenant: tenant}, Status: status}
	}
	for _, js := range []JobState{
		job("job-00000000", "a", StatusQueued),
		job("job-00000001", "b", StatusQueued),
		job("job-00000002", "a", StatusQueued),
		job("job-00000000", "a", StatusRunning), // the pre-crash dispatch
	} {
		if err := ledger.append(js); err != nil {
			t.Fatal(err)
		}
	}
	if err := ledger.close(); err != nil {
		t.Fatal(err)
	}

	reopened, replay, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.close()
	if got := reopened.lastDispatched; got != "a" {
		t.Fatalf("lastDispatched = %q, want a", got)
	}

	// Rebuild the queue exactly as the plane's replay does: every
	// non-terminal job re-queued in ledger order, then the cursor
	// re-seated past the last dispatched tenant.
	q := newTenantQueue(4, 16)
	for _, js := range replay {
		if !js.Status.Terminal() {
			q.push(js.Spec.Tenant, &Job{st: js})
		}
	}
	q.alignAfter(reopened.lastDispatched)

	var order []string
	for jb := q.pop(); jb != nil; jb = q.pop() {
		order = append(order, jb.st.ID)
	}
	want := []string{"job-00000001", "job-00000000", "job-00000002"}
	if len(order) != len(want) {
		t.Fatalf("popped %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("restart dispatch order %v, want %v (b first: a was served last before the crash)", order, want)
		}
	}
}

func TestTenantQueueFairShareAndQuota(t *testing.T) {
	q := newTenantQueue(2, 10)
	mk := func(id string) *Job { return &Job{st: JobState{ID: id}} }

	// Tenant a floods first; b submits one job later. Fair-share pops
	// must alternate a, b rather than draining a's backlog first.
	a1, a2, b1 := mk("a1"), mk("a2"), mk("b1")
	q.push("a", a1)
	q.push("a", a2)
	q.push("b", b1)

	if got := q.pop(); got != a1 {
		t.Fatalf("pop 1: got %s, want a1", got.st.ID)
	}
	if got := q.pop(); got != b1 {
		t.Fatalf("pop 2: got %s, want b1 (fair share)", got.st.ID)
	}
	if got := q.pop(); got != a2 {
		t.Fatalf("pop 3: got %s, want a2", got.st.ID)
	}
	if q.pop() != nil {
		t.Fatal("pop 4: queue should be empty")
	}

	// a still holds 2 live jobs (popped but not released) → over quota;
	// b holds 1 → admissible.
	if over, _ := q.admissible("a"); !over {
		t.Fatal("tenant a should be over its quota of 2")
	}
	if over, _ := q.admissible("b"); over {
		t.Fatal("tenant b should be under quota")
	}
	q.release("a")
	if over, _ := q.admissible("a"); over {
		t.Fatal("tenant a should be admissible after a release")
	}

	// Shared depth bound.
	q2 := newTenantQueue(0, 1)
	q2.push("x", mk("x1"))
	if _, full := q2.admissible("y"); !full {
		t.Fatal("queue of depth 1 with 1 queued should be full")
	}
}
