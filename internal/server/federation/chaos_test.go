package federation

import (
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/server"
	"repro/internal/sweep"
)

// withChaos splices a seed-42 injector for sched into cfg's
// worker-facing HTTP transport, registering urls as worker1, worker2, …
// for route matching. The chaos suite exercises the dispatch plane, not
// the client breaker: each worker client gets enough attempts to
// outlast a fault window, and the breaker is kept out of the way.
func withChaos(t *testing.T, cfg Config, sched chaos.Schedule, urls []string) (Config, *chaos.Injector) {
	t.Helper()
	in := chaos.MustInjector(sched, 42)
	for i, u := range urls {
		pu, err := url.Parse(u)
		if err != nil {
			t.Fatal(err)
		}
		in.Register(fmt.Sprintf("worker%d", i+1), pu.Host)
	}
	cfg.Client.MaxAttempts = 4
	cfg.Client.BreakerThreshold = 100
	cfg.Client.HTTP = &http.Client{Transport: in.Transport("coordinator", nil)}
	return cfg, in
}

// TestShippedChaosSchedulesHoldInvariants runs a federated sweep under
// every shipped chaos schedule, with the injector spliced into the
// coordinator's worker-facing HTTP transport, and asserts the four
// serving-plane invariants:
//
//  1. the merged journal is byte-identical to an unfaulted run;
//  2. every run index appears exactly once (no duplicated effects);
//  3. no admitted job is lost — every one reaches a terminal state;
//  4. retry amplification is bounded: total submission attempts stay
//     within a small factor of the run count.
//
// The partition schedule addresses coordinator-to-coordinator routes
// (rank1>primary), so against worker traffic it injects nothing — the
// invariants then assert the trivially healthy case, and the rank
// failover tests plus the chaos smoke script cover the partition
// topology itself.
func TestShippedChaosSchedulesHoldInvariants(t *testing.T) {
	spec := server.JobSpec{Grid: "unit", Seeds: 12, Horizon: 150}
	ref := singleDaemonJournal(t, spec)

	for name, sched := range chaos.Shipped() {
		t.Run(name, func(t *testing.T) {
			var urls []string
			for i := 0; i < 2; i++ {
				_, u := newWorker(t, nil)
				urls = append(urls, u)
			}
			cfg, in := withChaos(t, Config{RangeRuns: 3}, sched, urls)
			c, _ := newCoordinator(t, cfg, urls...)

			st, created, err := c.Admit(spec, "")
			if err != nil || !created {
				t.Fatalf("admit: created=%v err=%v", created, err)
			}
			final := waitTerminal(t, c, st.ID, 120*time.Second)

			var rep chaos.Report
			if final.Status != server.StatusDone {
				rep.Violationf("job ended %s under %s: %s", final.Status, name, final.Error)
			}
			got, err := os.ReadFile(c.JournalPath(st.ID))
			if err != nil {
				t.Fatal(err)
			}
			rep.Check(chaos.ByteIdentical("merged journal", got, ref))

			rs, err := sweep.ReadJournalResults(c.JournalPath(st.ID), spec.Seeds)
			if err != nil {
				t.Fatalf("read merged journal: %v", err)
			}
			indices := make([]int, len(rs))
			for i, r := range rs {
				indices[i] = r.Index
			}
			rep.Check(chaos.CompleteOnce(indices, spec.Seeds))

			rep.Check(chaos.NoJobLost([]string{st.ID},
				func(id string) (string, bool) {
					js, ok := c.Job(id)
					return string(js.Status), ok
				},
				func(s string) bool { return server.JobStatus(s).Terminal() }))

			rep.Check(chaos.BoundedRetries(in.RequestsMatching("POST /v1/jobs"), spec.Seeds, 4))

			if err := rep.Err(); err != nil {
				var b strings.Builder
				_ = in.WriteTranscript(&b)
				t.Fatalf("invariants violated under %q:\n%v\ninjected events:\n%s", name, err, b.String())
			}
			if name != "partition-each-rank" && len(in.Transcript()) == 0 {
				t.Errorf("schedule %q injected nothing into the worker plane", name)
			}
		})
	}
}
