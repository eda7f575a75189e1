package federation

import (
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// vclock is the injectable clock for membership/health tests: time only
// moves when the test says so, so suspicion and brown-out windows are
// exact instead of sleep-raced.
type vclock struct {
	mu sync.Mutex
	t  time.Time
}

func newVClock() *vclock { return &vclock{t: time.Unix(1000, 0)} }

func (c *vclock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *vclock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// fleetWire renders a membership view as the gossip wire payload.
func fleetWire(m *membership) []server.FleetMember {
	rows := m.view()
	out := make([]server.FleetMember, 0, len(rows))
	for _, r := range rows {
		out = append(out, server.FleetMember{URL: r.url, State: r.state, AgeMS: r.age.Milliseconds()})
	}
	return out
}

func TestMembershipSuspicionAndAgeOut(t *testing.T) {
	clk := newVClock()
	m := newMembership(75*time.Second, 150*time.Second, clk.now)
	if !m.observe("http://w1") {
		t.Fatal("first observe did not report a new member")
	}
	if m.observe("http://w1") {
		t.Fatal("re-observe reported the member as new")
	}

	clk.advance(60 * time.Second)
	if v := m.view(); v[0].state != stateAlive {
		t.Fatalf("at 60s the member is %q, want alive until 75s", v[0].state)
	}
	if m.suspected("http://w1") {
		t.Fatal("suspected before the threshold")
	}

	clk.advance(20 * time.Second) // 80s without contact
	if v := m.view(); v[0].state != stateSuspect {
		t.Fatalf("at 80s the member is %q, want suspect", v[0].state)
	}
	if !m.suspected("http://w1") {
		t.Fatal("not suspected past the threshold")
	}
	if dead := m.sweepDead(); len(dead) != 0 {
		t.Fatalf("swept %v before the death threshold", dead)
	}

	// Contact clears suspicion.
	m.observe("http://w1")
	if v := m.view(); v[0].state != stateAlive {
		t.Fatalf("after fresh contact the member is %q, want alive", v[0].state)
	}

	clk.advance(150 * time.Second)
	if dead := m.sweepDead(); len(dead) != 1 || dead[0] != "http://w1" {
		t.Fatalf("sweepDead = %v, want [http://w1]", dead)
	}
	if m.size() != 0 {
		t.Fatalf("member survived its own death: size %d", m.size())
	}
}

// TestMembershipGossipConvergesAndAgesOut drives two membership tables
// with no seed overlap through gossip exchanges on a virtual clock:
// they converge on the union, gossip keeps a live worker fresh on the
// coordinator that never talks to it directly, and a departed worker
// ages out of BOTH views within the suspicion→death window — without
// being resurrected by continued gossip.
func TestMembershipGossipConvergesAndAgesOut(t *testing.T) {
	clk := newVClock()
	a := newMembership(75*time.Second, 150*time.Second, clk.now)
	b := newMembership(75*time.Second, 150*time.Second, clk.now)
	a.observe("http://w1")
	b.observe("http://w2")

	exchange := func() {
		av, bv := fleetWire(a), fleetWire(b)
		a.merge(bv)
		b.merge(av)
	}
	exchange()
	if a.size() != 2 || b.size() != 2 {
		t.Fatalf("after one exchange sizes are %d/%d, want 2/2", a.size(), b.size())
	}
	for _, m := range []*membership{a, b} {
		urls := map[string]bool{}
		for _, row := range m.view() {
			urls[row.url] = true
		}
		if !urls["http://w1"] || !urls["http://w2"] {
			t.Fatalf("view did not converge on the union: %v", urls)
		}
	}

	// Only w1 stays in contact, and only with a; w2 departs.
	clk.advance(80 * time.Second)
	a.observe("http://w1")
	exchange()
	if b.suspected("http://w1") {
		t.Fatal("gossip failed to relay w1's freshness to b")
	}
	if !a.suspected("http://w2") || !b.suspected("http://w2") {
		t.Fatal("departed w2 should be suspect on both views")
	}

	clk.advance(80 * time.Second) // w2 at 160s ≥ 150s death threshold
	a.observe("http://w1")
	if dead := a.sweepDead(); len(dead) != 1 || dead[0] != "http://w2" {
		t.Fatalf("a swept %v, want [http://w2]", dead)
	}
	if dead := b.sweepDead(); len(dead) != 1 || dead[0] != "http://w2" {
		t.Fatalf("b swept %v, want [http://w2]", dead)
	}
	// b still remembers w2 is gone even as a's next gossip arrives late —
	// and a peer claiming a member at/past the death threshold never
	// resurrects it.
	b.merge([]server.FleetMember{{URL: "http://w2", State: stateSuspect, AgeMS: (160 * time.Second).Milliseconds()}})
	if b.size() != 1 {
		t.Fatalf("dead member resurrected by gossip: size %d", b.size())
	}
	exchange()
	if a.size() != 1 || b.size() != 1 {
		t.Fatalf("post-death exchange sizes are %d/%d, want 1/1", a.size(), b.size())
	}
}

func TestMembershipMergeNeverRegressesFreshness(t *testing.T) {
	clk := newVClock()
	m := newMembership(75*time.Second, 150*time.Second, clk.now)
	m.observe("http://w1")
	// A peer with an older view (bigger age) must not make w1 look stale.
	m.merge([]server.FleetMember{{URL: "http://w1", State: stateSuspect, AgeMS: (100 * time.Second).Milliseconds()}})
	if m.view()[0].age != 0 {
		t.Fatalf("stale gossip regressed freshness: age %v", m.view()[0].age)
	}
}
