package federation

import (
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

// Fleet membership with age-based liveness. The coordinator does not
// trust a static -fleet list: every worker contact (a join, a completed
// range, a probe) refreshes that member's lastSeen, members past the
// suspicion threshold are dispatched to only as a last resort, and
// members past the death threshold are dropped so their leases stop
// being renewed. A standby mirrors its primary's view as
// []server.FleetMember carrying AGES, not timestamps — receiver-side
// ages are reconstructed as now−AgeMS, so two coordinators' clocks never
// need to agree, only tick at the same rate (which wall clocks do).

// Member liveness states served at GET /v1/fleet.
const (
	stateAlive   = "alive"
	stateSuspect = "suspect"
)

// member is one tracked worker.
type member struct {
	url      string
	lastSeen time.Time
	joined   int // join order, for a stable round-robin iteration order
}

// memberView is an immutable snapshot row of the membership table.
type memberView struct {
	url   string
	age   time.Duration
	state string
}

// membership is the coordinator's live-worker table. Safe for
// concurrent use; time is injectable for virtual-clock tests.
type membership struct {
	suspectAfter time.Duration
	deadAfter    time.Duration
	now          func() time.Time

	mu      sync.Mutex
	members map[string]*member
	nextOrd int
}

func newMembership(suspectAfter, deadAfter time.Duration, now func() time.Time) *membership {
	if now == nil {
		now = time.Now
	}
	return &membership{
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
		now:          now,
		members:      make(map[string]*member),
	}
}

// observe records contact with url (joining it if unknown) and reports
// whether the member is new.
func (m *membership) observe(url string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mb, ok := m.members[url]; ok {
		mb.lastSeen = m.now()
		return false
	}
	m.members[url] = &member{url: url, lastSeen: m.now(), joined: m.nextOrd}
	m.nextOrd++
	return true
}

// merge folds another coordinator's fleet view (a standby's primary)
// into this one and returns the URLs that were previously unknown (so
// the coordinator can build clients for them). A peer's claim only ever
// advances freshness: a member is adopted or refreshed when the peer
// heard from it more recently (smaller age) than we did. Members the
// peer itself already considers dead are not resurrected.
func (m *membership) merge(peers []server.FleetMember) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	var added []string
	for _, p := range peers {
		if p.URL == "" {
			continue
		}
		age := time.Duration(p.AgeMS) * time.Millisecond
		if age < 0 {
			age = 0
		}
		if age >= m.deadAfter {
			continue // the peer is about to reap it; don't resurrect
		}
		seen := now.Add(-age)
		if mb, ok := m.members[p.URL]; ok {
			if seen.After(mb.lastSeen) {
				mb.lastSeen = seen
			}
			continue
		}
		m.members[p.URL] = &member{url: p.URL, lastSeen: seen, joined: m.nextOrd}
		m.nextOrd++
		added = append(added, p.URL)
	}
	return added
}

// sweepDead removes members unheard from for deadAfter and returns
// their URLs, sorted for deterministic logs.
func (m *membership) sweepDead() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	var dead []string
	for url, mb := range m.members {
		if now.Sub(mb.lastSeen) >= m.deadAfter {
			delete(m.members, url)
			dead = append(dead, url)
		}
	}
	sort.Strings(dead)
	return dead
}

// stale returns members unheard from for at least olderThan — the
// active-probe candidates. Statically seeded workers never re-join, so
// without probing they would silently age out of a healthy fleet.
func (m *membership) stale(olderThan time.Duration) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	var urls []string
	for url, mb := range m.members {
		if now.Sub(mb.lastSeen) >= olderThan {
			urls = append(urls, url)
		}
	}
	sort.Strings(urls)
	return urls
}

// view snapshots the table in join order (the round-robin order).
func (m *membership) view() []memberView {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	rows := make([]memberView, 0, len(m.members))
	for _, mb := range m.members {
		age := now.Sub(mb.lastSeen)
		if age < 0 {
			age = 0
		}
		state := stateAlive
		if age >= m.suspectAfter {
			state = stateSuspect
		}
		rows = append(rows, memberView{url: mb.url, age: age, state: state})
	}
	sort.Slice(rows, func(i, j int) bool {
		return m.members[rows[i].url].joined < m.members[rows[j].url].joined
	})
	return rows
}

// size reports the member count.
func (m *membership) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.members)
}
