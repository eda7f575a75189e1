package federation

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/server"
	"repro/internal/sweep"
)

// TestServingPathsMatchCommittedDigests pins the serving paths to bytes
// fixed in the repository. Each named grid runs at quick size on a
// single daemon and on a coordinator with two in-process workers, bare
// and under each shipped chaos schedule. Every merged journal's results
// must hash to the digest internal/experiments commits for that grid.
// The other fleet tests compare a fleet with a daemon at one commit, so
// a change that moves both alike passes them; this one does not.
func TestServingPathsMatchCommittedDigests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "experiments", "testdata", "grid_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	shipped := chaos.Shipped()
	schedules := make([]string, 0, len(shipped))
	for name := range shipped {
		schedules = append(schedules, name)
	}
	sort.Strings(schedules)

	// digest runs spec on a front end's plane and hashes the results
	// JSONL of the job's journal.
	digest := func(t *testing.T, p *server.Plane, spec server.JobSpec) string {
		t.Helper()
		st, _, err := p.Admit(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, p, st.ID, 120*time.Second)
		if final.Status != server.StatusDone {
			t.Fatalf("job ended %s: %s", final.Status, final.Error)
		}
		rs, err := sweep.ReadJournalResults(p.JournalPath(st.ID), final.Total)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := sweep.WriteJSONL(&b, rs); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b.Bytes())
		return hex.EncodeToString(sum[:])
	}

	grids := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("grid_digests.txt: %q is not \"<grid> <sha256>\"", line)
		}
		grid, want := f[0], f[1]
		grids++
		spec := server.JobSpec{Grid: grid, Seed: 1, Seeds: 3, Horizon: 400, Quick: true}
		t.Run(grid, func(t *testing.T) {
			check := func(path, got string) {
				t.Helper()
				if got != want {
					t.Errorf("%s: results digest %s, committed %s", path, got, want)
				}
			}
			s, _ := newWorker(t, nil)
			check("daemon", digest(t, s.Plane, spec))
			// Fresh workers per coordinator: each coordinator numbers its
			// jobs from the start, and worker-side idempotency keys derive
			// from the job ID.
			for _, name := range append([]string{""}, schedules...) {
				_, w1 := newWorker(t, nil)
				_, w2 := newWorker(t, nil)
				cfg, path := Config{RangeRuns: 5}, "coordinator"
				if name != "" {
					cfg, _ = withChaos(t, cfg, shipped[name], []string{w1, w2})
					path += " under " + name
				}
				c, _ := newCoordinator(t, cfg, w1, w2)
				check(path, digest(t, c.Plane, spec))
			}
		})
	}
	if grids == 0 {
		t.Fatal("grid_digests.txt lists no grids")
	}
}
