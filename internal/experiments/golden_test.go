package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// The tests in this file pin the determinism contract to committed
// bytes. Pairwise tests (1 worker against 8, resumed against fresh)
// cannot see a change that moves every execution path alike; these
// compare with output fixed in the repository instead. A change that
// means to alter output regenerates the goldens and says why.

// clockMask stands in for every wall-clock cell when tables are compared.
const clockMask = "~"

// masked returns a copy of t with its Clock columns' cells replaced by
// clockMask.
func masked(t *Table) *Table {
	out := *t
	out.Rows = make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		out.Rows[i] = slices.Clone(row)
	}
	for _, name := range t.Clock {
		c := slices.Index(t.Columns, name)
		if c < 0 {
			panic(fmt.Sprintf("experiments: table %s has no clock column %q", t.ID, name))
		}
		for _, row := range out.Rows {
			row[c] = clockMask
		}
	}
	return &out
}

// renderAll renders tables as lggexp -all prints them: each table
// followed by a blank line.
func renderAll(t *testing.T, tabs []*Table) string {
	t.Helper()
	var b bytes.Buffer
	for _, tab := range tabs {
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runAll runs every experiment at cfg and masks its clock cells.
func runAll(cfg Config) []*Table {
	var tabs []*Table
	for _, e := range All() {
		tabs = append(tabs, masked(e.Run(cfg)))
	}
	return tabs
}

// parseRendered reads lggexp text output back into tables. Column
// boundaries come from the header line: Render pads every cell to its
// column's width and joins cells with two spaces, so each column starts
// where its header name starts.
func parseRendered(text string) ([]*Table, error) {
	var tabs []*Table
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); {
		if lines[i] == "" {
			i++
			continue
		}
		title, ok := strings.CutPrefix(lines[i], "== ")
		if title, ok = strings.CutSuffix(title, " =="); !ok {
			return nil, fmt.Errorf("line %d: want a table title, got %q", i+1, lines[i])
		}
		tab := &Table{}
		tab.ID, tab.Title, _ = strings.Cut(title, ": ")
		i++
		if claim, ok := strings.CutPrefix(lines[i], "claim: "); ok {
			tab.Claim = claim
			i++
		}
		header := lines[i]
		i += 2 // the header and its dashed rule
		var starts []int
		for c := 0; c < len(header); c++ {
			if header[c] != ' ' && (c == 0 || strings.HasSuffix(header[:c], "  ")) {
				starts = append(starts, c)
			}
		}
		cells := func(line string) []string {
			out := make([]string, len(starts))
			for k, lo := range starts {
				hi := len(line)
				if k+1 < len(starts) {
					hi = min(starts[k+1], hi)
				}
				if lo < hi {
					out[k] = strings.TrimRight(line[lo:hi], " ")
				}
			}
			return out
		}
		tab.Columns = cells(header)
		for ; i < len(lines) && lines[i] != "" && !strings.HasPrefix(lines[i], "note: "); i++ {
			tab.Rows = append(tab.Rows, cells(lines[i]))
		}
		for ; i < len(lines) && strings.HasPrefix(lines[i], "note: "); i++ {
			tab.Notes = append(tab.Notes, strings.TrimPrefix(lines[i], "note: "))
		}
		tabs = append(tabs, tab)
	}
	return tabs, nil
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return "no difference"
}

// TestQuickTablesMatchGolden compares every table of lggexp -all -quick,
// wall-clock cells masked, with testdata/quick.golden.
func TestQuickTablesMatchGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := renderAll(t, runAll(QuickConfig()))
	if got != string(want) {
		t.Fatalf("lggexp -all -quick differs from testdata/quick.golden at %s",
			firstDiff(got, string(want)))
	}
}

// TestParseRenderedRoundTrip: parsing rendered tables and rendering them
// again gives the same bytes, so the full-run comparison below compares
// what lggexp printed and not an artefact of the parser.
func TestParseRenderedRoundTrip(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	tabs, err := parseRendered(string(want))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(t, tabs); got != string(want) {
		t.Fatalf("parse/render round trip differs at %s", firstDiff(got, string(want)))
	}
}

// TestFullRunMatchesCommitted compares lggexp -all at its defaults with
// the committed results_full_run.txt, wall-clock cells masked on both
// sides. It takes several seconds, so it runs only when LGG_FULL_RUN is
// set (CI's full-run job sets it).
func TestFullRunMatchesCommitted(t *testing.T) {
	if os.Getenv("LGG_FULL_RUN") == "" {
		t.Skip("set LGG_FULL_RUN=1 to compare the full-size run with results_full_run.txt")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "results_full_run.txt"))
	if err != nil {
		t.Fatal(err)
	}
	committed, err := parseRendered(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	fresh := runAll(Defaults())
	if len(committed) != len(fresh) {
		t.Fatalf("results_full_run.txt holds %d tables, lggexp -all prints %d", len(committed), len(fresh))
	}
	for i, f := range fresh {
		c := committed[i]
		c.Clock = f.Clock
		got, want := renderAll(t, []*Table{f}), renderAll(t, []*Table{masked(c)})
		if got != want {
			t.Errorf("%s differs from results_full_run.txt at %s", f.ID, firstDiff(got, want))
		}
	}
}

// gridDigests reads the committed results digest of each named grid at
// quick size and seed 1 from testdata/grid_digests.txt.
func gridDigests(t *testing.T) []struct{ grid, sha string } {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "grid_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out []struct{ grid, sha string }
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("grid_digests.txt: %q is not \"<grid> <sha256>\"", line)
		}
		out = append(out, struct{ grid, sha string }{f[0], f[1]})
	}
	if len(out) == 0 {
		t.Fatal("grid_digests.txt lists no grids")
	}
	return out
}

func digest(t *testing.T, rs []sweep.Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := sweep.WriteJSONL(&b, rs); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestGridDigests runs each named grid at 1 and 8 workers and resumed
// from its journal cut mid-line and after each whole line (the header
// alone through every result); every path must reproduce the committed
// digest.
func TestGridDigests(t *testing.T) {
	cfg := QuickConfig()
	for _, c := range gridDigests(t) {
		t.Run(c.grid, func(t *testing.T) {
			g, err := FindGrid(c.grid)
			if err != nil {
				t.Fatal(err)
			}
			check := func(path string, rs []sweep.Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if got := digest(t, rs); got != c.sha {
					t.Errorf("%s: results digest %s, committed %s", path, got, c.sha)
				}
			}
			for _, w := range []int{1, 8} {
				rs, err := (&sweep.Runner{Workers: w}).Run(g.Jobs(cfg))
				check(fmt.Sprintf("%d workers", w), rs, err)
			}

			jobs := g.Jobs(cfg)
			journal := filepath.Join(t.TempDir(), "journal.jsonl")
			j, err := sweep.CreateJournal(journal, len(jobs))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := (&sweep.Runner{Workers: 2, Journal: j}).Run(jobs); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			// resume rewrites the journal as cut, reopens it and finishes
			// the sweep at 8 workers from the recovered prefix.
			resume := func(name string, cut []byte, want int) {
				t.Helper()
				if err := os.WriteFile(journal, cut, 0o644); err != nil {
					t.Fatal(err)
				}
				j, prefix, err := sweep.OpenJournalResume(journal, len(jobs))
				if err != nil {
					t.Fatal(err)
				}
				if len(prefix) != want {
					t.Fatalf("%s: resume recovered %d runs, want %d", name, len(prefix), want)
				}
				rs, err := (&sweep.Runner{Workers: 8, Journal: j, Resume: prefix}).Run(g.Jobs(cfg))
				if cerr := j.Close(); err == nil {
					err = cerr
				}
				check(name, rs, err)
			}
			lines := bytes.SplitAfter(raw, []byte("\n")) // header, N results, ""
			keep := 1 + len(jobs)/2                      // the header and half the results
			torn := bytes.Join(lines[:keep], nil)
			torn = append(torn, lines[keep][:len(lines[keep])/2]...)
			resume("resumed mid-line", torn, keep-1)
			for k := 0; k <= len(jobs); k++ {
				resume(fmt.Sprintf("resumed after line %d", k), bytes.Join(lines[:1+k], nil), k)
			}
		})
	}
}
