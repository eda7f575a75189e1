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

// gridDigests pins the results JSONL of each named grid at quick size and
// seed 1: the SHA-256 of
//
//	lggsweep -grid <name> -quick -seeds 3 -horizon 400 -seed 1
//
// The faults grid includes crash-drop runs, whose queue drop happens
// between steps.
var gridDigests = []struct{ grid, sha string }{
	{"stability", "41129c1e2327d180aecd624fb0542d46674bdcee2160141015e0683dc584e9b7"},
	{"generalized", "3e25d5df0ba5a5eabb520997a5c444a2f651d5c6ef9515d8fd4effe064f0b480"},
	{"duel", "27fa3f441577d6bef6fe11414e58496172e21b6211803f0dc31f0d69998093b9"},
	{"faults", "90a48db4ff218578463eed662880267e4bb9d7703254b63bbf120c20cc0397ad"},
	{"frontier", "5f6c8fd0090f5157ff2c7cb89ab5c7e9547eab24c7dbc4de014fcdd97a802efc"},
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

// TestGridDigests runs each named grid at 1 and 8 workers and once
// resumed from a journal cut mid-line; every path must reproduce the
// committed digest.
func TestGridDigests(t *testing.T) {
	cfg := QuickConfig()
	for _, c := range gridDigests {
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
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			j, err := sweep.CreateJournal(path, len(jobs))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := (&sweep.Runner{Workers: 2, Journal: j}).Run(jobs); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(raw, []byte("\n"))
			keep := 1 + len(jobs)/2 // the header and half the results
			torn := bytes.Join(lines[:keep], nil)
			torn = append(torn, lines[keep][:len(lines[keep])/2]...)
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}
			j, prefix, err := sweep.OpenJournalResume(path, len(jobs))
			if err != nil {
				t.Fatal(err)
			}
			if len(prefix) != keep-1 {
				t.Fatalf("resume recovered %d runs from the torn journal, want %d", len(prefix), keep-1)
			}
			rs, err := (&sweep.Runner{Workers: 8, Journal: j, Resume: prefix}).Run(g.Jobs(cfg))
			if cerr := j.Close(); err == nil {
				err = cerr
			}
			check("resumed mid-line", rs, err)
		})
	}
}
