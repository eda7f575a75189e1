// Package experiments implements the reproduction harness: one experiment
// per theorem, property, figure and conjecture of the paper, each
// producing a table of claimed-vs-measured results. The experiment index
// lives in DESIGN.md; EXPERIMENTS.md records the outcomes.
//
// Experiments are pure functions of a Config (root seed, seed count,
// horizon), so runs are reproducible; seeds fan out on a worker pool.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sweep"
)

// fullCells slices an in-order result list into cells of k replicas,
// trimming any trailing partial cell instead of erroring. Experiments run
// their sweeps to completion, so the trim only matters when a run was
// interrupted — the tables then render the complete cells.
func fullCells(rs []sweep.Result, k int) [][]sweep.Result {
	if k > 0 {
		rs = rs[:len(rs)-len(rs)%k]
	}
	cells, _ := sweep.Cells(rs, k)
	return cells
}

// Config tunes the harness.
type Config struct {
	// Seed is the root seed; all randomness derives from it.
	Seed uint64
	// Seeds is the number of independent runs per table cell.
	Seeds int
	// Horizon is the number of simulated steps per run.
	Horizon int64
	// Quick shrinks workloads for CI/tests.
	Quick bool
}

// Defaults returns the standard configuration used for EXPERIMENTS.md.
func Defaults() Config {
	return Config{Seed: 1, Seeds: 8, Horizon: 3000}
}

// QuickConfig returns a reduced configuration for tests.
func QuickConfig() Config {
	return Config{Seed: 1, Seeds: 3, Horizon: 400, Quick: true}
}

func (c Config) seeds() int {
	if c.Seeds <= 0 {
		return 1
	}
	return c.Seeds
}

func (c Config) horizon() int64 {
	if c.Horizon <= 0 {
		return 1000
	}
	return c.Horizon
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string // what the paper asserts (or conjectures)
	Columns []string
	// Clock names the columns that hold wall-clock measurements. Their
	// cells change from run to run, so golden comparisons mask them.
	Clock []string
	Rows  [][]string
	Notes []string
}

// AddRow appends a row; cell counts must match Columns.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row has %d cells, table %q has %d columns",
			len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-form note rendered under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	header := line(t.Columns)
	b.WriteString(header + "\n")
	b.WriteString(strings.Repeat("-", len(header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString(line(row) + "\n")
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (quotes on demand).
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment couples an id with its runner.
type Experiment struct {
	ID    string
	Title string
	// Paper points at the artefact being reproduced (theorem, property,
	// figure, conjecture).
	Paper string
	Run   func(cfg Config) *Table
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns every registered experiment sorted by id (E… first, then
// P…).
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID[0] != out[j].ID[0] {
			return out[i].ID[0] < out[j].ID[0]
		}
		// numeric suffix ordering (E2 < E10)
		return idNum(out[i].ID) < idNum(out[j].ID)
	})
	return out
}

func idNum(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// fmtF renders a float compactly for table cells.
func fmtF(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 1e6 || x < 1e-3:
		return fmt.Sprintf("%.3g", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// fmtI renders an int64 cell.
func fmtI(x int64) string { return fmt.Sprintf("%d", x) }
