package sweep

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// CellStats aggregates the replicas of one grid cell (one
// network × router × variant point) into the summary statistics the
// stability plots are drawn from. Aggregation is pure arithmetic over
// the in-order result list, so the output inherits the sweep's
// determinism contract: identical bytes at any worker count.
type CellStats struct {
	Grid    string `json:"grid,omitempty"`
	Network string `json:"network,omitempty"`
	Router  string `json:"router,omitempty"`
	Variant string `json:"variant,omitempty"`
	// Replicas is the number of runs aggregated into this cell.
	Replicas int `json:"replicas"`
	// StableShare is the fraction of replicas judged stable, with its
	// Wilson score interval at z=1.96 (StableShareLo/Hi) — the same
	// interval the adaptive frontier driver early-stops on, so exhaustive
	// cell aggregates and frontier probes read on one scale.
	StableShare   float64 `json:"stable_share"`
	StableShareLo float64 `json:"stable_share_lo"`
	StableShareHi float64 `json:"stable_share_hi"`
	// WorstVerdict is the most pessimistic replica verdict (diverging
	// beats inconclusive beats stable).
	WorstVerdict sim.Verdict `json:"worst_verdict"`
	// MeanBacklog averages the per-run trailing-half mean backlog.
	MeanBacklog float64 `json:"mean_backlog"`
	// PeakPotential / PeakQueued are cell-wide maxima.
	PeakPotential int64 `json:"peak_potential"`
	PeakQueued    int64 `json:"peak_queued"`
	// Packet totals summed over the replicas.
	Injected   int64 `json:"injected"`
	Sent       int64 `json:"sent"`
	Lost       int64 `json:"lost"`
	Extracted  int64 `json:"extracted"`
	Collisions int64 `json:"collisions"`
	Violations int64 `json:"violations"`
	// Failed counts replicas recorded as Failed (panicking runs).
	Failed int `json:"failed,omitempty"`
	// Recovery aggregates over the replicas that carried a fault-recovery
	// verdict: RecoveredShare is the recovered fraction of the decided
	// (Recovered + Degraded) replicas, MeanTimeToDrain averages the drain
	// time of the recovered ones, and FaultPeakPotential /
	// FaultPeakBacklog are cell-wide maxima of the under-fault peaks.
	// All stay zero for fault-free sweeps.
	// RecoveredShareLo/Hi is the Wilson interval of RecoveredShare over
	// the decided replicas (present only when some replica decided).
	RecoveredShare     float64 `json:"recovered_share,omitempty"`
	RecoveredShareLo   float64 `json:"recovered_share_lo,omitempty"`
	RecoveredShareHi   float64 `json:"recovered_share_hi,omitempty"`
	MeanTimeToDrain    float64 `json:"mean_time_to_drain,omitempty"`
	FaultPeakPotential int64   `json:"fault_peak_potential,omitempty"`
	FaultPeakBacklog   int64   `json:"fault_peak_backlog,omitempty"`
	// Coords reports the cell's numeric axis coordinates by name, for
	// spaces with numeric axes (empty on purely categorical spaces).
	Coords []AxisValue `json:"coords,omitempty"`
}

// aggregateCell folds one cell's replicas (all sharing a descriptor)
// into its statistics.
func aggregateCell(cell []Result) CellStats {
	d := cell[0].Desc
	cs := CellStats{
		Grid:         d.Grid,
		Network:      d.Network,
		Router:       d.Router,
		Variant:      d.Variant,
		Replicas:     len(cell),
		StableShare:  StableShare(cell),
		WorstVerdict: WorstVerdict(cell),
		MeanBacklog:  MeanBacklog(cell),
		Coords:       d.Coords,
	}
	stable := 0
	for _, r := range cell {
		if r.Verdict == sim.Stable {
			stable++
		}
	}
	cs.StableShareLo, cs.StableShareHi = stats.WilsonInterval(stable, len(cell), 1.96)
	recovered, degraded := 0, 0
	var drainSum float64
	for _, r := range cell {
		if r.PeakPotential > cs.PeakPotential {
			cs.PeakPotential = r.PeakPotential
		}
		if r.PeakQueued > cs.PeakQueued {
			cs.PeakQueued = r.PeakQueued
		}
		cs.Injected += r.Injected
		cs.Sent += r.Sent
		cs.Lost += r.Lost
		cs.Extracted += r.Extracted
		cs.Collisions += r.Collisions
		cs.Violations += r.Violations
		if r.Failed {
			cs.Failed++
		}
		switch r.Recovery {
		case "Recovered":
			recovered++
			drainSum += float64(r.TimeToDrain)
		case "Degraded":
			degraded++
		}
		if r.FaultPeakPotential > cs.FaultPeakPotential {
			cs.FaultPeakPotential = r.FaultPeakPotential
		}
		if r.FaultPeakBacklog > cs.FaultPeakBacklog {
			cs.FaultPeakBacklog = r.FaultPeakBacklog
		}
	}
	if decided := recovered + degraded; decided > 0 {
		cs.RecoveredShare = float64(recovered) / float64(decided)
		cs.RecoveredShareLo, cs.RecoveredShareHi = stats.WilsonInterval(recovered, decided, 1.96)
	}
	if recovered > 0 {
		cs.MeanTimeToDrain = drainSum / float64(recovered)
	}
	return cs
}

// AggregateCells slices the ordered result list into cells of replicas
// runs each (the Cells convention) and aggregates every cell. The error
// cases are those of Cells: non-positive replicas or a list that does not
// divide evenly (the finished prefix of a timed-out sweep).
func AggregateCells(rs []Result, replicas int) ([]CellStats, error) {
	cells, err := Cells(rs, replicas)
	if err != nil {
		return nil, err
	}
	out := make([]CellStats, len(cells))
	for i, cell := range cells {
		out[i] = aggregateCell(cell)
	}
	return out, nil
}

// WriteCellsJSONL encodes cell aggregates as JSON lines, byte-stably.
func WriteCellsJSONL(w io.Writer, cells []CellStats) error {
	enc := json.NewEncoder(w)
	for i := range cells {
		if err := enc.Encode(&cells[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteCellsCSV renders cell aggregates as a CSV table with a fixed
// header, byte-stably.
func WriteCellsCSV(w io.Writer, cells []CellStats) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"grid", "network", "router", "variant",
		"replicas", "stable_share", "stable_share_lo", "stable_share_hi",
		"worst_verdict", "mean_backlog",
		"peak_potential", "peak_queued", "injected", "sent", "lost",
		"extracted", "collisions", "violations", "failed",
		"recovered_share", "recovered_share_lo", "recovered_share_hi",
		"mean_time_to_drain", "fault_peak_potential",
		"fault_peak_backlog", "coords"}); err != nil {
		return err
	}
	for _, c := range cells {
		coords := ""
		for _, v := range c.Coords {
			if coords != "" {
				coords += "/"
			}
			coords += v.Axis + "=" + strconv.FormatFloat(v.Value, 'g', -1, 64)
		}
		rec := []string{c.Grid, c.Network, c.Router, c.Variant,
			strconv.Itoa(c.Replicas),
			strconv.FormatFloat(c.StableShare, 'g', -1, 64),
			strconv.FormatFloat(c.StableShareLo, 'g', -1, 64),
			strconv.FormatFloat(c.StableShareHi, 'g', -1, 64),
			c.WorstVerdict.String(),
			strconv.FormatFloat(c.MeanBacklog, 'g', -1, 64),
			strconv.FormatInt(c.PeakPotential, 10),
			strconv.FormatInt(c.PeakQueued, 10),
			strconv.FormatInt(c.Injected, 10),
			strconv.FormatInt(c.Sent, 10),
			strconv.FormatInt(c.Lost, 10),
			strconv.FormatInt(c.Extracted, 10),
			strconv.FormatInt(c.Collisions, 10),
			strconv.FormatInt(c.Violations, 10),
			strconv.Itoa(c.Failed),
			strconv.FormatFloat(c.RecoveredShare, 'g', -1, 64),
			strconv.FormatFloat(c.RecoveredShareLo, 'g', -1, 64),
			strconv.FormatFloat(c.RecoveredShareHi, 'g', -1, 64),
			strconv.FormatFloat(c.MeanTimeToDrain, 'g', -1, 64),
			strconv.FormatInt(c.FaultPeakPotential, 10),
			strconv.FormatInt(c.FaultPeakBacklog, 10),
			coords}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Canonical sweep-level metric names for RecordMetrics.
const (
	MetricRuns              = "sweep_runs_total"
	MetricRunsStable        = "sweep_runs_stable_total"
	MetricRunsDiverging     = "sweep_runs_diverging_total"
	MetricRunsUndecided     = "sweep_runs_inconclusive_total"
	MetricSweepInjected     = "sweep_injected_packets_total"
	MetricSweepSent         = "sweep_sent_packets_total"
	MetricSweepLost         = "sweep_lost_packets_total"
	MetricSweepExtracted    = "sweep_extracted_packets_total"
	MetricSweepPeakPot      = "sweep_peak_potential"
	MetricSweepPeakBack     = "sweep_peak_backlog"
	MetricRunsFailed        = "sweep_runs_failed_total"
	MetricRunsRecovered     = "sweep_runs_recovered_total"
	MetricRunsDegraded      = "sweep_runs_degraded_total"
	MetricRunsIndeterminate = "sweep_runs_indeterminate_total"
)

// RecordMetrics folds finished sweep results into the canonical
// sweep-level metrics of reg, so one scrape covers a whole grid. It
// operates on the in-order result list (not the hot loop), which keeps
// the exposition deterministic at any worker count.
func RecordMetrics(reg *metrics.Registry, rs []Result) {
	runs := reg.Counter(MetricRuns, "Sweep runs completed.")
	stable := reg.Counter(MetricRunsStable, "Runs judged stable (Definition 2 holds empirically).")
	diverging := reg.Counter(MetricRunsDiverging, "Runs judged diverging.")
	undecided := reg.Counter(MetricRunsUndecided, "Runs the detector could not call.")
	injected := reg.Counter(MetricSweepInjected, "Packets injected across all runs.")
	sent := reg.Counter(MetricSweepSent, "Packets sent across all runs.")
	lost := reg.Counter(MetricSweepLost, "Packets lost across all runs.")
	extracted := reg.Counter(MetricSweepExtracted, "Packets delivered across all runs.")
	peakPot := reg.Gauge(MetricSweepPeakPot, "Largest P_t across all runs.")
	peakBack := reg.Gauge(MetricSweepPeakBack, "Largest N_t across all runs.")
	failed := reg.Counter(MetricRunsFailed, "Runs that panicked and were recorded as failed.")
	recovered := reg.Counter(MetricRunsRecovered, "Runs that recovered after their fault schedule cleared.")
	degraded := reg.Counter(MetricRunsDegraded, "Runs still degraded after their fault schedule cleared.")
	indeterminate := reg.Counter(MetricRunsIndeterminate, "Runs whose fault window outlived the horizon (drain unobserved).")
	for _, r := range rs {
		runs.Inc()
		switch r.Verdict {
		case sim.Stable:
			stable.Inc()
		case sim.Diverging:
			diverging.Inc()
		default:
			undecided.Inc()
		}
		if r.Failed {
			failed.Inc()
		}
		switch r.Recovery {
		case "Recovered":
			recovered.Inc()
		case "Degraded":
			degraded.Inc()
		case "Indeterminate":
			indeterminate.Inc()
		}
		injected.Add(r.Injected)
		sent.Add(r.Sent)
		lost.Add(r.Lost)
		extracted.Add(r.Extracted)
		peakPot.SetMax(r.PeakPotential)
		peakBack.SetMax(r.PeakQueued)
	}
}

// runEvent / cellEvent fix the JSONL field order of the event stream:
// a tag first, then the payload fields in declaration order.
type runEvent struct {
	Event string `json:"event"` // always "run"
	Result
}

type cellEvent struct {
	Event string `json:"event"` // always "cell"
	CellStats
}

// EventStreamer turns the in-order result callback of a Runner into a
// JSONL event stream: one {"event":"run",…} line per finished run and —
// when Replicas is set — one {"event":"cell",…} aggregate line after
// each completed cell. Because OnResult fires in index order, the
// stream is byte-identical at any worker count.
//
// Wire it up with runner.OnResult = s.OnResult and call Flush after the
// sweep returns.
type EventStreamer struct {
	// Replicas, when > 0, emits a cell aggregate after every Replicas
	// consecutive runs.
	Replicas int

	bw   *bufio.Writer
	enc  *json.Encoder
	cell []Result
	err  error
}

// NewEventStreamer streams events to w; replicas > 0 additionally emits
// per-cell aggregates.
func NewEventStreamer(w io.Writer, replicas int) *EventStreamer {
	bw := bufio.NewWriter(w)
	return &EventStreamer{Replicas: replicas, bw: bw, enc: json.NewEncoder(bw)}
}

// OnResult implements the Runner.OnResult signature.
func (s *EventStreamer) OnResult(_ Job, res Result, _ *sim.Result) {
	if s.err != nil {
		return
	}
	if err := s.enc.Encode(runEvent{Event: "run", Result: res}); err != nil {
		s.err = err
		return
	}
	if s.Replicas <= 0 {
		return
	}
	s.cell = append(s.cell, res)
	if len(s.cell) == s.Replicas {
		s.err = s.enc.Encode(cellEvent{Event: "cell", CellStats: aggregateCell(s.cell)})
		s.cell = s.cell[:0]
	}
}

// Flush drains the buffer and reports the first error encountered,
// including a trailing partial cell that never filled (timeout).
func (s *EventStreamer) Flush() error {
	if s.err == nil && len(s.cell) > 0 {
		s.err = fmt.Errorf("sweep: %d trailing runs did not fill a cell of %d", len(s.cell), s.Replicas)
		// The partial cell is dropped, matching the finished-prefix
		// semantics of a timed-out sweep.
	}
	if err := s.bw.Flush(); s.err == nil {
		s.err = err
	}
	return s.err
}
