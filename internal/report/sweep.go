package report

import (
	"fmt"
	"io"

	"overlapsim/internal/sweep"
)

// SweepRow is one rendered sweep point: the characterization metrics the
// paper reports per configuration, plus the point's execution status.
type SweepRow struct {
	// Label identifies the configuration (core.Config.Label).
	Label string
	// Status is "ok", "hit" (served from cache), "OOM" or "error".
	Status string
	// Detail carries the OOM/error message for failed points.
	Detail string

	// E2EOvl and E2ESeq are the end-to-end iteration latencies in
	// seconds (Eq. 3).
	E2EOvl, E2ESeq float64
	// SeqPenalty, OverlapRatio and ComputeSlowdown are Eq. 1–2 derived
	// fractions.
	SeqPenalty, OverlapRatio, ComputeSlowdown float64
	// AvgTDP and PeakTDP are the overlapped-mode power aggregates
	// normalized to TDP (Fig. 6).
	AvgTDP, PeakTDP float64
	// EnergyJ is overlapped-mode total energy in joules.
	EnergyJ float64
	// AvgPowerW is average overlapped-mode board power in watts, summed
	// across every GPU in the system.
	AvgPowerW float64
	// EnergyPerIterJ is the energy of an average overlapped iteration in
	// joules (board power x mean iteration latency) — the advisor's
	// energy objective, reported for plain sweeps too so both share one
	// row schema.
	EnergyPerIterJ float64
	// Tasks and Epochs are the overlapped-mode engine self-stats (task
	// count and scheduling epochs) — the explanatory columns that relate
	// a point's latency to how much scheduling work the simulation did.
	Tasks  int
	Epochs int64
}

// Rows converts a sweep result into report rows, in grid order.
func Rows(res *sweep.Result) []SweepRow {
	rows := make([]SweepRow, len(res.Points))
	for i := range res.Points {
		rows[i] = Row(&res.Points[i])
	}
	return rows
}

// Row renders one point into the shared report row schema — the same
// schema advisor frontiers render through, so sweep tables and frontier
// tables stay column-compatible.
func Row(p *sweep.Point) SweepRow {
	r := SweepRow{Label: p.Config.Label()}
	switch {
	case p.OOM != nil:
		r.Status = "OOM"
		r.Detail = p.OOM.Error()
	case p.Err != nil:
		r.Status = "error"
		r.Detail = p.Err.Error()
	case p.Res == nil:
		r.Status = "error"
		r.Detail = p.ErrString
	default:
		r.Status = "ok"
		if p.CacheHit {
			r.Status = "hit"
		}
		c := p.Res.Char
		r.E2EOvl = p.Res.Overlapped.Mean.E2E
		r.E2ESeq = p.Res.Sequential.Mean.E2E
		r.SeqPenalty = c.SeqPenalty
		r.OverlapRatio = c.OverlapRatio
		r.ComputeSlowdown = c.ComputeSlowdown
		r.AvgTDP = p.Res.Overlapped.AvgTDP
		r.PeakTDP = p.Res.Overlapped.PeakTDP
		r.EnergyJ = p.Res.Overlapped.EnergyJ
		r.AvgPowerW, _ = p.BoardPowerW()
		r.EnergyPerIterJ, _ = p.EnergyPerIterJ()
		r.Tasks = p.Res.Overlapped.Engine.Tasks
		r.Epochs = p.Res.Overlapped.Engine.Epochs
	}
	return r
}

// ok reports whether the row carries metrics (computed or cached).
func (r SweepRow) ok() bool { return r.Status == "ok" || r.Status == "hit" }

// sweepHeaders are the sweep table/CSV columns. Every row fills every
// column (failed points leave the metric columns empty and put their
// diagnostic in the trailing detail column), keeping the CSV
// rectangular for strict readers.
var sweepHeaders = []string{
	"config", "status", "e2e_ovl_ms", "e2e_seq_ms", "seq_penalty_%",
	"overlap_%", "slowdown_%", "avg_tdp_%", "peak_tdp_%", "energy_j",
	"avg_power_w", "energy_per_iter_j", "tasks", "epochs", "detail",
}

// cells renders the row.
func (r SweepRow) cells() []string {
	if !r.ok() {
		return []string{r.Label, r.Status, "", "", "", "", "", "", "", "", "", "", "", "", r.Detail}
	}
	// Engine stats are zero for results cached before the stats existed;
	// render those as empty rather than a misleading 0.
	tasks, epochs := "", ""
	if r.Tasks > 0 {
		tasks = fmt.Sprintf("%d", r.Tasks)
		epochs = fmt.Sprintf("%d", r.Epochs)
	}
	return []string{
		r.Label,
		r.Status,
		fmt.Sprintf("%.2f", r.E2EOvl*1e3),
		fmt.Sprintf("%.2f", r.E2ESeq*1e3),
		fmt.Sprintf("%.1f", r.SeqPenalty*100),
		fmt.Sprintf("%.1f", r.OverlapRatio*100),
		fmt.Sprintf("%.1f", r.ComputeSlowdown*100),
		fmt.Sprintf("%.0f", r.AvgTDP*100),
		fmt.Sprintf("%.0f", r.PeakTDP*100),
		fmt.Sprintf("%.0f", r.EnergyJ),
		fmt.Sprintf("%.0f", r.AvgPowerW),
		fmt.Sprintf("%.1f", r.EnergyPerIterJ),
		tasks,
		epochs,
		"",
	}
}

func sweepCells(rows []SweepRow) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = r.cells()
	}
	return out
}

// SweepTable writes the sweep results as an aligned text table.
func SweepTable(w io.Writer, rows []SweepRow) error {
	return Table(w, sweepHeaders, sweepCells(rows))
}

// SweepCSV writes the sweep results as CSV.
func SweepCSV(w io.Writer, rows []SweepRow) error {
	return CSV(w, sweepHeaders, sweepCells(rows))
}

// SweepAggregate summarizes a sweep: outcome counts plus the mean of
// each characterization metric over the successful points — the
// "sequential is on average X% slower" style of number the paper quotes
// across its grids.
type SweepAggregate struct {
	Points, OK, Hits, OOMs, Errors            int
	MeanSeqPenalty, MeanOverlap, MeanSlowdown float64
	MeanAvgTDP, MaxPeakTDP                    float64
	// Misses counts points not served from the cache (fresh simulations,
	// including the ones that ended in OOM or error) — together with Hits
	// this is the sweep's cache provenance.
	Misses int
	// TotalTasks and TotalEpochs sum the overlapped-mode engine
	// self-stats over the rows that carry them.
	TotalTasks, TotalEpochs int64
}

// AggregateSweep computes the aggregate over the rows.
func AggregateSweep(rows []SweepRow) SweepAggregate {
	var a SweepAggregate
	a.Points = len(rows)
	n := 0.0
	for _, r := range rows {
		switch r.Status {
		case "hit":
			a.Hits++
		case "OOM":
			a.OOMs++
		case "error":
			a.Errors++
		}
		if r.Status != "hit" {
			a.Misses++
		}
		a.TotalTasks += int64(r.Tasks)
		a.TotalEpochs += r.Epochs
		if !r.ok() {
			continue
		}
		a.OK++
		n++
		a.MeanSeqPenalty += r.SeqPenalty
		a.MeanOverlap += r.OverlapRatio
		a.MeanSlowdown += r.ComputeSlowdown
		a.MeanAvgTDP += r.AvgTDP
		if r.PeakTDP > a.MaxPeakTDP {
			a.MaxPeakTDP = r.PeakTDP
		}
	}
	if n > 0 {
		a.MeanSeqPenalty /= n
		a.MeanOverlap /= n
		a.MeanSlowdown /= n
		a.MeanAvgTDP /= n
	}
	return a
}

// String renders the aggregate as a one-paragraph summary.
func (a SweepAggregate) String() string {
	s := fmt.Sprintf("%d points: %d ok (%d cached), %d OOM, %d errors",
		a.Points, a.OK, a.Hits, a.OOMs, a.Errors)
	if a.OK > 0 {
		s += fmt.Sprintf("; mean seq penalty %.1f%%, mean overlap %.1f%%, mean compute slowdown %.1f%%, mean avg power %.0f%% TDP, max peak %.0f%% TDP",
			a.MeanSeqPenalty*100, a.MeanOverlap*100, a.MeanSlowdown*100,
			a.MeanAvgTDP*100, a.MaxPeakTDP*100)
	}
	s += fmt.Sprintf("; cache: %d hits, %d misses", a.Hits, a.Misses)
	if a.TotalTasks > 0 {
		s += fmt.Sprintf("; engine: %d tasks over %d epochs", a.TotalTasks, a.TotalEpochs)
	}
	return s
}
