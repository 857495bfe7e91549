package report

import (
	"fmt"
	"io"

	"overlapsim/internal/hw"
	"overlapsim/internal/metrics"
	"overlapsim/internal/model"
	"overlapsim/internal/sweep"
)

// Table1 renders the paper's Table I (evaluated GPUs) from the catalog.
func Table1(w io.Writer) error {
	headers := []string{"Vendor", "GPU", "Year", "Peak FP32 (TFLOPS)", "Peak FP16 (TFLOPS)", "Memory (GB)"}
	var rows [][]string
	for _, g := range hw.Catalog() {
		rows = append(rows, []string{
			g.Vendor.String(), g.Name, fmt.Sprintf("%d", g.Year),
			F(g.TableFP32TFLOPS, 1), F(g.TableFP16TFLOPS, 1), F(g.MemGB, 0),
		})
	}
	return Table(w, headers, rows)
}

// Table2 renders the paper's Table II (workloads) from the model zoo.
func Table2(w io.Writer) error {
	headers := []string{"Model", "Parameters", "Layers", "Attention Heads", "Hidden Dimensions"}
	var rows [][]string
	for _, m := range model.Zoo() {
		rows = append(rows, []string{
			m.Name, fmt.Sprintf("%.1fB", m.NominalParams/1e9),
			fmt.Sprintf("%d", m.Layers), fmt.Sprintf("%d", m.Heads), fmt.Sprintf("%d", m.Hidden),
		})
	}
	return Table(w, headers, rows)
}

// pointHeaderCells are the identifying columns shared by grid renderers.
func pointCells(p sweep.Point) []string {
	return []string{
		p.Config.System.Name,
		p.Config.Parallelism.String(),
		p.Config.Model.Name,
		fmt.Sprintf("%d", p.Config.Batch),
		p.Config.Format.String(),
	}
}

const oomCell = "OOM"

// OverlapFigure renders a Fig. 1-style series: overlap ratio and the
// absolute amount of overlapped computation per configuration.
func OverlapFigure(w io.Writer, pts []sweep.Point) error {
	headers := []string{"System", "Par", "Model", "Batch", "Fmt",
		"OverlapRatio", "OverlappedCompute(ms)", "Compute(ms)", "Comm(ms)"}
	var rows [][]string
	for _, p := range pts {
		row := pointCells(p)
		if p.OOM != nil {
			row = append(row, oomCell, oomCell, oomCell, oomCell)
		} else if p.Res != nil {
			m := p.Res.Overlapped.Mean
			row = append(row,
				Pct(p.Res.Char.OverlapRatio),
				Ms(m.OverlappedComputeTime),
				Ms(m.ComputeKernelTime),
				Ms(m.CommKernelTime))
		} else {
			continue
		}
		rows = append(rows, row)
	}
	return Table(w, headers, rows)
}

// SlowdownFigure renders the Fig. 4 series: compute slowdown (Eq. 1) per
// configuration, with the overlap ratio for context.
func SlowdownFigure(w io.Writer, pts []sweep.Point) error {
	headers := []string{"System", "Par", "Model", "Batch", "Fmt",
		"ComputeSlowdown", "OverlapRatio"}
	var rows [][]string
	for _, p := range pts {
		row := pointCells(p)
		if p.OOM != nil {
			row = append(row, oomCell, oomCell)
		} else if p.Res != nil {
			row = append(row, Pct(p.Res.Char.ComputeSlowdown), Pct(p.Res.Char.OverlapRatio))
		} else {
			continue
		}
		rows = append(rows, row)
	}
	return Table(w, headers, rows)
}

// E2EFigure renders the Fig. 5 series: ideal, overlapped and sequential
// end-to-end iteration latency.
func E2EFigure(w io.Writer, pts []sweep.Point) error {
	headers := []string{"System", "Par", "Model", "Batch", "Fmt",
		"Ideal(ms)", "Overlapped(ms)", "Sequential(ms)", "SeqPenalty", "IdealGap"}
	var rows [][]string
	for _, p := range pts {
		row := pointCells(p)
		if p.OOM != nil {
			row = append(row, oomCell, oomCell, oomCell, oomCell, oomCell)
		} else if p.Res != nil {
			c := p.Res.Char
			row = append(row,
				Ms(c.E2EIdeal),
				Ms(p.Res.Overlapped.Mean.E2E),
				Ms(p.Res.Sequential.Mean.E2E),
				Pct(c.SeqPenalty),
				Pct(c.IdealGap))
		} else {
			continue
		}
		rows = append(rows, row)
	}
	return Table(w, headers, rows)
}

// PowerFigure renders the Fig. 6 series: average and peak power (TDP
// normalized) for overlapped and sequential execution.
func PowerFigure(w io.Writer, pts []sweep.Point) error {
	headers := []string{"System", "Par", "Model", "Batch", "Fmt",
		"AvgOvl(TDP)", "PeakOvl(TDP)", "AvgSeq(TDP)", "PeakSeq(TDP)", "EnergyOvl(kJ)"}
	var rows [][]string
	for _, p := range pts {
		row := pointCells(p)
		if p.OOM != nil {
			row = append(row, oomCell, oomCell, oomCell, oomCell, oomCell)
		} else if p.Res != nil {
			row = append(row,
				TDP(p.Res.Overlapped.AvgTDP), TDP(p.Res.Overlapped.PeakTDP),
				TDP(p.Res.Sequential.AvgTDP), TDP(p.Res.Sequential.PeakTDP),
				F(p.Res.Overlapped.EnergyJ/1e3, 2))
		} else {
			continue
		}
		rows = append(rows, row)
	}
	return Table(w, headers, rows)
}

// PowerCapFigure renders the Fig. 9 series: execution time and compute
// slowdown versus power cap.
func PowerCapFigure(w io.Writer, pts []sweep.Point) error {
	headers := []string{"Cap(W)", "E2EOvl(ms)", "E2ESeq(ms)", "ComputeSlowdown", "AvgOvl(TDP)", "FreqNote"}
	var rows [][]string
	var base float64
	for _, p := range pts {
		if p.Res == nil {
			continue
		}
		cap := "none"
		if p.Config.Caps.PowerW > 0 {
			cap = F(p.Config.Caps.PowerW, 0)
		}
		if base == 0 {
			base = p.Res.Overlapped.Mean.E2E
		}
		note := fmt.Sprintf("+%.0f%% vs uncapped", (p.Res.Overlapped.Mean.E2E/base-1)*100)
		rows = append(rows, []string{
			cap,
			Ms(p.Res.Overlapped.Mean.E2E),
			Ms(p.Res.Sequential.Mean.E2E),
			Pct(p.Res.Char.ComputeSlowdown),
			TDP(p.Res.Overlapped.AvgTDP),
			note,
		})
	}
	return Table(w, headers, rows)
}

// AblationFigure renders the Fig. 10/11 series: pairs of configurations
// (baseline vs. ablated) with slowdown and power.
func AblationFigure(w io.Writer, pts []sweep.Point, variantName func(p sweep.Point) string) error {
	headers := []string{"Model", "Batch", "Variant", "ComputeSlowdown", "OverlapRatio", "AvgPower(TDP)", "PeakPower(TDP)"}
	var rows [][]string
	for _, p := range pts {
		row := []string{p.Config.Model.Name, fmt.Sprintf("%d", p.Config.Batch), variantName(p)}
		if p.OOM != nil {
			row = append(row, oomCell, oomCell, oomCell, oomCell)
		} else if p.Res != nil {
			row = append(row,
				Pct(p.Res.Char.ComputeSlowdown),
				Pct(p.Res.Char.OverlapRatio),
				TDP(p.Res.Overlapped.AvgTDP),
				TDP(p.Res.Overlapped.PeakTDP))
		} else {
			continue
		}
		rows = append(rows, row)
	}
	return Table(w, headers, rows)
}

// Headline summarizes the paper's abstract-level aggregates over a grid:
// mean/max compute slowdown and mean/max sequential penalty.
func Headline(w io.Writer, pts []sweep.Point) error {
	var slow, seqPen []float64
	for _, p := range pts {
		if p.Res == nil {
			continue
		}
		slow = append(slow, p.Res.Char.ComputeSlowdown)
		seqPen = append(seqPen, p.Res.Char.SeqPenalty)
	}
	s := metrics.Summarize(slow)
	q := metrics.Summarize(seqPen)
	_, err := fmt.Fprintf(w,
		"compute slowdown from overlap : mean %s, max %s (paper: avg 18.9%%, max 40.0%%)\n"+
			"sequential penalty vs overlap : mean %s, max %s (paper: avg 10.2%%, max 26.6%%)\n",
		Pct(s.Mean), Pct(s.Max), Pct(q.Mean), Pct(q.Max))
	return err
}
