// Command paperfigs regenerates every table and figure of the paper's
// evaluation section on the simulator and prints them as text tables.
// Use -only to restrict to one artifact (e.g. -only fig4), and -out DIR
// to also write the CSV series of fig1a, fig1b, fig4 and fig7 into DIR
// (fig1a.csv, fig1b.csv, fig4.csv, fig7_trace.csv); the other artifacts
// are text only.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"overlapsim/internal/core"
	"overlapsim/internal/exec"
	"overlapsim/internal/power"
	"overlapsim/internal/report"
	"overlapsim/internal/sweep"
	"overlapsim/internal/workload"
)

// artifacts names what -only selects, in output order.
var artifacts = []string{"table1", "table2", "fig1a", "fig1b", "fig4", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11", "headline"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperfigs: ")
	names := strings.Join(artifacts, ", ")
	only := flag.String("only", "", "restrict to one artifact: "+names)
	outDir := flag.String("out", "", "directory to write the fig1a, fig1b, fig4 and fig7 CSVs into (optional)")
	flag.Parse()
	if *only != "" && !slices.ContainsFunc(artifacts, func(a string) bool { return strings.EqualFold(a, *only) }) {
		log.Fatalf("unknown -only %q; valid: %s", *only, names)
	}
	if *outDir != "" {
		check(os.MkdirAll(*outDir, 0o755))
	}

	want := func(name string) bool { return *only == "" || strings.EqualFold(*only, name) }
	w := os.Stdout

	if want("table1") {
		section(w, "Table I — evaluated GPUs")
		check(report.Table1(w))
	}
	if want("table2") {
		section(w, "Table II — workloads")
		check(report.Table2(w))
	}

	var mainPts []sweep.Point
	needMain := want("fig4") || want("fig5") || want("fig6") || want("headline")
	if needMain {
		log.Println("running main evaluation grid (Figures 4-6)...")
		mainPts = runGrid(workload.MainGrid())
	}

	if want("fig1a") {
		section(w, "Figure 1(a) — overlapped computation, FSDP on H100x8")
		pts := runGrid(workload.Figure1a())
		check(report.OverlapFigure(w, pts))
		writePointsCSV(*outDir, "fig1a.csv", pts)
	}
	if want("fig1b") {
		section(w, "Figure 1(b) — overlapped computation, PP GPT-3 2.7B on A100x4")
		pts := runGrid(workload.Figure1b())
		check(report.OverlapFigure(w, pts))
		writePointsCSV(*outDir, "fig1b.csv", pts)
	}
	if want("fig4") {
		section(w, "Figure 4 — computation slowdowns across GPUs")
		check(report.SlowdownFigure(w, mainPts))
		writePointsCSV(*outDir, "fig4.csv", mainPts)
	}
	if want("fig5") {
		section(w, "Figure 5 — end-to-end training iteration latency")
		check(report.E2EFigure(w, mainPts))
	}
	if want("fig6") {
		section(w, "Figure 6 — power consumption across GPUs")
		check(report.PowerFigure(w, mainPts))
	}
	if want("fig7") {
		section(w, "Figure 7 — MI250 power trace, LLaMA2 13B (1ms sampling)")
		runFig7(w, *outDir)
	}
	if want("fig9") {
		section(w, "Figure 9 — impact of power capping (A100x4)")
		pts := runGrid(workload.Figure9())
		check(report.PowerCapFigure(w, pts))
	}
	if want("fig10") {
		section(w, "Figure 10 — numeric precision (FP32 vs FP16), H100x4")
		pts := runGrid(workload.Figure10())
		check(report.AblationFigure(w, pts, func(p sweep.Point) string {
			return p.Config.Format.String()
		}))
	}
	if want("fig11") {
		section(w, "Figure 11 — Tensor Core utilization (FP32 vs TF32), H100x4")
		pts := runGrid(workload.Figure11())
		check(report.AblationFigure(w, pts, func(p sweep.Point) string {
			if p.Config.MatrixUnits {
				return "TF32 tensor core"
			}
			return "FP32 general"
		}))
	}
	if want("headline") {
		section(w, "Headline aggregates (abstract / §V)")
		check(report.Headline(w, mainPts))
	}
}

func runFig7(w *os.File, outDir string) {
	res, err := core.RunMode(context.Background(), workload.Figure7(), exec.Overlapped)
	check(err)
	if len(res.Traces) == 0 {
		log.Fatal("fig7: no trace recorded")
	}
	tr := res.Traces[0]
	g := workload.Figure7().System.GPU
	fmt.Fprintf(w, "samples=%d interval=%.0fms gpu0; normalized power (TDP=%gW):\n",
		len(tr), power.TraceInterval*1e3, g.TDPW)
	// Print a coarse sparkline-style summary: min/mean/max per decile of
	// the run.
	printTraceSummary(w, tr, g.TDPW)
	if outDir != "" {
		rows := make([][]string, len(tr))
		for i, s := range tr {
			rows[i] = []string{fmt.Sprintf("%.6f", s.T), fmt.Sprintf("%.1f", s.Watts),
				fmt.Sprintf("%.4f", s.Watts/g.TDPW)}
		}
		writeCSV(outDir, "fig7_trace.csv", []string{"t_s", "watts", "tdp_frac"}, rows)
	}
}

func printTraceSummary(w *os.File, tr []power.Sample, tdp float64) {
	if len(tr) == 0 {
		return
	}
	const buckets = 20
	per := (len(tr) + buckets - 1) / buckets
	headers := []string{"phase", "min(TDP)", "mean(TDP)", "max(TDP)"}
	var rows [][]string
	for b := 0; b < buckets && b*per < len(tr); b++ {
		lo := b * per
		hi := lo + per
		if hi > len(tr) {
			hi = len(tr)
		}
		mn, mx, sum := tr[lo].Watts, tr[lo].Watts, 0.0
		for _, s := range tr[lo:hi] {
			if s.Watts < mn {
				mn = s.Watts
			}
			if s.Watts > mx {
				mx = s.Watts
			}
			sum += s.Watts
		}
		rows = append(rows, []string{
			fmt.Sprintf("%2d/%d", b+1, buckets),
			report.TDP(mn / tdp),
			report.TDP(sum / float64(hi-lo) / tdp),
			report.TDP(mx / tdp),
		})
	}
	check(report.Table(w, headers, rows))
}

// writePointsCSV writes one grid's points as a CSV file into dir; an
// empty dir writes nothing.
func writePointsCSV(dir, name string, pts []sweep.Point) {
	if dir == "" {
		return
	}
	headers := []string{"system", "parallelism", "model", "batch", "format",
		"overlap_ratio", "compute_slowdown", "e2e_ideal_ms", "e2e_overlap_ms", "e2e_seq_ms",
		"avg_tdp", "peak_tdp", "status"}
	var rows [][]string
	for _, p := range pts {
		row := []string{p.Config.System.Name, p.Config.Parallelism.String(), p.Config.Model.Name,
			fmt.Sprintf("%d", p.Config.Batch), p.Config.Format.String()}
		if p.Res != nil {
			row = append(row,
				fmt.Sprintf("%.4f", p.Res.Char.OverlapRatio),
				fmt.Sprintf("%.4f", p.Res.Char.ComputeSlowdown),
				report.Ms(p.Res.Char.E2EIdeal),
				report.Ms(p.Res.Overlapped.Mean.E2E),
				report.Ms(p.Res.Sequential.Mean.E2E),
				fmt.Sprintf("%.3f", p.Res.Overlapped.AvgTDP),
				fmt.Sprintf("%.3f", p.Res.Overlapped.PeakTDP),
				"ok")
		} else if p.OOM != nil {
			row = append(row, "", "", "", "", "", "", "", "oom")
		} else {
			row = append(row, "", "", "", "", "", "", "", "error")
		}
		rows = append(rows, row)
	}
	writeCSV(dir, name, headers, rows)
}

// writeCSV writes one CSV file into dir; any create or write error ends
// the run.
func writeCSV(dir, name string, headers []string, rows [][]string) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	check(err)
	err = report.CSV(f, headers, rows)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	check(err)
	log.Printf("wrote %s", path)
}

// runGrid runs one grid through the sweep runner and logs every failed
// point; OOM points stay in the result for the figures to mark.
func runGrid(cfgs []core.Config) []sweep.Point {
	res, err := (&sweep.Runner{}).Run(context.Background(), cfgs)
	check(err)
	for _, p := range res.Points {
		if p.Err != nil {
			log.Printf("error: %s: %v", p.Config.Label(), p.Err)
		}
	}
	return res.Points
}

func section(w *os.File, title string) {
	fmt.Fprintf(w, "\n== %s ==\n\n", title)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
