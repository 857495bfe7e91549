// Command microbench regenerates the Fig. 8 experiment: an N×N matrix
// multiplication running concurrently with a 1 GB all-reduce, swept over
// N, reporting the compute slowdown and power against the isolated
// baseline.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"overlapsim/internal/hw"
	"overlapsim/internal/microbench"
	"overlapsim/internal/power"
	"overlapsim/internal/precision"
	"overlapsim/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("microbench: ")
	var (
		gpuName  = flag.String("gpu", "H100", "GPU model: A100, H100, MI210, MI250")
		n        = flag.Int("n", 4, "number of GPUs")
		format   = flag.String("format", "fp16", "GEMM format: fp32, tf32, fp16, bf16")
		vector   = flag.Bool("vector-only", false, "disable matrix units")
		powerCap = flag.Float64("powercap", 0, "power cap in watts")
	)
	flag.Parse()

	g := hw.ByName(*gpuName)
	if g == nil {
		log.Fatalf("unknown GPU %q", *gpuName)
	}
	if *n < 1 {
		log.Fatalf("invalid GPU count %d", *n)
	}
	f, err := precision.Parse(*format)
	if err != nil {
		log.Fatal(err)
	}

	headers := []string{"N", "Isolated(ms)", "Overlapped(ms)", "Slowdown",
		"AvgIso(TDP)", "AvgOvl(TDP)", "PeakIso(TDP)", "PeakOvl(TDP)"}
	var rows [][]string
	for _, dim := range microbench.SweepNs() {
		res, err := microbench.Run(microbench.Config{
			System:      hw.NewSystem(g, *n),
			N:           dim,
			Format:      f,
			MatrixUnits: !*vector,
			Caps:        power.Caps{PowerW: *powerCap},
		})
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", dim),
			report.Ms(res.IsolatedGEMM),
			report.Ms(res.OverlappedGEMM),
			report.Pct(res.Slowdown),
			report.TDP(res.IsolatedPower.AvgTDP),
			report.TDP(res.OverlappedPower.AvgTDP),
			report.TDP(res.IsolatedPower.PeakTDP),
			report.TDP(res.OverlappedPower.PeakTDP),
		})
	}
	fmt.Printf("Fig. 8 microbenchmark — %s x%d, %s, 1GB all-reduce\n\n", g.Name, *n, f)
	if err := report.Table(os.Stdout, headers, rows); err != nil {
		log.Fatal(err)
	}
}
