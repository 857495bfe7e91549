// Command fsdp_characterization sweeps FSDP training across the Table II
// model zoo and batch sizes on a chosen system, printing the Fig. 4/5
// quantities: compute slowdown, overlap ratio and the ideal / overlapped /
// sequential end-to-end latencies. Infeasible configurations are reported
// as OOM, exactly as the paper's A100 runs were limited by 40 GB.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"overlapsim/internal/core"
	"overlapsim/internal/hw"
	"overlapsim/internal/model"
	"overlapsim/internal/precision"
	"overlapsim/internal/report"
	"overlapsim/internal/sweep"
	"overlapsim/internal/workload"
)

func main() {
	log.SetFlags(0)
	gpuName := flag.String("gpu", "MI250", "GPU model: A100, H100, MI210, MI250")
	n := flag.Int("n", 4, "GPUs in the node")
	flag.Parse()

	g := hw.ByName(*gpuName)
	if g == nil {
		log.Fatalf("unknown GPU %q", *gpuName)
	}

	var cfgs []core.Config
	for _, m := range model.Zoo() {
		for _, bs := range workload.EvalBatches() {
			cfgs = append(cfgs, core.Config{
				System:      hw.NewSystem(g, *n),
				Model:       m,
				Parallelism: "fsdp",
				Batch:       bs,
				Format:      precision.FP16,
				MatrixUnits: true,
			})
		}
	}

	fmt.Printf("FSDP characterization on %sx%d (FP16, matrix units)\n\n", g.Name, *n)
	res, err := (&sweep.Runner{}).Run(context.Background(), cfgs)
	if err != nil {
		log.Fatal(err)
	}

	headers := []string{"Model", "Batch", "Slowdown", "Overlap",
		"Ideal(ms)", "Overlapped(ms)", "Sequential(ms)", "SeqPenalty"}
	var rows [][]string
	for _, p := range res.Points {
		row := []string{p.Config.Model.Name, fmt.Sprintf("%d", p.Config.Batch)}
		switch {
		case p.OOM != nil:
			row = append(row, "OOM", "-", "-", "-", "-", "-")
		case p.Err != nil:
			log.Fatal(p.Err)
		default:
			c := p.Res.Char
			row = append(row,
				report.Pct(c.ComputeSlowdown),
				report.Pct(c.OverlapRatio),
				report.Ms(c.E2EIdeal),
				report.Ms(p.Res.Overlapped.Mean.E2E),
				report.Ms(p.Res.Sequential.Mean.E2E),
				report.Pct(c.SeqPenalty))
		}
		rows = append(rows, row)
	}
	if err := report.Table(os.Stdout, headers, rows); err != nil {
		log.Fatal(err)
	}
}
