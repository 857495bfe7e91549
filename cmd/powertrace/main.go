// Command powertrace regenerates the Fig. 7 experiment: a fine-grained
// (1 ms) per-GPU power trace of LLaMA-2 13B FSDP training on a 4×MI250
// node, normalized to TDP and iteration time, written as CSV to stdout or
// a file. The overlap windows appear as the elevated-power regions the
// paper highlights.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"overlapsim/internal/core"
	"overlapsim/internal/exec"
	"overlapsim/internal/power"
	"overlapsim/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("powertrace: ")
	var (
		out      = flag.String("o", "", "output CSV path (default stdout)")
		gpuIdx   = flag.Int("gpu-index", 0, "which GPU's trace to emit")
		interval = flag.Float64("interval-ms", 1, "sampling interval in milliseconds")
	)
	flag.Parse()

	cfg := workload.Figure7()
	cfg.TraceInterval = *interval / 1e3
	res, err := core.RunMode(context.Background(), cfg, exec.Overlapped)
	if err != nil {
		log.Fatal(err)
	}
	if *gpuIdx < 0 || *gpuIdx >= len(res.Traces) {
		log.Fatalf("gpu index %d out of range [0,%d)", *gpuIdx, len(res.Traces))
	}
	trace := res.Traces[*gpuIdx]
	iter := res.Mean.E2E

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	writeTrace(w, trace, cfg.System.GPU.TDPW, iter)
	if *out != "" {
		log.Printf("wrote %d samples to %s (iteration %.1f ms, TDP %gW)",
			len(trace), *out, iter*1e3, cfg.System.GPU.TDPW)
	}
}

func writeTrace(w *os.File, trace []power.Sample, tdp, iter float64) {
	fmt.Fprintln(w, "t_s,t_norm_iter,watts,tdp_frac")
	for _, s := range trace {
		norm := 0.0
		if iter > 0 {
			norm = s.T / iter
		}
		fmt.Fprintf(w, "%.6f,%.4f,%.1f,%.4f\n", s.T, norm, s.Watts, s.Watts/tdp)
	}
}
