// Command overlapchar runs one characterization experiment from the
// command line and prints the full metric set: kernel times, compute
// slowdown (Eq. 1), overlap ratio (Eq. 2), the three end-to-end latencies
// (Eq. 3–5), and per-GPU power telemetry.
//
// Example:
//
//	overlapchar -gpu H100 -n 4 -model "GPT-3 13B" -parallelism fsdp \
//	    -batch 16 -format fp16 -powercap 400
//
// The -parallelism flag accepts any registered strategy name, including
// tensor parallelism ("tp", with -tp-degree). The platform is equally
// open: -hw-file loads user-defined GPUs and systems (JSON, see
// examples/custom_hardware), -system selects any registered system by
// name, and -nodes scales the -gpu/-n node out over the NIC tier:
//
//	overlapchar -hw-file my_gpus.json -system MyPod -model "GPT-3 13B"
//	overlapchar -gpu H100 -n 8 -nodes 4 -model "GPT-3 13B" -batch 64
//
// The flags resolve through sweep.Experiment, so they take the same
// defaults and checks as a sweep spec or an API request: -n 0 and
// -batch 0 select the paper's base configuration (4 GPUs, batch 8), and
// a negative count, batch, micro-batch, degree, iteration count or cap
// is an error.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"overlapsim/internal/core"
	"overlapsim/internal/hw"
	"overlapsim/internal/strategy"
	"overlapsim/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("overlapchar: ")

	var (
		hwFile   = flag.String("hw-file", "", "load custom GPUs/systems from this JSON file first")
		sysName  = flag.String("system", "", "registered system name (overrides -gpu/-n/-nodes)")
		gpuName  = flag.String("gpu", "H100", "registered GPU name: A100, H100, MI210, MI250, ...")
		n        = flag.Int("n", 4, "number of GPUs per node")
		nodes    = flag.Int("nodes", 1, "number of nodes joined by the NIC tier")
		modelNm  = flag.String("model", "GPT-3 XL", `workload: "GPT-3 XL", "GPT-3 2.7B", "GPT-3 6.7B", "GPT-3 13B", "LLaMA2 13B"`)
		par      = flag.String("parallelism", "fsdp", "distribution strategy: "+strings.Join(strategy.Names(), ", "))
		batch    = flag.Int("batch", 8, "global batch size")
		micro    = flag.Int("micro", 0, "pipeline microbatch size (0 = default)")
		tpDeg    = flag.Int("tp-degree", 0, "tensor-parallel group size (tp only; 0 = whole node)")
		format   = flag.String("format", "fp16", "numeric format: fp32, tf32, fp16, bf16")
		vector   = flag.Bool("vector-only", false, "disable Tensor/Matrix cores (general datapath)")
		noCkpt   = flag.Bool("no-checkpoint", false, "disable activation checkpointing")
		iters    = flag.Int("iters", 2, "measured iterations")
		powerCap = flag.Float64("powercap", 0, "per-GPU power cap in watts (0 = uncapped)")
		freqCap  = flag.Float64("freqcap", 0, "frequency cap factor in (0,1] (0 = uncapped)")
	)
	flag.Parse()

	if *hwFile != "" {
		if err := hw.LoadFile(*hwFile); err != nil {
			log.Fatal(err)
		}
	}
	exp := sweep.Experiment{
		System:       *sysName,
		Model:        *modelNm,
		Parallelism:  *par,
		Batch:        *batch,
		MicroBatch:   *micro,
		TPDegree:     *tpDeg,
		Format:       *format,
		VectorOnly:   *vector,
		NoCheckpoint: *noCkpt,
		Iterations:   *iters,
		PowerCapW:    *powerCap,
		FreqCap:      *freqCap,
	}
	if *sysName == "" {
		exp.GPU, exp.GPUCount, exp.Nodes = *gpuName, *n, *nodes
	}
	cfg, err := exp.Config()
	if err != nil {
		log.Fatal(err)
	}

	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		log.Println(err)
		os.Exit(1)
	}
	printResult(res)
}

func printResult(res *core.Result) {
	c := res.Char
	fmt.Printf("experiment        : %s\n", res.Config.Label())
	fmt.Printf("params            : %.2fB exact (%.1fB nominal)\n",
		res.Config.Model.TotalParams()/1e9, res.Config.Model.NominalParams/1e9)
	fmt.Println()
	fmt.Printf("%-34s %12s %12s\n", "", "sequential", "overlapped")
	fmt.Printf("%-34s %10.2fms %10.2fms\n", "compute kernel time (all GPUs)",
		c.Sequential.ComputeKernelTime*1e3, c.Overlapped.ComputeKernelTime*1e3)
	fmt.Printf("%-34s %10.2fms %10.2fms\n", "comm kernel time (all GPUs)",
		c.Sequential.CommKernelTime*1e3, c.Overlapped.CommKernelTime*1e3)
	fmt.Printf("%-34s %10.2fms %10.2fms\n", "E2E iteration",
		res.Sequential.Mean.E2E*1e3, res.Overlapped.Mean.E2E*1e3)
	fmt.Printf("%-34s %10.2fxT %10.2fxT\n", "avg power (TDP)",
		res.Sequential.AvgTDP, res.Overlapped.AvgTDP)
	fmt.Printf("%-34s %10.2fxT %10.2fxT\n", "peak power (TDP)",
		res.Sequential.PeakTDP, res.Overlapped.PeakTDP)
	fmt.Println()
	fmt.Printf("compute slowdown (Eq.1)       : %7.2f %%\n", c.ComputeSlowdown*100)
	fmt.Printf("overlap ratio (Eq.2)          : %7.2f %%\n", c.OverlapRatio*100)
	fmt.Printf("E2E ideal (Eq.4)              : %9.2f ms\n", c.E2EIdeal*1e3)
	fmt.Printf("E2E sequential derived (Eq.5) : %9.2f ms\n", c.E2ESeqDerived*1e3)
	fmt.Printf("sequential penalty vs overlap : %7.2f %%\n", c.SeqPenalty*100)
	fmt.Printf("overlap gap vs ideal          : %7.2f %%\n", c.IdealGap*100)
	fmt.Printf("energy per iteration          : %9.2f kJ (overlapped), %.2f kJ (sequential)\n",
		res.Overlapped.EnergyJ/1e3, res.Sequential.EnergyJ/1e3)
}
