// Package microbench implements the controlled experiment of Fig. 8: an
// N×N×N matrix multiplication executed concurrently with a 1 GB
// all-reduce, compared against the same matrix multiplication in
// isolation. It isolates the contention mechanism from training-schedule
// effects and exposes the power behaviour near TDP.
package microbench

import (
	"fmt"

	"overlapsim/internal/collective"
	"overlapsim/internal/gpu"
	"overlapsim/internal/hw"
	"overlapsim/internal/kernels"
	"overlapsim/internal/power"
	"overlapsim/internal/precision"
	"overlapsim/internal/sim"
	"overlapsim/internal/trace"
)

// Config configures one microbenchmark run.
type Config struct {
	// System is the GPU node.
	System hw.System
	// N is the square GEMM dimension.
	N int
	// Format is the GEMM numeric format.
	Format precision.Format
	// MatrixUnits selects the matrix datapath.
	MatrixUnits bool
	// CollectiveBytes is the payload of the concurrent all-reduce
	// (the paper uses 1 GB).
	CollectiveBytes float64
	// Repeats is how many GEMMs are timed (0 means 8).
	Repeats int
	// Caps are optional power/frequency limits.
	Caps power.Caps
}

// DefaultCollectiveBytes is the paper's 1 GB all-reduce payload.
const DefaultCollectiveBytes = 1 << 30

// Result reports the microbenchmark outcome.
type Result struct {
	// N echoes the GEMM dimension.
	N int
	// IsolatedGEMM and OverlappedGEMM are mean per-GEMM times in seconds.
	IsolatedGEMM, OverlappedGEMM float64
	// Slowdown is (overlapped − isolated) / isolated.
	Slowdown float64
	// IsolatedPower and OverlappedPower summarize GPU 0 power in each run.
	IsolatedPower, OverlappedPower power.Stats
}

// Run executes the isolated and overlapped microbenchmarks and reports
// the contention effect.
func Run(cfg Config) (*Result, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("microbench: invalid GEMM dimension %d", cfg.N)
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = 8
	}
	if cfg.CollectiveBytes <= 0 {
		cfg.CollectiveBytes = DefaultCollectiveBytes
	}

	iso, err := runOnce(cfg, false)
	if err != nil {
		return nil, err
	}
	ovl, err := runOnce(cfg, true)
	if err != nil {
		return nil, err
	}

	res := &Result{
		N:               cfg.N,
		IsolatedGEMM:    iso.meanGEMM,
		OverlappedGEMM:  ovl.meanGEMM,
		IsolatedPower:   iso.power,
		OverlappedPower: ovl.power,
	}
	if iso.meanGEMM > 0 {
		res.Slowdown = (ovl.meanGEMM - iso.meanGEMM) / iso.meanGEMM
	}
	return res, nil
}

type runResult struct {
	meanGEMM float64
	power    power.Stats
}

func runOnce(cfg Config, overlap bool) (*runResult, error) {
	cl, err := gpu.New(gpu.Config{System: cfg.System, Caps: cfg.Caps})
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(cl)
	eng.AddObserver(cl)

	gf := precision.EffectiveGEMMFormat(cfg.Format, cfg.MatrixUnits)
	path := precision.PathFor(gf, cfg.MatrixUnits)
	n := float64(cfg.N)
	gemm := kernels.GEMM(fmt.Sprintf("matmul.%dx%d", cfg.N, cfg.N), n, n, n, 1, gf, path)

	computeS := eng.NewStream("compute", 0)
	var gemms []*sim.Task
	for i := 0; i < cfg.Repeats; i++ {
		gemms = append(gemms, eng.NewTask(fmt.Sprintf("gemm%d", i), sim.KindCompute,
			kernels.Work(gemm), gemm, computeS))
	}

	if overlap {
		// Enough back-to-back all-reduces to cover the GEMM stream: sized
		// from contention-free times, with margin for the slowdown.
		commS := eng.NewStream("comm", 0)
		cd := collective.Desc{Name: "allreduce.1g", Op: collective.AllReduce,
			Bytes: cfg.CollectiveBytes, N: cfg.System.N}
		if err := cd.Validate(); err != nil {
			return nil, err
		}
		gemmTime := kernels.BaseTime(gemm, cfg.System.GPU) * float64(cfg.Repeats)
		collTime := collective.Time(cd, cl.Fabric())
		reps := int(gemmTime*2/collTime) + 1
		pcd, work := collective.Prepare(cd, cl.Fabric())
		for i := 0; i < reps; i++ {
			eng.NewTask(fmt.Sprintf("allreduce%d", i), sim.KindComm, work, pcd, commS)
		}
	}

	if err := eng.Run(); err != nil {
		return nil, err
	}

	tl := trace.FromTasks(gemms)
	total, _, _, _ := tl.DeviceOverlap(0)
	return &runResult{
		meanGEMM: total / float64(cfg.Repeats),
		power:    cl.PowerStats(0),
	}, nil
}

// SweepNs are the GEMM dimensions of the Fig. 8 sweep.
func SweepNs() []int { return []int{1024, 2048, 4096, 8192, 16384} }
