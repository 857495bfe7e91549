package fsdp

import (
	"errors"
	"runtime"
	"testing"

	"overlapsim/internal/exec"
	"overlapsim/internal/gpu"
	"overlapsim/internal/hw"
	"overlapsim/internal/metrics"
	"overlapsim/internal/model"
	"overlapsim/internal/precision"
	"overlapsim/internal/sim"
	"overlapsim/internal/strategy"
)

func tinyModel() model.Config {
	return model.Config{Name: "tiny", Arch: model.GPT3, NominalParams: 1e8,
		Layers: 4, Heads: 4, Hidden: 256, FFN: 1024, Vocab: 2048, SeqLen: 128}
}

func cluster(t *testing.T, g *hw.GPUSpec, n int) *gpu.Cluster {
	t.Helper()
	cl, err := gpu.New(gpu.Config{System: hw.NewSystem(g, n)})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func runMode(t *testing.T, mode exec.Mode) *exec.Plan {
	t.Helper()
	cl := cluster(t, hw.H100(), 4)
	plan, err := Build(cl, strategy.Params{
		Model: tinyModel(), Batch: 8, Format: precision.FP16, MatrixUnits: true,
		Checkpoint: true, Iterations: 2, Warmup: 1, Mode: mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Run(); err != nil {
		t.Fatal(err)
	}
	return plan
}

func measured(t *testing.T, plan *exec.Plan) []metrics.Iteration {
	t.Helper()
	its, err := plan.MeasuredIterations()
	if err != nil {
		t.Fatal(err)
	}
	return its
}

func TestOverlappedRuns(t *testing.T) {
	plan := runMode(t, exec.Overlapped)
	its := measured(t, plan)
	if len(its) != 2 {
		t.Fatalf("measured %d iterations, want 2", len(its))
	}
	for _, it := range its {
		if it.E2E <= 0 || it.ComputeKernelTime <= 0 || it.CommKernelTime <= 0 {
			t.Errorf("degenerate iteration: %+v", it)
		}
		if it.OverlappedComputeTime < 0 || it.OverlappedComputeTime > it.ComputeKernelTime {
			t.Errorf("overlapped compute out of range: %+v", it)
		}
	}
}

func TestSequentialHasNoOverlap(t *testing.T) {
	plan := runMode(t, exec.Sequential)
	for _, it := range measured(t, plan) {
		if ratio := it.OverlapRatio(); ratio > 0.01 {
			t.Errorf("sequential mode overlap ratio = %g, want ≈0", ratio)
		}
	}
}

func TestSequentialSlowerOverlappedComputeFaster(t *testing.T) {
	seq := measured(t, runMode(t, exec.Sequential))
	ovl := measured(t, runMode(t, exec.Overlapped))
	if seq[0].E2E <= ovl[0].E2E {
		t.Errorf("sequential E2E %g must exceed overlapped %g", seq[0].E2E, ovl[0].E2E)
	}
	if ovl[0].ComputeKernelTime < seq[0].ComputeKernelTime {
		t.Errorf("overlapped compute kernel time %g below isolated %g",
			ovl[0].ComputeKernelTime, seq[0].ComputeKernelTime)
	}
}

func TestIterationsAreConsistent(t *testing.T) {
	// With no jitter, measured iterations are identical.
	its := measured(t, runMode(t, exec.Overlapped))
	if d := its[0].E2E - its[1].E2E; d > its[0].E2E*1e-6 || d < -its[0].E2E*1e-6 {
		t.Errorf("deterministic iterations differ: %g vs %g", its[0].E2E, its[1].E2E)
	}
}

func TestOOMGate(t *testing.T) {
	cl := cluster(t, hw.A100(), 4)
	_, err := Build(cl, strategy.Params{
		Model: model.GPT3_13B(), Batch: 8, Format: precision.FP16,
		MatrixUnits: true, Checkpoint: true,
	})
	var oom *model.ErrOOM
	if !errors.As(err, &oom) {
		t.Fatalf("want ErrOOM, got %v", err)
	}
	// SkipMemoryCheck bypasses the gate.
	if _, err := Build(cluster(t, hw.A100(), 4), strategy.Params{
		Model: tinyModel(), Batch: 8, Format: precision.FP16, SkipMemoryCheck: true,
	}); err != nil {
		t.Errorf("skip-check build failed: %v", err)
	}
}

func TestBatchDivisibility(t *testing.T) {
	cl := cluster(t, hw.H100(), 4)
	if _, err := Build(cl, strategy.Params{Model: tinyModel(), Batch: 6, Format: precision.FP16}); err == nil {
		t.Error("batch 6 over 4 GPUs must fail")
	}
}

func TestInvalidModelRejected(t *testing.T) {
	cl := cluster(t, hw.H100(), 4)
	m := tinyModel()
	m.Layers = 0
	if _, err := Build(cl, strategy.Params{Model: m, Batch: 8}); err == nil {
		t.Error("invalid model must fail")
	}
}

func TestTaskCounts(t *testing.T) {
	cl := cluster(t, hw.H100(), 4)
	plan, err := Build(cl, strategy.Params{
		Model: tinyModel(), Batch: 8, Format: precision.FP16,
		Iterations: 1, Warmup: 0, Mode: exec.Overlapped,
	})
	if err != nil {
		t.Fatal(err)
	}
	L, n := 4, 4
	// Per iteration: embed AG + L fwd AG + L bwd AG + L RS + embed RS
	// collectives, plus per-device: embed, L fwd, head fwd, head bwd,
	// L bwd, optimizer.
	wantComm := 1 + L + L + L + 1
	wantCompute := n * (1 + L + 1 + 1 + L + 1)
	got := len(plan.Iterations[0])
	if got != wantComm+wantCompute {
		t.Errorf("iteration has %d tasks, want %d", got, wantComm+wantCompute)
	}
}

func TestPrefetchBoundsOverlapWindows(t *testing.T) {
	// A deeper prefetch must not decrease the overlapped communication
	// time (more gathers may run early).
	run := func(depth int) float64 {
		cl := cluster(t, hw.MI250(), 4)
		plan, err := Build(cl, strategy.Params{
			Model: tinyModel(), Batch: 8, Format: precision.FP16, MatrixUnits: true,
			PrefetchDepth: depth, Iterations: 2, Warmup: 1, Mode: exec.Overlapped,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Run(); err != nil {
			t.Fatal(err)
		}
		its := measured(t, plan)
		return its[0].E2E
	}
	shallow := run(1)
	deep := run(3)
	if deep > shallow*1.05 {
		t.Errorf("deeper prefetch should not slow the iteration much: %g vs %g", deep, shallow)
	}
}

// buildAllocPerTask builds one iteration of GPT-3 XL on ranks H100s (8
// per node) and returns the bytes the build allocated per task.
func buildAllocPerTask(t *testing.T, ranks int, mode exec.Mode) float64 {
	t.Helper()
	cl, err := gpu.New(gpu.Config{System: hw.NewMultiNode(hw.H100(), 8, ranks/8)})
	if err != nil {
		t.Fatal(err)
	}
	p := strategy.Params{
		Model: model.GPT3XL(), Batch: ranks, Format: precision.FP16, MatrixUnits: true,
		Iterations: 1, Mode: mode,
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plan, err := Build(cl, p)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(plan.Engine.Tasks()))
}

// The plan is O(ranks): its task count grows linearly with ranks, and so
// must the bytes building it allocates. A per-rank dependency on every
// rank (ranks² edges) shows up as bytes per task that grow with ranks.
func TestPlanSizeLinearInRanks(t *testing.T) {
	for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
		small := buildAllocPerTask(t, 64, mode)
		large := buildAllocPerTask(t, 512, mode)
		if large > small*1.10 {
			t.Errorf("%v: build allocates %.0f B/task at 512 ranks, %.0f B/task at 64 (more than 10%% growth)",
				mode, large, small)
		}
	}
}

// The iteration barrier holds without a direct all-to-all edge: no rank
// starts computing iteration i+1 before every rank has finished
// iteration i. Jitter de-synchronizes the ranks and vetoes the symmetry
// collapse, so every rank's schedule is simulated.
func TestIterationBarrierHolds(t *testing.T) {
	for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
		cl, err := gpu.New(gpu.Config{System: hw.NewSystem(hw.H100(), 8), JitterSigma: 0.02, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Build(cl, strategy.Params{
			Model: tinyModel(), Batch: 16, Format: precision.FP16, MatrixUnits: true,
			Warmup: 1, Iterations: 2, Mode: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(plan.Iterations); i++ {
			barrier := 0.0
			for _, task := range plan.Iterations[i] {
				barrier = max(barrier, task.End())
			}
			first := map[int]*sim.Task{}
			for _, task := range plan.Iterations[i+1] {
				if task.Kind() != sim.KindCompute {
					continue
				}
				d := task.Streams()[0].Device()
				if f, ok := first[d]; !ok || task.Start() < f.Start() {
					first[d] = task
				}
			}
			if len(first) != cl.N() {
				t.Fatalf("%v: iteration %d computes on %d ranks, want %d", mode, i+1, len(first), cl.N())
			}
			for d, task := range first {
				if task.Start() < barrier {
					t.Errorf("%v: rank %d starts %s at %g, before iteration %d ends at %g",
						mode, d, task.Name(), task.Start(), i, barrier)
				}
			}
		}
	}
}
