package gpu_test

import (
	"context"
	"fmt"
	"testing"

	"overlapsim/internal/collective"
	"overlapsim/internal/core"
	"overlapsim/internal/exec"
	"overlapsim/internal/gpu"
	"overlapsim/internal/hw"
	"overlapsim/internal/kernels"
	"overlapsim/internal/model"
	"overlapsim/internal/power"
	"overlapsim/internal/precision"
	"overlapsim/internal/sim"
)

// jitteredFSDP is one jittered FSDP GPT-3 XL iteration on 4×8 H100s, the
// shape whose de-synchronized ranks the solve memo is for.
func jitteredFSDP(caps power.Caps) core.Config {
	return core.Config{
		System:      hw.NewMultiNode(hw.H100(), 8, 4),
		Model:       model.GPT3XL(),
		Parallelism: "fsdp",
		Batch:       32,
		Format:      precision.FP16,
		MatrixUnits: true,
		Iterations:  1,
		Caps:        caps,
		JitterSigma: 0.02,
		Seed:        7,
	}
}

// runPlan builds and runs one mode of cfg and returns its cluster.
func runPlan(t *testing.T, cfg core.Config, mode exec.Mode) *gpu.Cluster {
	t.Helper()
	plan, err := core.BuildPlan(cfg, mode)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	return plan.Cluster
}

// TestMemoCollapsesJitteredSolves checks that the ranks of a jittered run
// share their solves: the distinct compute solves are at most 5% of all.
func TestMemoCollapsesJitteredSolves(t *testing.T) {
	for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
		distinct, solves, inserts := gpu.MemoStats(runPlan(t, jitteredFSDP(power.Caps{}), mode))
		t.Logf("%v: %d distinct of %d compute solves, %d insertions", mode, distinct, solves, inserts)
		if inserts >= gpu.MemoCap {
			t.Fatalf("%v: %d insertions reached the cap %d", mode, inserts, gpu.MemoCap)
		}
		if solves == 0 || distinct*20 > solves {
			t.Errorf("%v: %d distinct solves of %d, want at most 5%%", mode, distinct, solves)
		}
	}
}

// TestMemoCapHoldsCappedJitter checks that a power-capped jittered run,
// whose DVFS solves take several starting frequencies, never fills the
// memo, so it is never cleared.
func TestMemoCapHoldsCappedJitter(t *testing.T) {
	for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
		_, _, inserts := gpu.MemoStats(runPlan(t, jitteredFSDP(power.Caps{PowerW: 300}), mode))
		t.Logf("%v: %d insertions", mode, inserts)
		if inserts >= gpu.MemoCap {
			t.Errorf("%v: %d insertions reached the cap %d", mode, inserts, gpu.MemoCap)
		}
	}
}

// TestMemoSkipsUnpreparedKernels checks that kernels that were never
// prepared bypass the memo: each task's Cost is its own, priced when it
// enters, so no other task's key could ever hit.
func TestMemoSkipsUnpreparedKernels(t *testing.T) {
	const n = 4
	g := hw.H100()
	cl, err := gpu.New(gpu.Config{System: hw.NewSystem(g, n), JitterSigma: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(cl)
	eng.AddObserver(cl)
	d := kernels.GEMM("g", 4096, 4096, 4096, 1, precision.FP16, precision.Matrix)
	for dev := 0; dev < n; dev++ {
		s := eng.NewStream(fmt.Sprintf("compute%d", dev), dev)
		for i := 0; i < 3; i++ {
			eng.NewTask("g", sim.KindCompute, kernels.Work(d), d, s)
		}
	}
	cd, work := collective.Prepare(collective.Desc{Name: "ar", Op: collective.AllReduce, Bytes: 1 << 28, N: n}, cl.Fabric())
	eng.NewTask("ar", sim.KindComm, work, cd, eng.NewStream("comm", 0))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if distinct, solves, _ := gpu.MemoStats(cl); distinct != 0 || solves != 0 {
		t.Errorf("unprepared kernels: %d memo entries and %d keyed solves, want none", distinct, solves)
	}
}
