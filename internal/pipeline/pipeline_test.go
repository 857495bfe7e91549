package pipeline

import (
	"errors"
	"testing"
	"testing/quick"

	"overlapsim/internal/exec"
	"overlapsim/internal/gpu"
	"overlapsim/internal/hw"
	"overlapsim/internal/metrics"
	"overlapsim/internal/model"
	"overlapsim/internal/precision"
	"overlapsim/internal/strategy"
)

func tinyModel() model.Config {
	return model.Config{Name: "tiny", Arch: model.GPT3, NominalParams: 1e8,
		Layers: 8, Heads: 4, Hidden: 256, FFN: 1024, Vocab: 2048, SeqLen: 128}
}

func cluster(t *testing.T, g *hw.GPUSpec, n int) *gpu.Cluster {
	t.Helper()
	cl, err := gpu.New(gpu.Config{System: hw.NewSystem(g, n)})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func build(t *testing.T, mode exec.Mode, batch int) *exec.Plan {
	t.Helper()
	cl := cluster(t, hw.A100(), 4)
	plan, err := Build(cl, strategy.Params{
		Model: tinyModel(), Batch: batch, MicroBatch: 2, Format: precision.FP16,
		MatrixUnits: true, Checkpoint: true,
		Iterations: 2, Warmup: 1, Mode: mode,
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

func TestStageScheduleOneFOneB(t *testing.T) {
	n, m := 4, 6
	for s := 0; s < n; s++ {
		ops := stageSchedule(false, s, n, m)
		if len(ops) != 2*m {
			t.Fatalf("stage %d: %d ops, want %d", s, len(ops), 2*m)
		}
		seenF := make(map[int]bool)
		nextF, nextB := 0, 0
		inflight := 0
		maxInflight := 0
		for _, o := range ops {
			if o.fwd {
				if o.mb != nextF {
					t.Fatalf("stage %d: forward out of order: %d want %d", s, o.mb, nextF)
				}
				nextF++
				seenF[o.mb] = true
				inflight++
			} else {
				if o.mb != nextB {
					t.Fatalf("stage %d: backward out of order: %d want %d", s, o.mb, nextB)
				}
				if !seenF[o.mb] {
					t.Fatalf("stage %d: backward %d before its forward", s, o.mb)
				}
				nextB++
				inflight--
			}
			if inflight > maxInflight {
				maxInflight = inflight
			}
		}
		warm := n - 1 - s
		if warm > m {
			warm = m
		}
		if maxInflight != warm+1 && m > warm {
			t.Errorf("stage %d: max in-flight %d, want %d", s, maxInflight, warm+1)
		}
	}
}

func TestStageScheduleGPipe(t *testing.T) {
	ops := stageSchedule(true, 1, 4, 3)
	for i, o := range ops {
		if (i < 3) != o.fwd {
			t.Fatalf("GPipe order wrong at %d: %+v", i, o)
		}
	}
}

func TestStageScheduleFewMicrobatches(t *testing.T) {
	// M smaller than the warmup depth must still emit every op once.
	ops := stageSchedule(false, 0, 8, 2)
	if len(ops) != 4 {
		t.Fatalf("%d ops, want 4", len(ops))
	}
}

func TestSplitLayers(t *testing.T) {
	got := splitLayers(10, 4)
	want := []int{3, 3, 2, 2}
	sum := 0
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("splitLayers(10,4) = %v, want %v", got, want)
		}
		sum += got[i]
	}
	if sum != 10 {
		t.Fatalf("layers lost: %v", got)
	}
}

func TestOverlappedRuns(t *testing.T) {
	plan := build(t, exec.Overlapped, 8)
	its := measured(t, plan)
	if len(its) != 2 {
		t.Fatalf("measured %d iterations", len(its))
	}
	it := its[0]
	if it.E2E <= 0 || it.ComputeKernelTime <= 0 || it.CommKernelTime <= 0 {
		t.Errorf("degenerate iteration %+v", it)
	}
	if it.OverlapRatio() <= 0 {
		t.Error("1F1B with posted receives must show overlap")
	}
}

func TestSequentialBlockingGPipeCompletes(t *testing.T) {
	// The blocking wavefront must be deadlock-free for several shapes.
	for _, batch := range []int{4, 8, 16} {
		plan := build(t, exec.Sequential, batch)
		for _, it := range measured(t, plan) {
			if ratio := it.OverlapRatio(); ratio > 0.01 {
				t.Errorf("batch %d: sequential overlap ratio %g", batch, ratio)
			}
		}
	}
}

func TestSequentialSlower(t *testing.T) {
	seq := measured(t, build(t, exec.Sequential, 8))[0]
	ovl := measured(t, build(t, exec.Overlapped, 8))[0]
	if seq.E2E <= ovl.E2E {
		t.Errorf("sequential %g not slower than overlapped %g", seq.E2E, ovl.E2E)
	}
}

func TestBatchDivisibility(t *testing.T) {
	cl := cluster(t, hw.A100(), 4)
	_, err := Build(cl, strategy.Params{Model: tinyModel(), Batch: 7, MicroBatch: 2})
	if err == nil {
		t.Error("batch 7 with microbatch 2 must fail")
	}
}

func TestTooFewGPUsOrLayers(t *testing.T) {
	if _, err := Build(cluster(t, hw.A100(), 1), strategy.Params{Model: tinyModel(), Batch: 8}); err == nil {
		t.Error("1 GPU cannot pipeline")
	}
	m := tinyModel()
	m.Layers = 2
	if _, err := Build(cluster(t, hw.A100(), 4), strategy.Params{Model: m, Batch: 8}); err == nil {
		t.Error("2 layers cannot fill 4 stages")
	}
}

func TestOOMGate(t *testing.T) {
	cl := cluster(t, hw.A100(), 4)
	_, err := Build(cl, strategy.Params{
		Model: model.GPT3_13B(), Batch: 8, MicroBatch: 2, Format: precision.FP16, Checkpoint: true,
	})
	var oom *model.ErrOOM
	if !errors.As(err, &oom) {
		t.Fatalf("want ErrOOM, got %v", err)
	}
}

func TestMoreMicrobatchesLongerIteration(t *testing.T) {
	small := measured(t, build(t, exec.Overlapped, 4))[0]
	big := measured(t, build(t, exec.Overlapped, 16))[0]
	if big.E2E <= small.E2E {
		t.Errorf("batch 16 iteration %g not longer than batch 4 %g", big.E2E, small.E2E)
	}
	if big.CommKernelTime <= small.CommKernelTime {
		t.Error("more microbatches must add communication kernel time")
	}
}

// Property: every stage schedule contains each microbatch's F and B
// exactly once, with F before B.
func TestQuickScheduleComplete(t *testing.T) {
	f := func(sRaw, nRaw, mRaw uint8) bool {
		n := int(nRaw%7) + 2
		s := int(sRaw) % n
		m := int(mRaw%12) + 1
		for _, gpipe := range []bool{false, true} {
			ops := stageSchedule(gpipe, s, n, m)
			if len(ops) != 2*m {
				return false
			}
			fSeen := make([]bool, m)
			bSeen := make([]bool, m)
			for _, o := range ops {
				if o.mb < 0 || o.mb >= m {
					return false
				}
				if o.fwd {
					if fSeen[o.mb] {
						return false
					}
					fSeen[o.mb] = true
				} else {
					if bSeen[o.mb] || !fSeen[o.mb] {
						return false
					}
					bSeen[o.mb] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
