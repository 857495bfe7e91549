package fsdp

import (
	"errors"
	"testing"

	"overlapsim/internal/collective"
	"overlapsim/internal/exec"
	"overlapsim/internal/hw"
	"overlapsim/internal/kernels"
	"overlapsim/internal/precision"
	"overlapsim/internal/sim"
	"overlapsim/internal/strategy"
)

// declaredPlan builds an 8-rank FSDP plan of one warm-up and one
// measured iteration, committed or, when full, as the FullGraph
// reference, calling during at the end of each iteration's build and
// then mutate with the builder and the plan. It returns what Plan
// returns.
func declaredPlan(t *testing.T, mode exec.Mode, full bool, during func(b *builder), mutate func(b *builder, plan *exec.Plan)) (*exec.Plan, error) {
	t.Helper()
	b, err := newBuilder(cluster(t, hw.H100(), 8), strategy.Params{
		Model: tinyModel(), Batch: 8, Format: precision.FP16, MatrixUnits: true,
		Checkpoint: true, Iterations: 1, Warmup: 1, Mode: mode, FullGraph: full,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := b.Plan(b.cfg.Warmup, b.cfg.Iterations, func(it int) {
		b.buildIteration(it)
		if during != nil {
			during(b)
		}
	})
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		mutate(b, plan)
	}
	return plan, nil
}

func taskNamed(t *testing.T, plan *exec.Plan, name string) *sim.Task {
	t.Helper()
	for _, task := range plan.Engine.Tasks() {
		if task.Name() == name {
			return task
		}
	}
	t.Fatalf("no task %q", name)
	return nil
}

// requireRefused fails unless a committed plan was refused with
// ErrAsymmetric, by Plan (a nil plan) or by Run, before it simulated
// anything.
func requireRefused(t *testing.T, plan *exec.Plan, err error) {
	t.Helper()
	if err == nil {
		err = plan.Run()
	}
	if !errors.Is(err, exec.ErrAsymmetric) {
		t.Fatalf("committed plan: %v, want ErrAsymmetric", err)
	}
	if plan == nil {
		return
	}
	for _, task := range plan.Engine.Tasks() {
		if task.Done() {
			t.Fatalf("refused plan ran task %s", task.Name())
		}
	}
}

// TestDeclarationGuard: each way of making something on a committed
// plan outside the builder's symmetric calls must be refused with
// ErrAsymmetric before anything runs, since the plan has no ghost edges
// to fall back to the detector or a full run with. Each census case,
// made after Plan, trips one count only: edges, tasks, streams or
// callbacks, so Run refuses it. The veto case passes the census through
// symmetric calls only, but a collective occupies part of the replicas,
// so Plan refuses it. The FullGraph build of every case runs.
func TestDeclarationGuard(t *testing.T) {
	cases := []struct {
		name   string
		during func(b *builder)
		mutate func(b *builder, plan *exec.Plan)
	}{
		{"raw After between replicas", nil, func(b *builder, plan *exec.Plan) {
			// Layer 1 of rank 2 waits for layer 2 of rank 3: rank 2 runs
			// a layer late.
			taskNamed(t, plan, "it1.s0.fwd.l1@2").After(taskNamed(t, plan, "it1.s0.fwd.l2@3"))
		}},
		{"stray ComputeOn on replica 2", nil, func(b *builder, plan *exec.Plan) {
			b.ComputeOn("stray", b.KernelOp(kernels.Elementwise("stray", 1e6, 1, 0, precision.FP16)), 2)
		}},
		{"extra stream on a replica", nil, func(b *builder, plan *exec.Plan) {
			b.Eng.NewStream("extra", 2)
		}},
		{"OnDone callback", nil, func(b *builder, plan *exec.Plan) {
			// The callback enqueues a late kernel on rank 2, which a
			// ghost rank would never run.
			op := b.KernelOp(kernels.Elementwise("late", 1e6, 1, 0, precision.FP16))
			first := taskNamed(t, plan, "it1.s0.fwd.l1@2")
			first.OnDone(func(float64) {
				b.Eng.NewTask("late", sim.KindCompute, op.Work, op.Payload, first.Streams()[0])
			})
		}},
		{"collective over part of the replicas", func(b *builder) {
			// Ranks 0..3 of 8: the representative and two replicas would
			// feel its contention, the other replicas not.
			b.Collective("partial", collective.Desc{Op: collective.AllReduce, Bytes: 1 << 20, N: 4}, b.agS, 0, b.Devices()...)
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full, err := declaredPlan(t, exec.Overlapped, true, tc.during, tc.mutate)
			if err != nil {
				t.Fatal(err)
			}
			if err := full.Run(); err != nil {
				t.Fatal(err)
			}
			if ghosts := full.EngineStats().GhostTasks; ghosts != 0 {
				t.Fatalf("FullGraph plan ghosted %d tasks", ghosts)
			}
			plan, err := declaredPlan(t, exec.Overlapped, false, tc.during, tc.mutate)
			requireRefused(t, plan, err)
		})
	}
}

// TestDeclaredPlanSkipsDetection proves a committed FSDP plan never
// falls back to DetectClasses or to a full run. With the ghost ledger
// voided by a detection pass after the build, it cannot collapse the
// class; with an empty stream added, the census fails. Either way
// RunContext refuses the plan before anything runs.
func TestDeclaredPlanSkipsDetection(t *testing.T) {
	for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
		for _, census := range []bool{false, true} {
			plan, err := declaredPlan(t, mode, false, nil, func(b *builder, plan *exec.Plan) {
				if census {
					b.Eng.NewStream("extra", 0)
					return
				}
				plan.Engine.DetectClasses(exec.PayloadEq)
			})
			if err != nil {
				t.Fatal(err)
			}
			requireRefused(t, plan, nil)
		}
	}
}
