package fsdp

import (
	"math"
	"reflect"
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
// measured iteration, then hands its builder and plan to mutate.
func declaredPlan(t *testing.T, mode exec.Mode, mutate func(b *builder, plan *exec.Plan)) *exec.Plan {
	t.Helper()
	return declaredPlanWith(t, mode, nil, mutate)
}

// declaredPlanWith is declaredPlan that also calls during at the end of
// each iteration's build, before the plan is made.
func declaredPlanWith(t *testing.T, mode exec.Mode, during func(b *builder), mutate func(b *builder, plan *exec.Plan)) *exec.Plan {
	t.Helper()
	b, err := newBuilder(cluster(t, hw.H100(), 8), strategy.Params{
		Model: tinyModel(), Batch: 8, Format: precision.FP16, MatrixUnits: true,
		Checkpoint: true, Iterations: 1, Warmup: 1, Mode: mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := b.Plan(b.cfg.Warmup, b.cfg.Iterations, func(it int) {
		b.buildIteration(it)
		if during != nil {
			during(b)
		}
	})
	if mutate != nil {
		mutate(b, plan)
	}
	return plan
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

// requireSameRun compares two finished plans bit for bit: every task's
// start and end, the measurements, and every GPU's power summary and
// telemetry.
func requireSameRun(t *testing.T, a, b *exec.Plan) {
	t.Helper()
	ta, tb := a.Engine.Tasks(), b.Engine.Tasks()
	if len(ta) != len(tb) {
		t.Fatalf("%d tasks vs %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i].Name() != tb[i].Name() ||
			math.Float64bits(ta[i].Start()) != math.Float64bits(tb[i].Start()) ||
			math.Float64bits(ta[i].End()) != math.Float64bits(tb[i].End()) {
			t.Fatalf("task %s: [%v, %v] vs %s: [%v, %v]",
				ta[i].Name(), ta[i].Start(), ta[i].End(), tb[i].Name(), tb[i].Start(), tb[i].End())
		}
	}
	if ma, mb := measured(t, a), measured(t, b); !reflect.DeepEqual(ma, mb) {
		t.Fatalf("measurements diverged:\n%+v\n%+v", ma, mb)
	}
	for i := 0; i < a.Cluster.N(); i++ {
		if !reflect.DeepEqual(a.Cluster.PowerStats(i), b.Cluster.PowerStats(i)) ||
			!reflect.DeepEqual(a.Cluster.Sampler(i).Samples(), b.Cluster.Sampler(i).Samples()) {
			t.Fatalf("gpu %d power diverged", i)
		}
	}
}

// TestDeclarationGuard: each way of making something on a declared plan
// outside the builder's symmetric calls must fail the census check, so
// the plan falls back to DetectClasses — which still collapses the
// untouched replicas — and reproduces the full run bit for bit. Each
// census case trips one count only: edges, tasks, streams or callbacks.
// The veto case passes the census through symmetric calls only, but a
// collective occupies part of the replicas: Collective drops the
// declaration, and the detector's class meets the same veto, so the
// plan runs in full.
func TestDeclarationGuard(t *testing.T) {
	cases := []struct {
		name   string
		during func(b *builder)
		mutate func(b *builder, plan *exec.Plan)
		vetoed bool
	}{
		{"raw After between replicas", nil, func(b *builder, plan *exec.Plan) {
			// Layer 1 of rank 2 waits for layer 2 of rank 3: rank 2 runs
			// a layer late.
			taskNamed(t, plan, "it1.s0.fwd.l1@2").After(taskNamed(t, plan, "it1.s0.fwd.l2@3"))
		}, false},
		{"stray ComputeOn on replica 2", nil, func(b *builder, plan *exec.Plan) {
			b.ComputeOn("stray", b.KernelOp(kernels.Elementwise("stray", 1e6, 1, 0, precision.FP16)), 2)
		}, false},
		{"extra stream on a replica", nil, func(b *builder, plan *exec.Plan) {
			b.Eng.NewStream("extra", 2)
		}, false},
		{"OnDone callback", nil, func(b *builder, plan *exec.Plan) {
			// The callback enqueues a late kernel on rank 2, which a
			// ghost rank would never run.
			op := b.KernelOp(kernels.Elementwise("late", 1e6, 1, 0, precision.FP16))
			first := taskNamed(t, plan, "it1.s0.fwd.l1@2")
			first.OnDone(func(float64) {
				b.Eng.NewTask("late", sim.KindCompute, op.Work, op.Payload, first.Streams()[0])
			})
		}, false},
		{"collective over part of the replicas", func(b *builder) {
			// Ranks 0..3 of 8: the representative and two replicas would
			// feel its contention, the other replicas not.
			b.Collective("partial", collective.Desc{Op: collective.AllReduce, Bytes: 1 << 20, N: 4}, b.agS, 0, b.Devices()...)
		}, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full := declaredPlanWith(t, exec.Overlapped, tc.during, tc.mutate)
			full.NoCollapse = true
			if err := full.Run(); err != nil {
				t.Fatal(err)
			}
			fast := declaredPlanWith(t, exec.Overlapped, tc.during, tc.mutate)
			if c := fast.DeclaredClasses(); c != nil {
				t.Fatalf("guard missed the mutation: declared %v", c)
			}
			if err := fast.Run(); err != nil {
				t.Fatal(err)
			}
			if ghosts := fast.EngineStats().GhostTasks; tc.vetoed != (ghosts == 0) {
				t.Fatalf("%d ghost tasks: DetectClasses did not serve the plan as expected", ghosts)
			}
			requireSameRun(t, full, fast)
		})
	}
}

// TestDeclaredPlanSkipsDetection proves the FSDP path never calls
// DetectClasses. With every mirror cleared after the build, detection
// would rewrite them and collapse; the declaration trusts its own, and
// Collapse refuses a class whose ghosts have no mirror, so the plan runs
// in full. Breaking the census with an empty stream sends the same plan
// to the detector, which collapses it.
func TestDeclaredPlanSkipsDetection(t *testing.T) {
	for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
		for _, detect := range []bool{false, true} {
			plan := declaredPlan(t, mode, func(b *builder, plan *exec.Plan) {
				for _, task := range plan.Engine.Tasks() {
					task.SetMirror(nil)
				}
				if detect {
					b.Eng.NewStream("extra", 0)
				}
			})
			if err := plan.Run(); err != nil {
				t.Fatal(err)
			}
			if ghosts := plan.EngineStats().GhostTasks; (ghosts > 0) != detect {
				t.Fatalf("%v, census broken %v: %d ghost tasks", mode, detect, ghosts)
			}
		}
	}
}
