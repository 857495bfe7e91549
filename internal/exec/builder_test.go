package exec

import (
	"errors"
	"math"
	"slices"
	"testing"

	"overlapsim/internal/collective"
	"overlapsim/internal/gpu"
	"overlapsim/internal/hw"
	"overlapsim/internal/kernels"
	"overlapsim/internal/precision"
	"overlapsim/internal/sim"
)

// TestSymmetricCallsOnly: a plan declaring replicas 1..3 of four devices
// on a deterministic cluster commits to its declaration, which holds
// only while every task, edge and stream comes from a call that is
// symmetric by definition and no ghost is wired outside its fan-out.
// Each refused case makes one thing through a builder call that is not:
// the committed build must return ErrAsymmetric, and a FullGraph build
// of the same calls, which wires every edge and collapses nothing, must
// build. Each accepted case must run collapsed to its FullGraph twin's
// schedule, task for task.
func TestSymmetricCallsOnly(t *testing.T) {
	type parts struct {
		b          *Builder
		a, c       []*sim.Task // two full fan-outs, c made after a
		coll, sink *sim.Task   // collectives off the replicas, before a and after c
	}
	elementwise := func(b *Builder, name string) Op {
		return b.KernelOp(kernels.Elementwise(name, 1e6, 1, 0, precision.FP16))
	}
	cases := []struct {
		name string
		mode Mode
		make func(p parts)
		keep bool
	}{
		{"symmetric calls", Overlapped, func(p parts) {}, true},
		{"symmetric calls, sequential", Sequential, func(p parts) {}, true},
		{"Pairwise across devices", Overlapped, func(p parts) {
			rev := slices.Clone(p.a)
			slices.Reverse(rev)
			p.b.Pairwise(p.c, rev)
		}, false},
		{"Pairwise on two fan-outs mixed", Overlapped, func(p parts) {
			d := p.b.Compute("d", elementwise(p.b, "d"), 0, 4)
			p.b.Pairwise(d, []*sim.Task{p.a[0], p.a[1], p.c[2], p.a[3]})
		}, false},
		// A committed fan-out is wired by index only while its ghost
		// slots are, pointer for pointer, the replicas Compute made.
		{"Pairwise on a fan-out with ghost slots swapped", Overlapped, func(p parts) {
			d := p.b.Compute("d", elementwise(p.b, "d"), 0, 4)
			p.a[2], p.a[3] = p.a[3], p.a[2]
			p.b.Pairwise(d, p.a)
		}, false},
		{"Pairwise on a fan-out copy with a ghost slot changed", Overlapped, func(p parts) {
			d := p.b.Compute("d", elementwise(p.b, "d"), 0, 4)
			cp := slices.Clone(p.c)
			cp[3] = p.a[3]
			p.b.Pairwise(d, cp)
		}, false},
		{"After on a fan-out with ghost slots swapped", Overlapped, func(p parts) {
			p.c[2], p.c[3] = p.c[3], p.c[2]
			p.b.After(p.c, p.coll)
		}, false},
		{"After on a fan-out copy with a ghost slot changed", Sequential, func(p parts) {
			cp := slices.Clone(p.c)
			cp[3] = p.a[3]
			p.b.After(cp, p.coll)
		}, false},
		{"After on part of a fan-out", Overlapped, func(p parts) {
			p.b.After(p.c[2:3], p.coll)
		}, false},
		{"After on a replica task", Overlapped, func(p parts) {
			p.b.After(p.c, p.a[3])
		}, false},
		{"After of a collective on some ghosts", Overlapped, func(p parts) {
			p.b.After([]*sim.Task{p.sink}, p.c[2], p.c[3])
		}, false},
		{"partial fan-out", Overlapped, func(p parts) {
			p.b.Compute("part", elementwise(p.b, "part"), 1, 4)
		}, false},
		{"ComputeOn", Overlapped, func(p parts) {
			p.b.ComputeOn("one", elementwise(p.b, "one"), 0)
		}, false},
		{"stream on a replica", Overlapped, func(p parts) {
			p.b.NewStream("extra", 1)
		}, false},
		{"collective on a replica stream", Overlapped, func(p parts) {
			p.b.Collective("ar", collective.Desc{Op: collective.AllReduce, Bytes: 1 << 20, N: 4}, p.a[2].Streams()[0], 0)
		}, false},
		{"sequential collective over some devices", Sequential, func(p parts) {
			p.b.Collective("ar", collective.Desc{Op: collective.AllReduce, Bytes: 1 << 20, N: 4}, nil, 0, 0, 1)
		}, false},
		{"Order", Sequential, func(p parts) {
			p.b.Order(p.coll, 2)
		}, false},
		{"FullGraph after the first task", Overlapped, func(p parts) {
			p.b.FullGraph()
		}, false},
	}
	build := func(t *testing.T, mode Mode, full bool, calls func(p parts)) (*Plan, error) {
		t.Helper()
		cl, err := gpu.New(gpu.Config{System: hw.NewSystem(hw.H100(), 4)})
		if err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(cl, mode, 16)
		b.DeclareReplicas(1, 4)
		if full {
			b.FullGraph()
		}
		comm := b.NewStream("comm", 0)
		return b.Plan(0, 1, func(int) {
			op := elementwise(b, "k")
			coll := b.Collective("ag", collective.Desc{Op: collective.AllGather, Bytes: 1 << 20, N: 4}, comm, 0, b.Devices()...)
			a := b.Compute("a", op, 0, 4)
			b.After(a, coll)
			c := b.Compute("c", op, 0, 4)
			b.Pairwise(c, a)
			sink := b.Collective("sink", collective.Desc{Op: collective.AllReduce, Bytes: 1 << 20, N: 4}, comm, 0, b.Devices()...)
			b.After([]*sim.Task{sink}, c...)
			calls(parts{b, a, c, coll, sink})
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full, err := build(t, tc.mode, true, tc.make)
			if err != nil {
				t.Fatalf("FullGraph build: %v", err)
			}
			if c := full.DeclaredClasses(); c != nil {
				t.Fatalf("FullGraph plan committed to %v", c)
			}
			plan, err := build(t, tc.mode, false, tc.make)
			if !tc.keep {
				if !errors.Is(err, ErrAsymmetric) {
					t.Fatalf("Plan = %v, want ErrAsymmetric", err)
				}
				return
			}
			if err != nil || plan.DeclaredClasses() == nil {
				t.Fatalf("symmetric calls broke the declaration: %v", err)
			}
			if err := full.Run(); err != nil {
				t.Fatal(err)
			}
			if err := plan.Run(); err != nil {
				t.Fatal(err)
			}
			if plan.EngineStats().GhostTasks == 0 {
				t.Fatal("committed plan did not collapse")
			}
			ft := full.Engine.Tasks()
			for i, task := range plan.Engine.Tasks() {
				if math.Float64bits(task.Start()) != math.Float64bits(ft[i].Start()) ||
					math.Float64bits(task.End()) != math.Float64bits(ft[i].End()) {
					t.Fatalf("task %s: [%g, %g] collapsed, [%g, %g] full",
						task.Name(), task.Start(), task.End(), ft[i].Start(), ft[i].End())
				}
			}
		})
	}
}

// TestLateDeclarationIgnored: a declaration that cannot commit declares
// nothing. Calls made before a late DeclareReplicas were never checked
// against it; a jittered cluster's ranks run apart; and a FullGraph
// build, whether asked for before or after the declaration, wires every
// edge. Each makes plain per-device tasks: no declared classes, no
// mirrors and no ledger ranges.
func TestLateDeclarationIgnored(t *testing.T) {
	cases := []struct {
		name   string
		jitter float64
		before func(b *Builder) // before the first task
		during func(b *Builder) // after the first fan-out
	}{
		{"late declaration", 0, nil, func(b *Builder) { b.DeclareReplicas(1, 4) }},
		{"jittered cluster", 0.05, func(b *Builder) { b.DeclareReplicas(1, 4) }, nil},
		{"FullGraph before DeclareReplicas", 0, func(b *Builder) {
			b.FullGraph()
			b.DeclareReplicas(1, 4)
		}, nil},
		{"FullGraph after DeclareReplicas", 0, func(b *Builder) {
			b.DeclareReplicas(1, 4)
			b.FullGraph()
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := gpu.New(gpu.Config{System: hw.NewSystem(hw.H100(), 4), JitterSigma: tc.jitter, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			b := NewBuilder(cl, Overlapped, 8)
			if tc.before != nil {
				tc.before(b)
			}
			plan, err := b.Plan(0, 1, func(int) {
				a := b.Compute("a", b.KernelOp(kernels.Elementwise("a", 1e6, 1, 0, precision.FP16)), 0, 4)
				if tc.during != nil {
					tc.during(b)
				}
				c := b.Compute("c", b.KernelOp(kernels.Elementwise("c", 1e6, 1, 0, precision.FP16)), 0, 4)
				b.Pairwise(c, a)
			})
			if err != nil {
				t.Fatal(err)
			}
			if c := plan.DeclaredClasses(); c != nil {
				t.Fatalf("declared %v", c)
			}
			for _, task := range plan.Engine.Tasks() {
				if task.Mirror() != nil || plan.Engine.ReplicasOf(task) != nil {
					t.Fatalf("task %s has a mirror or ledger replicas", task.Name())
				}
			}
		})
	}
}
