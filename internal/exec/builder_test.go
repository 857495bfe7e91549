package exec

import (
	"errors"
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
// symmetric by definition. Each case makes one thing through a builder
// call that is not: the committed build must return ErrAsymmetric, and
// a FullGraph build of the same calls, which wires every edge and
// collapses nothing, must build.
func TestSymmetricCallsOnly(t *testing.T) {
	type parts struct {
		b    *Builder
		a, c []*sim.Task // two full fan-outs, c made after a
		coll *sim.Task   // a collective off the replicas
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
			d := p.b.Compute("d", p.b.KernelOp(kernels.Elementwise("d", 1e6, 1, 0, precision.FP16)), 0, 4)
			p.b.Pairwise(d, []*sim.Task{p.a[0], p.a[1], p.c[2], p.a[3]})
		}, false},
		// A committed fan-out is wired by index only while its ghost
		// slots are, pointer for pointer, the replicas Compute made.
		{"Pairwise on a fan-out with ghost slots swapped", Overlapped, func(p parts) {
			d := p.b.Compute("d", p.b.KernelOp(kernels.Elementwise("d", 1e6, 1, 0, precision.FP16)), 0, 4)
			p.a[2], p.a[3] = p.a[3], p.a[2]
			p.b.Pairwise(d, p.a)
		}, false},
		{"Pairwise on a fan-out copy with a ghost slot changed", Overlapped, func(p parts) {
			d := p.b.Compute("d", p.b.KernelOp(kernels.Elementwise("d", 1e6, 1, 0, precision.FP16)), 0, 4)
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
		{"partial fan-out", Overlapped, func(p parts) {
			p.b.Compute("part", p.b.KernelOp(kernels.Elementwise("part", 1e6, 1, 0, precision.FP16)), 1, 4)
		}, false},
		{"ComputeOn", Overlapped, func(p parts) {
			p.b.ComputeOn("one", p.b.KernelOp(kernels.Elementwise("one", 1e6, 1, 0, precision.FP16)), 0)
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, full := range []bool{false, true} {
				cl, err := gpu.New(gpu.Config{System: hw.NewSystem(hw.H100(), 4)})
				if err != nil {
					t.Fatal(err)
				}
				b := NewBuilder(cl, tc.mode, 16)
				b.DeclareReplicas(1, 4)
				if full {
					b.FullGraph()
				}
				comm := b.NewStream("comm", 0)
				plan, err := b.Plan(0, 1, func(int) {
					op := b.KernelOp(kernels.Elementwise("k", 1e6, 1, 0, precision.FP16))
					coll := b.Collective("ag", collective.Desc{Op: collective.AllGather, Bytes: 1 << 20, N: 4}, comm, 0, b.Devices()...)
					a := b.Compute("a", op, 0, 4)
					b.After(a, coll)
					c := b.Compute("c", op, 0, 4)
					b.Pairwise(c, a)
					b.After([]*sim.Task{coll}, c...)
					tc.make(parts{b, a, c, coll})
				})
				switch {
				case full && err != nil:
					t.Fatalf("FullGraph build: %v", err)
				case full:
					if c := plan.DeclaredClasses(); c != nil {
						t.Fatalf("FullGraph plan committed to %v", c)
					}
				case tc.keep && (err != nil || plan.DeclaredClasses() == nil):
					t.Fatalf("symmetric calls broke the declaration: %v", err)
				case !tc.keep && !errors.Is(err, ErrAsymmetric):
					t.Fatalf("Plan = %v, want ErrAsymmetric", err)
				}
			}
		})
	}
}

// TestGhostEdgeRewiredToMirror: an edge out of a ghost whose mirror is
// not among the deps is made from the mirror instead, once. The sink
// collective waits for ranks 2 and 3 only; the committed build wires one
// edge from rank 1's task, which the ghosts mirror, and its collapsed
// run equals the FullGraph build's full run task for task. Were the edge
// dropped, the sink would start as soon as the gather ahead of it on its
// stream ends.
func TestGhostEdgeRewiredToMirror(t *testing.T) {
	build := func(full bool) (*Plan, []*sim.Task, *sim.Task) {
		cl, err := gpu.New(gpu.Config{System: hw.NewSystem(hw.H100(), 4)})
		if err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(cl, Overlapped, 16)
		b.DeclareReplicas(1, 4)
		if full {
			b.FullGraph()
		}
		comm := b.NewStream("comm", 0)
		var c []*sim.Task
		var sink *sim.Task
		plan, err := b.Plan(0, 1, func(int) {
			op := b.KernelOp(kernels.Elementwise("k", 1e6, 1, 0, precision.FP16))
			coll := b.Collective("ag", collective.Desc{Op: collective.AllGather, Bytes: 1 << 20, N: 4}, comm, 0, b.Devices()...)
			a := b.Compute("a", op, 0, 4)
			b.After(a, coll)
			c = b.Compute("c", op, 0, 4)
			b.Pairwise(c, a)
			sink = b.Collective("sink", collective.Desc{Op: collective.AllReduce, Bytes: 1 << 20, N: 4}, comm, 0, b.Devices()...)
			b.After([]*sim.Task{sink}, c[2], c[3])
		})
		if err != nil {
			t.Fatal(err)
		}
		return plan, c, sink
	}
	full, _, _ := build(true)
	plan, c, sink := build(false)
	if got, want := plan.Engine.Census().Edges, 2+2+1; got != want {
		t.Fatalf("committed build wired %d edges, want %d", got, want)
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
	if sink.Start() < c[1].End() {
		t.Fatalf("sink starts at %g, before its mirror dependency ends at %g", sink.Start(), c[1].End())
	}
	ft := full.Engine.Tasks()
	for i, task := range plan.Engine.Tasks() {
		if task.Start() != ft[i].Start() || task.End() != ft[i].End() {
			t.Fatalf("task %s: [%g, %g] collapsed, [%g, %g] full", task.Name(), task.Start(), task.End(), ft[i].Start(), ft[i].End())
		}
	}
}

// TestLateDeclarationIgnored: calls made before DeclareReplicas were
// never checked against it, so a declaration after the first task
// declares nothing.
func TestLateDeclarationIgnored(t *testing.T) {
	cl, err := gpu.New(gpu.Config{System: hw.NewSystem(hw.H100(), 4)})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(cl, Overlapped, 8)
	plan, err := b.Plan(0, 1, func(int) {
		b.Compute("a", b.KernelOp(kernels.Elementwise("a", 1e6, 1, 0, precision.FP16)), 0, 4)
		b.DeclareReplicas(1, 4)
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := plan.DeclaredClasses(); c != nil {
		t.Fatalf("late declaration kept: %v", c)
	}
}
