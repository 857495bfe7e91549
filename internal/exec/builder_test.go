package exec

import (
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
// keeps its declaration only while every task, edge and stream comes
// from a call that is symmetric by definition. Each case makes one thing
// through a builder call that is not, and the declaration must lapse.
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := gpu.New(gpu.Config{System: hw.NewSystem(hw.H100(), 4)})
			if err != nil {
				t.Fatal(err)
			}
			b := NewBuilder(cl, tc.mode, 16)
			b.DeclareReplicas(1, 4)
			comm := b.NewStream("comm", 0)
			plan := b.Plan(0, 1, func(int) {
				op := b.KernelOp(kernels.Elementwise("k", 1e6, 1, 0, precision.FP16))
				coll := b.Collective("ag", collective.Desc{Op: collective.AllGather, Bytes: 1 << 20, N: 4}, comm, 0, b.Devices()...)
				a := b.Compute("a", op, 0, 4)
				b.After(a, coll)
				c := b.Compute("c", op, 0, 4)
				b.Pairwise(c, a)
				b.After([]*sim.Task{coll}, c...)
				tc.make(parts{b, a, c, coll})
			})
			if got := plan.DeclaredClasses() != nil; got != tc.keep {
				t.Fatalf("declaration kept: %v, want %v", got, tc.keep)
			}
		})
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
	plan := b.Plan(0, 1, func(int) {
		b.Compute("a", b.KernelOp(kernels.Elementwise("a", 1e6, 1, 0, precision.FP16)), 0, 4)
		b.DeclareReplicas(1, 4)
	})
	if c := plan.DeclaredClasses(); c != nil {
		t.Fatalf("late declaration kept: %v", c)
	}
}
