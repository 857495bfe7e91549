package exec

import (
	"errors"
	"testing"

	"overlapsim/internal/collective"
	"overlapsim/internal/kernels"
	"overlapsim/internal/precision"
	"overlapsim/internal/sim"
)

func TestModeString(t *testing.T) {
	if Overlapped.String() != "overlapped" || Sequential.String() != "sequential" {
		t.Error("mode names")
	}
	if Mode(5).String() == "" {
		t.Error("unknown mode should still format")
	}
}

func TestChainOrdersPerDevice(t *testing.T) {
	e := sim.NewEngine(nil)
	s0 := e.NewStream("s0", 0)
	s1 := e.NewStream("s1", 1)
	c := NewChain()
	a := e.NewTask("a", sim.KindCompute, 1, nil, s0)
	c.Order(a, 0)
	b := e.NewTask("b", sim.KindCompute, 1, nil, s1)
	c.Order(b, 1)
	// Barrier across both devices.
	s2 := e.NewStream("s2", 0)
	bar := e.NewTask("bar", sim.KindComm, 1, nil, s2)
	c.Order(bar, 0, 1)
	d := e.NewTask("d", sim.KindCompute, 1, nil, s0)
	c.Order(d, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if bar.Start() < a.End() || bar.Start() < b.End() {
		t.Error("barrier must follow both devices' prior ops")
	}
	if d.Start() < bar.End() {
		t.Error("chained op must follow the barrier")
	}
	if c.Last(0) != d || c.Last(1) != bar {
		t.Error("chain bookkeeping wrong")
	}
}

func TestChainSelfOrderIgnored(t *testing.T) {
	e := sim.NewEngine(nil)
	s := e.NewStream("s", 0)
	c := NewChain()
	a := e.NewTask("a", sim.KindCompute, 1, nil, s)
	c.Order(a, 0)
	c.Order(a, 0) // must not self-depend
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIterationMeasurement(t *testing.T) {
	e := sim.NewEngine(nil)
	s0 := e.NewStream("c0", 0)
	s1 := e.NewStream("c1", 1)
	d := kernels.Elementwise("k", 1e6, 1, 0, precision.FP16)
	a := e.NewTask("a", sim.KindCompute, 2, d, s0)
	b := e.NewTask("b", sim.KindCompute, 4, d, s1)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	it := iterationMeasurement([]*sim.Task{a, b}, nil)
	// Kernel times average across the two devices: (2+4)/2 = 3.
	if it.ComputeKernelTime != 3 {
		t.Errorf("compute kernel time %g, want 3", it.ComputeKernelTime)
	}
	if it.E2E != 4 {
		t.Errorf("E2E %g, want 4 (span)", it.E2E)
	}
}

func TestIterationMeasurementEmpty(t *testing.T) {
	it := iterationMeasurement(nil, nil)
	if it.E2E != 0 || it.ComputeKernelTime != 0 {
		t.Errorf("empty measurement %+v", it)
	}
}

func TestPlanGuards(t *testing.T) {
	p := &Plan{Engine: sim.NewEngine(nil)}
	if _, err := p.MeasuredIterations(); !errors.Is(err, ErrNotRun) {
		t.Errorf("MeasuredIterations before Run: got %v, want ErrNotRun", err)
	}
	if _, err := p.MeasuredTimeline(); !errors.Is(err, ErrNotRun) {
		t.Errorf("MeasuredTimeline before Run: got %v, want ErrNotRun", err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err == nil {
		t.Error("second Run must fail")
	}
	if _, err := p.MeasuredIterations(); err != nil {
		t.Errorf("MeasuredIterations after Run: %v", err)
	}
	if _, err := p.MeasuredTimeline(); err != nil {
		t.Errorf("MeasuredTimeline after Run: %v", err)
	}
}

// TestHandAssembledPlanRunsInFull: the collapse veto reads the
// collectives Builder records, so a plan assembled without a Builder
// has no record and must not collapse. Here ranks 0-3 are structurally
// symmetric, and an all-reduce over ranks 0 and 1 only gates them all;
// collapsing the four ranks would drop the contention the all-reduce
// exerts on ranks 0 and 1 alone.
func TestHandAssembledPlanRunsInFull(t *testing.T) {
	build := func() *Plan {
		e := sim.NewEngine(nil)
		comm := e.NewStream("comm", 4)
		ar := e.NewTask("ar", sim.KindComm, 1, collective.Desc{Op: collective.AllReduce, Bytes: 1 << 20, Ranks: []int{0, 1}}, comm)
		for r := 0; r < 4; r++ {
			s := e.NewStream("compute", r)
			e.NewTask("k", sim.KindCompute, 2, nil, s).After(ar)
		}
		return &Plan{Engine: e}
	}
	if classes := build().SymmetryClasses(); len(classes) == 0 || len(classes[0].Members) != 4 {
		t.Fatalf("classes %v, want ranks 0-3 in one class", classes)
	}
	p := build()
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if st := p.EngineStats(); st.GhostTasks != 0 || st.CollapsedClasses != 0 {
		t.Fatalf("hand-assembled plan collapsed: %d classes, %d ghosts", st.CollapsedClasses, st.GhostTasks)
	}
	for _, task := range p.Engine.Tasks() {
		if !task.Done() {
			t.Fatalf("task %s unfinished", task.Name())
		}
	}
}
