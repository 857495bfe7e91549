package overlapsim_bench

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"overlapsim/internal/collective"
	"overlapsim/internal/core"
	"overlapsim/internal/exec"
	"overlapsim/internal/hw"
	"overlapsim/internal/kernels"
	"overlapsim/internal/metrics"
	"overlapsim/internal/sim"
	"overlapsim/internal/trace"
)

// oracleTimeline is the measurement walk the representative reader
// replaced, kept as its reference: every completed task, in the order
// given, adds an interval on its stream's device (a compute kernel) or
// on every participant (a collective). It reads every task, ghosts
// included, and a ghost answers from its mirror, so on a collapsed plan
// it is the full extraction.
func oracleTimeline(tasks []*sim.Task) *trace.Timeline {
	var byDevice [][]trace.Interval
	add := func(iv trace.Interval) {
		for iv.Device >= len(byDevice) {
			byDevice = append(byDevice, nil)
		}
		byDevice[iv.Device] = append(byDevice[iv.Device], iv)
	}
	for _, t := range tasks {
		if !t.Done() {
			continue
		}
		switch p := t.Payload().(type) {
		case kernels.Desc:
			add(trace.Interval{Start: t.Start(), End: t.End(), Name: p.Name, Kind: sim.KindCompute, Device: t.Streams()[0].Device()})
		case collective.Desc:
			for _, r := range p.Participants() {
				add(trace.Interval{Start: t.Start(), End: t.End(), Name: p.Name, Kind: sim.KindComm, Device: r})
			}
		}
	}
	return trace.FromDevices(byDevice)
}

// oracleIteration is the per-iteration aggregation over the full
// extraction: each device present adds its own per-device tuple, in
// device order.
func oracleIteration(tl *trace.Timeline) metrics.Iteration {
	var it metrics.Iteration
	devs := tl.Devices()
	if len(devs) == 0 {
		return it
	}
	for _, d := range devs {
		computeT, commT, computeOv, commOv := tl.DeviceOverlap(d)
		it.ComputeKernelTime += computeT
		it.CommKernelTime += commT
		it.OverlappedComputeTime += computeOv
		it.OverlappedCommTime += commOv
	}
	n := float64(len(devs))
	it.ComputeKernelTime /= n
	it.CommKernelTime /= n
	it.OverlappedComputeTime /= n
	it.OverlappedCommTime /= n
	_, end := tl.Span()
	start, _, ok := tl.KindSpan(sim.KindCompute)
	if !ok {
		start, _ = tl.Span()
	}
	it.E2E = end - start
	return it
}

// sameBits reports whether two floats are bitwise equal.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireMeasurementMatchesOracle holds a plan that has run, completed
// or cancelled, to the full extraction: MeasuredIterations bit for bit,
// and MeasuredTimeline device by device and interval by interval.
func requireMeasurementMatchesOracle(t *testing.T, plan *exec.Plan) {
	t.Helper()
	got, err := plan.MeasuredIterations()
	if err != nil {
		t.Fatal(err)
	}
	measured := plan.Iterations[min(plan.Warmup, len(plan.Iterations)):]
	if len(got) != len(measured) {
		t.Fatalf("%d measured iterations, want %d", len(got), len(measured))
	}
	var all []*sim.Task
	for i, tasks := range measured {
		all = append(all, tasks...)
		g, w := got[i], oracleIteration(oracleTimeline(tasks))
		if !sameBits(g.E2E, w.E2E) || !sameBits(g.ComputeKernelTime, w.ComputeKernelTime) ||
			!sameBits(g.CommKernelTime, w.CommKernelTime) ||
			!sameBits(g.OverlappedComputeTime, w.OverlappedComputeTime) ||
			!sameBits(g.OverlappedCommTime, w.OverlappedCommTime) {
			t.Fatalf("iteration %d: measured %+v, full extraction %+v", i, g, w)
		}
	}

	tl, err := plan.MeasuredTimeline()
	if err != nil {
		t.Fatal(err)
	}
	want := oracleTimeline(all)
	gd, wd := tl.Devices(), want.Devices()
	if len(gd) != len(wd) {
		t.Fatalf("timeline devices %v, full extraction %v", gd, wd)
	}
	for i, d := range wd {
		if gd[i] != d {
			t.Fatalf("timeline devices %v, full extraction %v", gd, wd)
		}
		g, w := tl.Intervals(d), want.Intervals(d)
		if len(g) != len(w) {
			t.Fatalf("gpu %d: %d intervals, full extraction %d", d, len(g), len(w))
		}
		for j := range w {
			if g[j].Name != w[j].Name || g[j].Kind != w[j].Kind || g[j].Device != w[j].Device ||
				!sameBits(g[j].Start, w[j].Start) || !sameBits(g[j].End, w[j].End) {
				t.Fatalf("gpu %d interval %d: %+v, full extraction %+v", d, j, g[j], w[j])
			}
		}
	}
	gs, ge := tl.Span()
	ws, we := want.Span()
	if !sameBits(gs, ws) || !sameBits(ge, we) {
		t.Fatalf("timeline span [%g, %g], full extraction [%g, %g]", gs, ge, ws, we)
	}
}

// TestMeasurementMatchesOracle: on every golden config (every strategy),
// in both modes, on the 512-rank core-scale shape and on a jittered 4×8
// FSDP plan, which runs in full, measurement read off the
// representatives equals the full extraction bit for bit.
// TestCancelledCollapseReportsMirrors holds a cancelled run to it too.
func TestMeasurementMatchesOracle(t *testing.T) {
	jittered := symTestConfig("fsdp")
	jittered.System = hw.NewMultiNode(hw.H100(), 8, 4)
	jittered.Batch = 32
	jittered.JitterSigma = 0.02
	jittered.Seed = 5
	cfgs := append(goldenConfigs(), coreScaleFSDP(), jittered)
	if raceEnabled {
		cfgs = cfgs[len(cfgs)-3:]
	}
	for _, cfg := range cfgs {
		for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
			plan, err := core.BuildPlan(cfg, mode)
			if err != nil {
				continue // infeasible (OOM) points build no plan
			}
			t.Run(goldenLabel(cfg)+"/"+mode.String(), func(t *testing.T) {
				if err := plan.Run(); err != nil {
					t.Fatal(err)
				}
				if cfg.JitterSigma > 0 && plan.EngineStats().GhostTasks != 0 {
					t.Fatal("a jittered plan collapsed")
				}
				requireMeasurementMatchesOracle(t, plan)
			})
		}
	}
}

// TestTaskNamesByDevice: every compute task of a 4×8 FSDP plan is named
// base@device, one base per fan-out. A fan-out makes one task per device
// in device order, so the task on device d sits d places after the
// fan-out's first, whose name ends in "@0".
func TestTaskNamesByDevice(t *testing.T) {
	cfg := symTestConfig("fsdp")
	cfg.System = hw.NewMultiNode(hw.H100(), 8, 4)
	cfg.Batch = 32
	n := cfg.System.TotalGPUs()
	for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
		plan, err := core.BuildPlan(cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Run(); err != nil {
			t.Fatal(err)
		}
		tasks := plan.Engine.Tasks()
		fanouts := 0
		for i := 0; i < len(tasks); i++ {
			if tasks[i].Kind() != sim.KindCompute {
				continue
			}
			base, ok := strings.CutSuffix(tasks[i].Name(), "@0")
			if !ok || i+n > len(tasks) {
				t.Fatalf("%v: compute task %d named %q opens no fan-out", mode, i, tasks[i].Name())
			}
			for d := 0; d < n; d++ {
				task := tasks[i+d]
				if want := base + "@" + strconv.Itoa(d); task.Name() != want || task.Streams()[0].Device() != d {
					t.Fatalf("%v: task %d on gpu %d named %q, want %q on gpu %d",
						mode, i+d, task.Streams()[0].Device(), task.Name(), want, d)
				}
			}
			fanouts++
			i += n - 1
		}
		if fanouts == 0 {
			t.Fatalf("%v: no fan-out", mode)
		}
	}
}
