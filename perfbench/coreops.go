package main

import (
	"context"
	"fmt"
	"runtime"

	"overlapsim/internal/core"
	"overlapsim/internal/exec"
	"overlapsim/internal/hw"
	"overlapsim/internal/metrics"
	"overlapsim/internal/model"
	"overlapsim/internal/precision"
)

// fsdpConfig is one FSDP GPT-3 XL iteration on nodes×8 H100s with one
// sample per rank, FP16 on matrix units, and no warm-up iteration.
func fsdpConfig(nodes int) core.Config {
	return core.Config{
		System:      hw.NewMultiNode(hw.H100(), 8, nodes),
		Model:       model.GPT3XL(),
		Parallelism: "fsdp",
		Batch:       nodes * 8,
		Format:      precision.FP16,
		MatrixUnits: true,
		Iterations:  1,
		Warmup:      0,
	}
}

// coreRun is one operation of the core workloads: core.Run of a fixed
// config, checked against its reference digest.
type coreRun struct {
	cfg  core.Config
	key  string // input name in expected.json
	want string
}

func newCoreRun(ctx context.Context, cfg core.Config, key string, d *digests) (*coreRun, error) {
	c := &coreRun{cfg: cfg, key: key}
	res, err := core.Run(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	c.want = d.reference(key, resultDigest(res))
	return c, nil
}

func (c *coreRun) op(ctx context.Context, t *tracer, root int) (verify, error) {
	var res *core.Result
	var err error
	if t == nil {
		res, err = core.Run(ctx, c.cfg)
	} else {
		res, err = c.tracedRun(ctx, t, root)
	}
	if err != nil {
		return nil, err
	}
	return func() error { return check(c.key, resultDigest(res), c.want) }, nil
}

func (c *coreRun) close() {}

// tracedRun is core.Run composed from the public calls it makes, with a
// span around each: both modes concurrently, then Eq. 1–5. The digest
// check proves the composition computes what core.Run does.
func (c *coreRun) tracedRun(ctx context.Context, t *tracer, root int) (*core.Result, error) {
	var ovl, seq *core.ModeResult
	var ovlErr, seqErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		seq, seqErr = runMode(ctx, c.cfg, exec.Sequential, t, root)
	}()
	ovl, ovlErr = runMode(ctx, c.cfg, exec.Overlapped, t, root)
	<-done
	if ovlErr != nil {
		return nil, ovlErr
	}
	if seqErr != nil {
		return nil, seqErr
	}
	return &core.Result{
		Config:     c.cfg,
		Overlapped: *ovl,
		Sequential: *seq,
		Char:       metrics.Characterize(seq.Mean, ovl.Mean),
	}, nil
}

// runMode mirrors core.RunMode: build, run, measure, collect power.
func runMode(ctx context.Context, cfg core.Config, mode exec.Mode, t *tracer, root int) (*core.ModeResult, error) {
	parent := t.begin("core.run_mode", root)
	defer t.end(parent)

	sp := t.begin("core.build", parent)
	plan, err := core.BuildPlan(cfg, mode)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("exec.run", parent)
	err = plan.RunContext(ctx)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("exec.measure", parent)
	its, err := plan.MeasuredIterations()
	t.end(sp)
	if err != nil {
		return nil, err
	}

	res := &core.ModeResult{Mode: mode, Iterations: its, Mean: metrics.Mean(its), Engine: plan.EngineStats()}
	res.OverlapRatio = res.Mean.OverlapRatio()
	sp = t.begin("gpu.power_stats", parent)
	cl := plan.Cluster
	for i := 0; i < cl.N(); i++ {
		st := cl.PowerStats(i)
		res.GPUPower = append(res.GPUPower, st)
		res.AvgTDP += st.AvgTDP / float64(cl.N())
		res.PeakTDP = max(res.PeakTDP, st.PeakTDP)
		res.EnergyJ += st.EnergyJ
		if tr := cl.Trace(i); tr != nil {
			res.Traces = append(res.Traces, tr.Samples())
		}
	}
	t.end(sp)

	st := res.Engine
	t.add("sim.plans", 1)
	t.add("sim.tasks", float64(st.Tasks))
	t.add("sim.ghost_tasks", float64(st.GhostTasks))
	t.add("sim.epochs", float64(st.Epochs))
	t.add("sim.stream_rechecks", float64(st.StreamRechecks))
	t.max("sim.max_running", float64(st.MaxRunning))
	return res, nil
}

// probe measures what one operation cannot show: the allocation of a
// plan build and the cost of symmetry detection on a freshly built plan.
// It runs alone, after the traced operations.
func (c *coreRun) probe(t *tracer) error {
	root := t.begin("probe", 0)
	defer t.end(root)
	var before, after runtime.MemStats
	for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
		runtime.ReadMemStats(&before)
		sp := t.begin("probe.build", root)
		plan, err := core.BuildPlan(c.cfg, mode)
		t.end(sp)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		t.add("core.build_alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
		sp = t.begin("exec.detect", root)
		plan.SymmetryClasses()
		t.end(sp)
	}
	return nil
}
