// Package exec holds the plumbing shared by the distribution-strategy
// executors: execution modes (overlapped versus sequential), the plan a
// built schedule produces, per-iteration measurement extraction, and the
// dependency chaining used to serialize communication against computation
// in sequential mode.
package exec

import (
	"context"
	"errors"
	"fmt"

	"overlapsim/internal/gpu"
	"overlapsim/internal/metrics"
	"overlapsim/internal/sim"
	"overlapsim/internal/trace"
)

// Mode selects how communication is scheduled relative to computation.
type Mode int

// Execution modes (§IV-D: the measured Overlapping and Sequential
// scenarios; Ideal is derived, not executed).
const (
	// Overlapped runs communication on dedicated streams concurrently
	// with computation, as the training frameworks do by default.
	Overlapped Mode = iota
	// Sequential serializes every communication operation against the
	// computation of its participating devices: no overlap, no
	// contention.
	Sequential
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Overlapped:
		return "overlapped"
	case Sequential:
		return "sequential"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Plan is a fully built simulation ready to run.
type Plan struct {
	// Engine is the simulation engine with all tasks enqueued.
	Engine *sim.Engine
	// Cluster is the device platform (also the power observer).
	Cluster *gpu.Cluster
	// Iterations groups the created tasks by training iteration,
	// warmups first.
	Iterations [][]*sim.Task
	// Warmup is the number of leading iterations excluded from
	// measurement.
	Warmup int
	// NoCollapse disables the symmetry fast path even when detection
	// would prove it (differential tests, reference benchmarks).
	NoCollapse bool

	ran bool
	// built is set by Builder.Plan, which also records collectives:
	// every collective task of the plan, in creation order. Only a built
	// plan collapses — the collapse veto reads the recorded collectives
	// instead of inspecting every task's payload, and a hand-assembled
	// plan has no record to read.
	built       bool
	collectives []*sim.Task
	// replicas are the devices the builder declared rank-symmetric, and
	// census its tally of what it made through symmetric calls; nil
	// replicas when it declared none (see DeclaredClasses).
	replicas []int
	census   sim.Census
	// alias maps every device to its class representative after a
	// collapsed run, nil when the plan ran in full. It feeds both the
	// cluster's telemetry back-fill and measurement extraction.
	alias []int
}

// Run executes the simulation.
func (p *Plan) Run() error {
	//overlaplint:allow ctxflow compat entrypoint: Run() is the no-context convenience wrapper; cancellable callers use RunContext
	return p.RunContext(context.Background())
}

// RunContext executes the simulation, stopping early with ctx.Err() when
// ctx is cancelled. A cancelled plan cannot be re-run.
//
// Before running, the plan applies the rank-symmetry fast path: it
// takes the symmetry classes of its devices, simulates one
// representative per class, and reconstructs the ghost ranks' timelines
// and telemetry afterwards — bit-identical to the full simulation,
// O(classes) instead of O(ranks). The classes are the builder's
// declaration when DeclaredClasses returns one (FSDP), with no detection
// pass; otherwise DetectClasses proves them (DDP, TP, pipeline, and a
// declared plan whose engine holds something its builder's symmetric
// calls did not make). Collapse requires a deterministic rate model;
// jittered clusters always run in full, and so does a plan not made by
// Builder.
func (p *Plan) RunContext(ctx context.Context) error {
	if p.ran {
		return fmt.Errorf("exec: plan already ran")
	}
	p.ran = true
	if p.built && !p.NoCollapse && (p.Cluster == nil || p.Cluster.Deterministic()) {
		classes := p.DeclaredClasses()
		if classes == nil {
			classes = p.Engine.DetectClasses(PayloadEq)
		}
		classes = p.mergeableClasses(classes)
		if p.Engine.Collapse(classes) > 0 {
			p.alias = p.aliasVector(classes)
			if p.Cluster != nil {
				p.Cluster.SetAliases(p.alias)
			}
		}
	}
	err := p.Engine.RunContext(ctx)
	if err == nil && p.alias != nil && p.Cluster != nil {
		p.Cluster.FinalizeAliases()
	}
	return err
}

// ErrNotRun is returned when a plan's measurements are requested before
// the plan has executed.
var ErrNotRun = errors.New("exec: plan has not run")

// EngineStats reports the engine's scheduling self-stats (epochs, dirty
// rechecks, arena usage, collapsed classes and ghost tasks — see
// sim.Stats). Valid at any time; most useful after the plan has run,
// when it describes the whole execution.
func (p *Plan) EngineStats() sim.Stats {
	return p.Engine.Stats()
}

// MeasuredIterations returns the per-iteration measurements of the
// non-warmup iterations. Kernel times are per-GPU means (devices are
// symmetric under FSDP; under pipeline parallelism the mean is the paper's
// per-GPU aggregation); E2E is the span of the iteration's tasks. It
// returns ErrNotRun if the plan has not executed yet.
func (p *Plan) MeasuredIterations() ([]metrics.Iteration, error) {
	if !p.ran {
		return nil, fmt.Errorf("MeasuredIterations: %w", ErrNotRun)
	}
	var out []metrics.Iteration
	for i := p.Warmup; i < len(p.Iterations); i++ {
		out = append(out, iterationMeasurement(p.Iterations[i], p.alias))
	}
	return out, nil
}

// MeasuredTimeline returns the merged kernel timeline of the measured
// iterations (for overlap-ratio and trace reporting). It returns
// ErrNotRun if the plan has not executed yet.
func (p *Plan) MeasuredTimeline() (*trace.Timeline, error) {
	if !p.ran {
		return nil, fmt.Errorf("MeasuredTimeline: %w", ErrNotRun)
	}
	var tasks []*sim.Task
	for i := p.Warmup; i < len(p.Iterations); i++ {
		tasks = append(tasks, p.Iterations[i]...)
	}
	return trace.FromTasks(tasks), nil
}

// iterationMeasurement extracts the paper's per-iteration measurement from
// one iteration's completed tasks. Kernel times are averaged across the
// devices present so that Eq. 4's subtraction of the absolute compute
// slowdown from the wall-clock E2E is dimensionally per-GPU.
//
// alias is the device→representative map of a collapsed run. The
// timeline is built over representative devices only, and each device
// adds its representative's per-device tuple — the same additions in the
// same device order as the full extraction, since a ghost's intervals
// are bitwise copies of its representative's. A nil alias means the
// devices present, each its own representative. The result is
// bit-identical either way.
func iterationMeasurement(tasks []*sim.Task, alias []int) metrics.Iteration {
	var keep func(device int) bool
	if alias != nil {
		keep = func(device int) bool {
			return device >= len(alias) || alias[device] == device
		}
	}
	tl := trace.FromTasksKept(tasks, keep)
	var it metrics.Iteration
	devs := tl.Devices()
	if len(devs) == 0 {
		return it
	}
	type overlap struct {
		computeT, commT, computeOv, commOv float64
		present                            bool
	}
	byDev := make([]overlap, devs[len(devs)-1]+1)
	for _, d := range devs {
		o := &byDev[d]
		o.computeT, o.commT, o.computeOv, o.commOv = tl.DeviceOverlap(d)
		o.present = true
	}
	reps := alias
	if reps == nil {
		reps = devs
	}
	n := 0.0
	for _, r := range reps {
		if r >= len(byDev) || !byDev[r].present {
			continue // device without intervals in the full timeline either
		}
		o := byDev[r]
		it.ComputeKernelTime += o.computeT
		it.CommKernelTime += o.commT
		it.OverlappedComputeTime += o.computeOv
		it.OverlappedCommTime += o.commOv
		n++
	}
	it.ComputeKernelTime /= n
	it.CommKernelTime /= n
	it.OverlappedComputeTime /= n
	it.OverlappedCommTime /= n
	// The iteration window opens at the first compute kernel (early-posted
	// communication belongs to the window of the data it carries) and
	// closes when everything has drained.
	_, end := tl.Span()
	start, _, ok := tl.KindSpan(sim.KindCompute)
	if !ok {
		start, _ = tl.Span()
	}
	it.E2E = end - start
	return it
}

// Chain serializes operations per device through explicit dependencies —
// the sequential-mode mechanism. Unlike stream FIFO order, dependency
// chaining cannot deadlock on rendezvous operations, because the per-device
// orders are generated from one legal global schedule.
type Chain struct {
	last []*sim.Task // latest operation per device index
}

// NewChain returns an empty chain.
func NewChain() *Chain { return &Chain{} }

// Order makes t run after every previously ordered operation on each of
// the listed devices, then records t as those devices' latest operation.
// It returns the number of dependency edges it added.
func (c *Chain) Order(t *sim.Task, devices ...int) int {
	edges := 0
	for _, d := range devices {
		if prev := c.Last(d); prev != nil && prev != t {
			t.After(prev)
			edges++
		}
	}
	for _, d := range devices {
		if d >= len(c.last) {
			c.last = append(c.last, make([]*sim.Task, d+1-len(c.last))...)
		}
		c.last[d] = t
	}
	return edges
}

// Last returns the most recent operation ordered on the device, or nil.
func (c *Chain) Last(device int) *sim.Task {
	if device >= len(c.last) {
		return nil
	}
	return c.last[device]
}
