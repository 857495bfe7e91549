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
	"math"
	"slices"
	"sort"

	"overlapsim/internal/collective"
	"overlapsim/internal/gpu"
	"overlapsim/internal/kernels"
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

	ran bool
	// full is set on a plan its builder made with every edge to run
	// every rank (Builder.FullGraph): the reference a collapse is held
	// to.
	full bool
	// built is set by Builder.Plan, which also records collectives:
	// every collective task of the plan, in creation order, and compute:
	// each device's compute stream. Only a built plan collapses — the
	// collapse veto of detected classes reads the recorded collectives
	// instead of inspecting every task's payload, and a hand-assembled
	// plan has no record to read. Measurement reads the same record.
	built       bool
	collectives []*sim.Task
	compute     []*sim.Stream
	// replicas are the devices a committed builder declared
	// rank-symmetric, and census its tally of what it made through
	// symmetric calls; nil replicas on a plan whose builder declared
	// nothing (see DeclaredClasses).
	replicas []int
	census   sim.Census
	// alias maps every device to its class representative after a
	// collapsed run, nil when the plan ran in full. It feeds both the
	// cluster's telemetry back-fill and measurement, which reads only
	// the representatives.
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
// representative per class, and lets the ghost ranks report their
// mirrors' timelines and, afterwards, telemetry — bit-identical to the
// full simulation, O(classes) instead of O(ranks). A committed plan
// (FSDP on a deterministic cluster) was built as its declared classes
// collapse, and the engine's ghost ledger collapses them without a pass
// over the tasks (sim.Engine.CollapseDeclared). It has no other way to
// run: if the engine's Census no longer equals its builder's tally, or
// the ledger cannot collapse the class, RunContext returns an error
// wrapping ErrAsymmetric and simulates nothing. A plan that declares
// nothing wires every edge (DDP, TP, pipeline) and has its classes
// proved by DetectClasses, and the collectives veto unsafe classes
// (mergeableClasses) before Collapse. Collapse requires a deterministic
// rate model; jittered clusters, which declare nothing, always run in
// full, and so do a plan not made by Builder and a FullGraph plan.
func (p *Plan) RunContext(ctx context.Context) error {
	if p.ran {
		return fmt.Errorf("exec: plan already ran")
	}
	p.ran = true
	if p.built && !p.full && (p.Cluster == nil || p.Cluster.Deterministic()) {
		var classes []sim.Class
		ghosts := 0
		if p.replicas != nil {
			if err := p.checkCensus(); err != nil {
				return err
			}
			n, ok := p.Engine.CollapseDeclared(sim.Class{Members: p.replicas})
			if !ok {
				return fmt.Errorf("%w: the ghost ledger cannot collapse the declared replicas", ErrAsymmetric)
			}
			classes, ghosts = p.DeclaredClasses(), n
		} else {
			classes = p.mergeableClasses(p.Engine.DetectClasses(PayloadEq))
			ghosts = p.Engine.Collapse(classes)
		}
		if ghosts > 0 {
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

// ErrAsymmetric is returned when a committed plan (see Builder) made or
// holds something its declared rank symmetry does not allow. Its graph
// lacks the edges into and out of the ghost ranks, so it can run only
// collapsed, and the collapse would not be the full run.
var ErrAsymmetric = errors.New("exec: declared replicas are not symmetric")

// checkCensus fails when the engine holds something other than what the
// committed builder's symmetric calls made.
func (p *Plan) checkCensus() error {
	if got := p.Engine.Census(); got != p.census {
		return fmt.Errorf("%w: the engine holds %+v, the symmetric calls made %+v", ErrAsymmetric, got, p.census)
	}
	return nil
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
	for _, it := range p.measured() {
		r, lo, hi := p.reader(it)
		out = append(out, iterationMeasurement(trace.FromDevices(r.intervals(lo, hi)), p.alias))
	}
	return out, nil
}

// MeasuredTimeline returns the merged kernel timeline of the measured
// iterations, every device included (for overlap-ratio and trace
// reporting). It reads the representative devices only: a ghost
// device's intervals are its representative's, copied through the
// alias. It returns ErrNotRun if the plan has not executed yet.
func (p *Plan) MeasuredTimeline() (*trace.Timeline, error) {
	if !p.ran {
		return nil, fmt.Errorf("MeasuredTimeline: %w", ErrNotRun)
	}
	r, lo, hi := p.reader(p.measured()...)
	ivs := r.intervals(lo, hi)
	for d, rep := range p.alias {
		if rep != d {
			ghost := slices.Clone(ivs[rep])
			for i := range ghost {
				ghost[i].Device = d
			}
			ivs[d] = ghost
		}
	}
	return trace.FromDevices(ivs), nil
}

// measured returns the non-warmup iterations.
func (p *Plan) measured() [][]*sim.Task {
	return p.Iterations[min(p.Warmup, len(p.Iterations)):]
}

// reader reads a finished plan's kernel intervals off its representative
// devices: for each, the tasks of its compute stream, plus the
// collectives, both in creation order. What it reads grows with what
// was simulated, not with the plan: a ghost device is never read.
type reader struct {
	compute [][]*sim.Task // by device; nil off the representatives
	colls   []*sim.Task
	alias   []int // device → representative; nil when each device is its own
}

// reader returns the reader of the iterations its of a finished plan,
// and the creation-index range [lo, hi) to read. A built plan's reader
// reads the builder's record: each representative's compute stream,
// which keeps its history after the run, and the recorded collectives;
// the iterations are consecutive ranges of creation order, so their
// first and last tasks bound them. A hand-assembled plan has no record,
// so its reader comes from one walk of the iterations' tasks, all of
// which it reads.
func (p *Plan) reader(its ...[]*sim.Task) (r *reader, lo, hi int) {
	if !p.built {
		return walk(its), math.MinInt, math.MaxInt
	}
	r = &reader{compute: make([][]*sim.Task, len(p.compute)), colls: p.collectives, alias: p.alias}
	for d, s := range p.compute {
		if r.rep(d) {
			r.compute[d] = s.Tasks()
		}
	}
	lo, hi = math.MaxInt, 0
	for _, it := range its {
		if len(it) > 0 {
			lo, hi = min(lo, it[0].Seq()), max(hi, it[len(it)-1].Seq()+1)
		}
	}
	return r, min(lo, hi), hi
}

// walk reads the kernels and collectives of the iterations' tasks in one
// pass, in the order given: the reader of a plan not made by Builder.
func walk(its [][]*sim.Task) *reader {
	r := &reader{}
	grow := func(d int) {
		for d >= len(r.compute) {
			r.compute = append(r.compute, nil)
		}
	}
	for _, it := range its {
		for _, t := range it {
			switch c := t.Payload().(type) {
			case kernels.Desc:
				d := t.Streams()[0].Device()
				grow(d)
				r.compute[d] = append(r.compute[d], t)
			case collective.Desc:
				r.colls = append(r.colls, t)
				for _, q := range c.Participants() {
					grow(q)
				}
			}
		}
	}
	return r
}

// rep reports whether the reader reads device d: whether d is a
// representative.
func (r *reader) rep(d int) bool { return r.alias == nil || d >= len(r.alias) || r.alias[d] == d }

// between returns the tasks of ts, which is in creation order, whose
// creation index lies in [lo, hi).
func between(ts []*sim.Task, lo, hi int) []*sim.Task {
	i := sort.Search(len(ts), func(i int) bool { return ts[i].Seq() >= lo })
	j := sort.Search(len(ts), func(i int) bool { return ts[i].Seq() >= hi })
	return ts[i:j]
}

// intervals returns, by device, the intervals of the completed tasks
// created in [lo, hi) on each representative: a compute kernel adds one
// on its stream's device, a collective one on each participant. Each
// device's list is in creation order, compute and collectives merged,
// as trace.FromDevices expects, and is sized exactly up front from one
// shared allocation.
func (r *reader) intervals(lo, hi int) [][]trace.Interval {
	colls := between(r.colls, lo, hi)
	kernelsOf := make([][]*sim.Task, len(r.compute))
	total := 0
	for d, ts := range r.compute {
		if r.rep(d) {
			kernelsOf[d] = between(ts, lo, hi)
			total += len(kernelsOf[d]) + len(colls)
		}
	}
	buf := make([]trace.Interval, total)
	out := make([][]trace.Interval, len(r.compute))
	for d, ts := range kernelsOf {
		if !r.rep(d) {
			continue
		}
		n := len(ts) + len(colls)
		out[d] = deviceIntervals(buf[:0:n], d, ts, colls)
		buf = buf[n:]
	}
	return out
}

// deviceIntervals appends to ivs device d's intervals from its compute
// tasks ts and the collectives colls, merging the two by creation index.
// A collective lists its participants (collective.Desc.ParticipantsIn
// counts a repeated one once per listing).
func deviceIntervals(ivs []trace.Interval, d int, ts, colls []*sim.Task) []trace.Interval {
	for len(ts) > 0 || len(colls) > 0 {
		if len(colls) == 0 || len(ts) > 0 && ts[0].Seq() < colls[0].Seq() {
			t := ts[0]
			ts = ts[1:]
			if k, ok := t.Payload().(kernels.Desc); ok && t.Done() {
				ivs = append(ivs, trace.Interval{Start: t.Start(), End: t.End(), Name: k.Name, Kind: sim.KindCompute, Device: d})
			}
			continue
		}
		t := colls[0]
		colls = colls[1:]
		if c, ok := t.Payload().(collective.Desc); ok && t.Done() {
			for n := c.ParticipantsIn(d, d+1); n > 0; n-- {
				ivs = append(ivs, trace.Interval{Start: t.Start(), End: t.End(), Name: c.Name, Kind: sim.KindComm, Device: d})
			}
		}
	}
	return ivs
}

// iterationMeasurement extracts the paper's per-iteration measurement
// from one iteration's timeline, read off the representative devices.
// Kernel times are averaged across the devices present so that Eq. 4's
// subtraction of the absolute compute slowdown from the wall-clock E2E
// is dimensionally per-GPU.
//
// alias is the device→representative map of a collapsed run: each
// device adds its representative's per-device tuple — the same
// additions in the same device order as a full extraction, since a
// ghost's intervals are bitwise copies of its representative's. A nil
// alias means the devices present, each its own representative. The
// result is bit-identical either way.
func iterationMeasurement(tl *trace.Timeline, alias []int) metrics.Iteration {
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
	// skipLo and skipHi bound the devices [skipLo, skipHi) whose edges
	// the chain leaves out: a committed build's ghost devices. A ghost
	// device's latest operation is either its mirror's counterpart or a
	// task shared with the representative, so the edge the chain makes
	// for the representative stands for it.
	skipLo, skipHi int
}

// NewChain returns an empty chain.
func NewChain() *Chain { return &Chain{} }

// Order makes t run after every previously ordered operation on each of
// the listed devices, then records t as those devices' latest operation.
// It returns the number of dependency edges it added and the number it
// left out on skipped devices.
func (c *Chain) Order(t *sim.Task, devices ...int) (edges, skipped int) {
	for _, d := range devices {
		if prev := c.Last(d); prev != nil && prev != t {
			if d >= c.skipLo && d < c.skipHi {
				skipped++
				continue
			}
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
	return edges, skipped
}

// orderEach orders each ts[i] on device lo+i alone, as Order(ts[i],
// lo+i) would in turn, and returns the edges it made. A task on a
// skipped device needs no edge, so it only becomes the device's latest
// operation.
func (c *Chain) orderEach(lo int, ts []*sim.Task) (edges int) {
	if n := lo + len(ts); n > len(c.last) {
		c.last = append(c.last, make([]*sim.Task, n-len(c.last))...)
	}
	for i, t := range ts {
		d := lo + i
		if d >= c.skipLo && d < c.skipHi {
			c.last[d] = t
			continue
		}
		e, _ := c.Order(t, d)
		edges += e
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
