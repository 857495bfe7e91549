package exec

import (
	"fmt"
	"slices"
	"strconv"

	"overlapsim/internal/collective"
	"overlapsim/internal/gpu"
	"overlapsim/internal/kernels"
	"overlapsim/internal/sim"
)

// Op pairs a task's abstract work with its payload boxed exactly once.
// Strategy builders construct a handful of fused kernel descriptors per
// iteration and then fan each out to every device; boxing the descriptor
// into an interface value here — instead of at every NewTask call —
// removes one heap allocation per task from plan construction.
type Op struct {
	Work    float64
	Payload any
}

// Builder is the one construction path every strategy builds its plan
// through. It owns what the strategies share: the engine (with the
// cluster as its power observer), one compute<d> stream per device, the
// execution mode's placement of communication (the sequential-mode
// Chain), the collective Preparer, the per-device iteration barrier
// (Last) and the per-iteration task slicing (Plan). A strategy adds only
// its own task DAG and its overlapped-mode communication streams.
//
// The builder pre-sizes the engine's slab allocators for the plan's
// expected task count and assembles the dotted per-layer task names in a
// reusable buffer, so building a plan allocates per task only what
// outlives construction: its queue slots. A Compute fan-out stores its
// base name once; each task formats its "@device" suffix only when its
// Name is asked for (sim.Task.NameByDevice).
//
// A strategy whose ranks are symmetric by construction declares them
// (DeclareReplicas) and makes every replica task, every edge into one
// and every stream through calls that are symmetric by definition:
// Compute fan-outs over every device, Collective ordered over every
// device, the sequential-mode Chain, and the Pairwise and After edge
// helpers. Each such call tallies what it made. Each full fan-out
// records its replicas' range in the engine's ghost ledger, and
// Collective checks each collective against the declared class as it is
// made, as the detector's classes are checked after detection.
//
// A declaration commits the builder or does not exist: it is made only
// before the first task, on a deterministic cluster, and not in a
// FullGraph build. A committed builder wires the graph the collapse
// would leave. A ghost is a replica task on a device other than the
// representative. A full fan-out makes its replicas in one engine call
// (sim.Engine.NewReplicas), and Pairwise and After tell such a fan-out
// by pointer identity: its ghost slots are exactly the run the engine
// made (sim.Engine.ReplicasOf). They wire no edge into its ghost slots,
// and none out of them either, for the representative's task already
// makes every edge a ghost's would become (Collapse's transfer rule);
// the chain makes no edge on a ghost device's behalf. A ghost anywhere
// else, a fan-out with a slot changed included, is refused, and that
// call wires nothing. Ghost tasks and their streams are still made, so
// a plan's tasks, streams and engine stats are those the full graph's
// collapse reports. The plan can only run collapsed, through the ledger
// (sim.Engine.CollapseDeclared), so whatever would break the declaration
// is an error Plan returns, and RunContext too when the engine changed
// after Plan: a census of the engine (tasks, dependency edges,
// completion callbacks and streams) that differs from the builder's
// tally, a collective the declared class vetoes, or a ghost wired
// outside its fan-out. A build that declares nothing, a jittered or
// FullGraph one included, makes plain per-device tasks and wires every
// edge.
type Builder struct {
	// Eng is the plan's engine.
	Eng *sim.Engine
	// Last holds each device's final task of the previous iteration — the
	// barrier the next iteration's first tasks wait for (nil during the
	// first iteration). The strategy records it as it builds each
	// iteration.
	//
	// Gating every first task directly on all of Last costs ranks²
	// edges. If a collective already waits on every rank's Last and
	// gates the iteration's first tasks (FSDP's embedding all-gather),
	// gate each first task on the collective plus its own rank's Last:
	// the collective carries the barrier. DDP has no such collective
	// ahead of its first forward, so it keeps the direct edges; dropping
	// them would let jittered ranks start early. TP's barrier spans one
	// group of at most a node's ranks.
	Last []*sim.Task

	cl      *gpu.Cluster
	streams []*sim.Stream // compute stream of each device
	devices []int         // 0..n-1, shared read-only
	chain   *Chain        // sequential mode only
	prep    *collective.Preparer
	buf     []byte      // name assembly, reused
	kept    []*sim.Task // After's tasks that get edges, reused
	colls   []*sim.Task // every Collective task, in creation order

	// lo and hi bound the declared replica devices (none while lo ==
	// hi); full is set by FullGraph; made tallies what the builder's
	// symmetric calls made; err is the first thing that broke the
	// declaration.
	lo, hi int
	full   bool
	made   sim.Census
	err    error
}

// NewBuilder starts a plan on a fresh engine bound to the cluster,
// reserving capacity for about expectTasks task creations (an
// allocation hint, not a limit).
func NewBuilder(cl *gpu.Cluster, mode Mode, expectTasks int) *Builder {
	eng := sim.NewEngine(cl)
	eng.AddObserver(cl)
	eng.Reserve(expectTasks)
	n := cl.N()
	b := &Builder{
		Eng:     eng,
		Last:    make([]*sim.Task, n),
		cl:      cl,
		devices: make([]int, n),
		prep:    collective.NewPreparer(cl.Fabric()),
		buf:     make([]byte, 0, 64),
	}
	for d := 0; d < n; d++ {
		s := eng.NewStream(fmt.Sprintf("compute%d", d), d)
		s.Reserve(expectTasks / n)
		b.streams = append(b.streams, s)
		b.devices[d] = d
	}
	b.made.Streams = n
	if mode == Sequential {
		b.chain = NewChain()
	}
	return b
}

// Sequential reports whether the plan serializes communication against
// computation.
func (b *Builder) Sequential() bool { return b.chain != nil }

// KernelOp prepares a fused kernel descriptor against the cluster's GPU
// (kernels.Prepare) and boxes it into an Op. Every task the Op fans out
// to shares the one prepared cost, so the device model's per-epoch work
// neither recomputes nor allocates it.
func (b *Builder) KernelOp(d kernels.Desc) Op {
	d = kernels.Prepare(d, b.cl.GPU())
	return Op{Work: kernels.Work(d), Payload: d}
}

// Devices returns the device indices 0..n-1. The slice is shared: callers
// must not modify it.
func (b *Builder) Devices() []int { return b.devices }

// DeclareReplicas declares devices [lo, hi) rank-symmetric: one class
// whose members run the same graph, with lo its representative, and
// commits the builder to it (see Builder). From then on every full
// Compute fan-out records, on each replica's task, the representative's
// task as its mirror. It declares nothing after the first task, whose
// calls were not checked against it, on a jittered cluster, whose ranks
// run apart, or in a FullGraph build.
func (b *Builder) DeclareReplicas(lo, hi int) {
	if len(b.Eng.Tasks()) > 0 || b.full || !b.cl.Deterministic() {
		return
	}
	b.lo, b.hi = max(lo, 0), min(hi, len(b.streams))
	if b.chain != nil && b.declared() {
		b.chain.skipLo, b.chain.skipHi = b.lo+1, b.hi
	}
}

// FullGraph makes the builder wire every edge and its plan simulate
// every rank, collapsing nothing, whatever the detector would prove: the
// reference a collapse is held to. It clears a declaration made before
// the first task; after the first task of a committed build, whose
// edges it would miss, Plan returns an error instead.
func (b *Builder) FullGraph() {
	if b.declared() && len(b.Eng.Tasks()) > 0 {
		b.fail("FullGraph after the first task of a committed build")
		return
	}
	b.full, b.lo, b.hi = true, 0, 0
	if b.chain != nil {
		b.chain.skipLo, b.chain.skipHi = 0, 0
	}
}

// fail records the first reason the declaration broke.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("%w: %s", ErrAsymmetric, fmt.Sprintf(format, args...))
	}
}

// NewStream creates a stream on the device. A stream on a declared
// replica is not tallied, so it breaks the census.
func (b *Builder) NewStream(name string, device int) *sim.Stream {
	if !b.isReplica(device) {
		b.made.Streams++
	}
	return b.Eng.NewStream(name, device)
}

// Plan builds warmup+iters iterations through build, which receives the
// iteration index, and groups each call's tasks as one iteration of the
// returned plan. The plan keeps the collective tasks the builder created,
// which is what lets it collapse, the compute streams, which with the
// collectives are what it measures, and, on a committed build, the
// declared replicas with the tally of what the builder made (see
// Plan.RunContext). A committed build whose declaration broke returns
// an error wrapping ErrAsymmetric and no plan.
func (b *Builder) Plan(warmup, iters int, build func(it int)) (*Plan, error) {
	p := &Plan{Engine: b.Eng, Cluster: b.cl, Warmup: warmup}
	for it := 0; it < warmup+iters; it++ {
		start := len(b.Eng.Tasks())
		build(it)
		p.Iterations = append(p.Iterations, b.Eng.Tasks()[start:])
	}
	p.built, p.full, p.collectives, p.compute = true, b.full, b.colls, b.streams
	if b.err != nil {
		return nil, b.err
	}
	if b.declared() {
		p.replicas, p.census = b.devices[b.lo:b.hi], b.made
		if err := p.checkCensus(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Name returns prefix followed by the decimal index — the "fwd.l7"
// pattern — with a single string allocation.
func (b *Builder) Name(prefix string, idx int) string {
	b.buf = append(b.buf[:0], prefix...)
	b.buf = strconv.AppendInt(b.buf, int64(idx), 10)
	return string(b.buf)
}

// ComputeOn creates one compute task on the device's compute stream. In
// sequential mode it is chain-ordered on the device. It is not a
// symmetric call: the task it makes breaks the census of a committed
// build.
func (b *Builder) ComputeOn(name string, op Op, dev int) *sim.Task {
	t, _ := b.computeOn(name, op, dev)
	return t
}

// computeOn is ComputeOn that also returns the chain edges it made.
func (b *Builder) computeOn(name string, op Op, dev int) (*sim.Task, int) {
	t := b.Eng.NewTask(name, sim.KindCompute, op.Work, op.Payload, b.streams[dev])
	if b.chain == nil {
		return t, 0
	}
	edges, _ := b.chain.Order(t, dev)
	return t, edges
}

// Compute creates one compute task per device in [lo, hi), named
// base@device. Every task stores the one base string and formats its
// suffix on demand (sim.Task.NameByDevice), so a fan-out allocates no
// name.
//
// A fan-out over every device is a symmetric call: it tallies its tasks
// and chain edges and makes the first replica's task every other replica
// task's mirror. When the builder declared replicas, it makes those
// replica tasks in one engine call (sim.Engine.NewReplicas), which also
// records them in the ghost ledger, and chain-orders them after.
func (b *Builder) Compute(base string, op Op, lo, hi int) []*sim.Task {
	out := make([]*sim.Task, hi-lo)
	full := lo == 0 && hi == len(b.streams)
	var edges int
	if full && b.declared() {
		edges = b.computeRange(out[:b.lo+1], base, op, 0)
		ghosts := out[b.lo+1 : b.hi]
		copy(ghosts, b.Eng.NewReplicas(out[b.lo], b.streams[b.lo+1:b.hi]))
		if b.chain != nil {
			edges += b.chain.orderEach(b.lo+1, ghosts)
		}
		edges += b.computeRange(out[b.hi:], base, op, b.hi)
	} else {
		edges = b.computeRange(out, base, op, lo)
	}
	if full {
		b.made.Tasks += len(out)
		b.made.Edges += edges
	}
	return out
}

// computeRange makes out[i] on device lo+i, named by device, and returns
// the chain edges it made.
func (b *Builder) computeRange(out []*sim.Task, base string, op Op, lo int) (edges int) {
	for i := range out {
		var e int
		out[i], e = b.computeOn(base, op, lo+i)
		out[i].NameByDevice()
		edges += e
	}
	return edges
}

// Collective creates the communication task of the descriptor, named
// name and prepared against the cluster's fabric. This is where the
// execution mode places communication: overlapped mode enqueues it on
// the given stream; sequential mode enqueues it on a fresh stream of the
// home device and chain-orders it after the latest operation of each of
// orderDevices, serializing it against their computation. The builder
// records the task for the plan's collapse veto.
//
// A collective off the declared replicas is a symmetric call, in
// sequential mode only when it is ordered over every device. A
// collective that occupies part of the replicas, or sits on one, breaks
// the declaration: its contention would fall on the representative and
// not on every replica. The detector's classes face the same check.
func (b *Builder) Collective(name string, d collective.Desc, overlapped *sim.Stream, home int, orderDevices ...int) *sim.Task {
	d.Name = name
	d, work := b.prep.Prepare(d)
	var t *sim.Task
	if !b.Sequential() {
		t = b.Eng.NewTask(name, sim.KindComm, work, d, overlapped)
		if b.offReplicas(t) {
			b.made.Tasks++
		}
	} else {
		t = b.Eng.NewTask(name, sim.KindComm, work, d, b.Eng.NewStream("seqcomm."+name, home))
		edges, skipped := b.chain.Order(t, orderDevices...)
		if b.offReplicas(t) && slices.Equal(orderDevices, b.devices) {
			b.made.Tasks++
			b.made.Streams++
			b.made.Edges += edges
		} else if b.declared() && skipped > 0 {
			b.fail("collective %q ordered over devices %v, not every device", name, orderDevices)
		}
	}
	if b.declared() {
		if n := d.ParticipantsIn(b.lo, b.hi); !b.offReplicas(t) || n != 0 && n != b.hi-b.lo {
			b.fail("collective %q occupies part of the declared replicas", name)
		}
	}
	b.colls = append(b.colls, t)
	return t
}

// Order chain-orders t after the latest operation of each listed device
// in sequential mode; overlapped mode leaves ordering to streams and
// dependencies. It is not a symmetric call: an edge it makes breaks the
// census of a committed build, and so does an edge it leaves out.
func (b *Builder) Order(t *sim.Task, devices ...int) {
	if b.chain == nil {
		return
	}
	if _, skipped := b.chain.Order(t, devices...); b.declared() && skipped > 0 {
		b.fail("Order of %q over devices %v", t.Name(), devices)
	}
}

// Pairwise makes each ts[i] wait for deps[i]; a nil dep adds no edge.
// Over two full Compute fan-outs of a committed build (block) it is a
// symmetric call: every replica's task waits for its own device's
// counterpart, so the ghost pairs get no edge, by index. A ghost in any
// other pair that makes an edge is refused, and nothing is wired.
func (b *Builder) Pairwise(ts, deps []*sim.Task) {
	if b.block(ts) && b.block(deps) {
		b.made.Edges += pairs(ts[:b.lo+1], deps[:b.lo+1]) + pairs(ts[b.hi:], deps[b.hi:])
		return
	}
	if b.declared() {
		for i, d := range deps {
			if d != nil && (b.ghost(ts[i]) || b.ghost(d)) {
				b.fail("Pairwise on a ghost outside two full fan-outs")
				return
			}
		}
	}
	pairs(ts, deps)
}

// pairs makes each ts[i] wait for deps[i] and returns the number of
// pairs.
func pairs(ts, deps []*sim.Task) int {
	for i, t := range ts {
		t.After(deps[i])
	}
	return len(ts)
}

// After makes every task of ts wait for every dep; a nil dep adds no
// edge. It is a symmetric call when ts is off the declared replicas (an
// edge out of a replica task gates no replica), or when ts is a full
// Compute fan-out of a committed build (block) and every dep is off the
// replicas (every replica's task waits for the same tasks). The ghost
// slots of a block, in ts or deps, get no edge: a ghost's edges out
// would all come from its mirror, which then already gates every task
// it would. A ghost anywhere else is refused, and nothing is wired.
func (b *Builder) After(ts []*sim.Task, deps ...*sim.Task) {
	if !b.declared() {
		gates(deps, ts)
		return
	}
	block, depBlock := b.block(ts), b.block(deps)
	if !block && b.anyGhost(ts) || !depBlock && b.anyGhost(deps) {
		b.fail("After on a ghost outside its fan-out")
		return
	}
	kept := ts
	if block {
		kept = append(append(b.kept[:0], ts[:b.lo+1]...), ts[b.hi:]...)
		b.kept = kept[:0]
	}
	var edges int
	if depBlock {
		edges = gates(deps[:b.lo+1], kept) + gates(deps[b.hi:], kept)
	} else {
		edges = gates(deps, kept)
	}
	if b.offReplicas(ts...) || block && b.offReplicas(deps...) {
		b.made.Edges += edges
	}
}

// gates makes every task of ts wait for every non-nil dep and returns
// the edges it made.
func gates(deps, ts []*sim.Task) (edges int) {
	for _, d := range deps {
		if d != nil {
			edges += d.Gates(ts)
		}
	}
	return edges
}

// declared reports whether the builder declared replicas.
func (b *Builder) declared() bool { return b.hi > b.lo }

// isReplica reports whether the device is a declared replica.
func (b *Builder) isReplica(device int) bool { return device >= b.lo && device < b.hi }

// ghost reports whether t is a task a committed collapse ghosts: one on
// a declared replica other than the representative.
func (b *Builder) ghost(t *sim.Task) bool {
	d := t.Streams()[0].Device()
	return d > b.lo && d < b.hi
}

// anyGhost reports whether any of the (non-nil) tasks is a ghost.
func (b *Builder) anyGhost(ts []*sim.Task) bool {
	return slices.ContainsFunc(ts, func(t *sim.Task) bool { return t != nil && b.ghost(t) })
}

// offReplicas reports whether no stream of any of the (non-nil) tasks is
// on a declared replica.
func (b *Builder) offReplicas(ts ...*sim.Task) bool {
	for _, t := range ts {
		if t == nil {
			continue
		}
		for _, s := range t.Streams() {
			if b.isReplica(s.Device()) {
				return false
			}
		}
	}
	return true
}

// block reports whether ts is a full Compute fan-out of a committed
// build: its ghost slots ts[lo+1:hi] hold, pointer for pointer, the
// replicas the engine made of ts[lo] in one call (sim.Engine.ReplicasOf),
// and every other slot a task on its own device. Wiring then handles the
// ghost slots by index and reads none of their tasks. A fan-out with a
// slot swapped, or a copy with one slot changed, is not a block, and a
// call that wires its ghosts is refused. A build that declares nothing
// checks no symmetry, so nothing is a block.
func (b *Builder) block(ts []*sim.Task) bool {
	if !b.declared() || len(ts) != len(b.streams) || ts[b.lo] == nil ||
		!slices.Equal(ts[b.lo+1:b.hi], b.Eng.ReplicasOf(ts[b.lo])) {
		return false
	}
	for d, t := range ts[:b.lo+1] {
		if t == nil || t.Streams()[0].Device() != d {
			return false
		}
	}
	for i, t := range ts[b.hi:] {
		if t == nil || t.Streams()[0].Device() != b.hi+i {
			return false
		}
	}
	return true
}
