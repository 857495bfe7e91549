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
// On a deterministic cluster the declaration is a commitment: the
// builder wires the graph the collapse would leave. A ghost is a replica
// task on a device other than the representative. No edge runs into a
// ghost, and an edge out of one is made from its mirror instead, once,
// and not at all when the mirror already gates the task
// (sim.Task.AfterMirror, Collapse's transfer rule); the chain makes no
// edge on a ghost device's behalf. Ghost tasks and their streams are
// still made, so a plan's tasks, streams and engine stats are those the
// full graph's collapse reports. A full fan-out makes its replicas in
// one engine call (sim.Engine.NewReplicas), and Pairwise and After tell
// such a fan-out by pointer identity: its ghost slots are exactly the
// run the engine made (sim.Engine.ReplicasOf). They then wire its ghost
// range by index and read none of its ghosts; any other task list, a
// fan-out with a slot changed included, is wired task by task, and a
// Pairwise over it, or an After of it, is not symmetric. The plan can
// only run collapsed, through the ledger
// (sim.Engine.CollapseDeclared), so whatever would break the declaration
// is an error Plan returns, and RunContext too when the engine changed
// after Plan: a census of the engine (tasks, dependency edges,
// completion callbacks and streams) that differs from the builder's
// tally, a collective the declared class vetoes, or a call that is not
// symmetric leaving out an edge. A jittered cluster, whose ranks run
// apart, and a FullGraph build wire every edge.
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
	// hi); full is set by FullGraph; committed is set while the builder
	// wires the collapsed graph; made tallies what the builder's
	// symmetric calls made; err is the first thing that broke a
	// committed declaration.
	lo, hi    int
	full      bool
	committed bool
	made      sim.Census
	err       error
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
// whose members run the same graph, with lo its representative. From
// then on every full Compute fan-out records, on each replica's task,
// the representative's task as its mirror, and on a deterministic
// cluster the builder commits to the declaration (see Builder). A
// declaration made after the first task is ignored: the calls before it
// were not checked against it.
func (b *Builder) DeclareReplicas(lo, hi int) {
	if len(b.Eng.Tasks()) == 0 {
		b.lo, b.hi = max(lo, 0), min(hi, len(b.streams))
		b.commit()
	}
}

// FullGraph makes the builder wire every edge and its plan simulate
// every rank, collapsing nothing, whatever it declares or the detector
// would prove: the reference a collapse is held to. On a committed
// build it must come before the first task, whose edges it would
// otherwise miss; later, Plan returns an error.
func (b *Builder) FullGraph() {
	if b.committed && len(b.Eng.Tasks()) > 0 {
		b.fail("FullGraph after the first task of a committed build")
		return
	}
	b.full = true
	b.commit()
}

// commit sets whether the builder wires the collapsed graph: when it
// declared replicas on a deterministic cluster and was not asked for
// the full graph. The chain then makes no edge for a ghost device.
func (b *Builder) commit() {
	b.committed = b.declared() && !b.full && b.cl.Deterministic()
	if b.chain != nil {
		b.chain.skipLo, b.chain.skipHi = 0, 0
		if b.committed {
			b.chain.skipLo, b.chain.skipHi = b.lo+1, b.hi
		}
	}
}

// fail records the first reason a committed declaration broke.
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
	if b.committed {
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
		} else if b.committed && skipped > 0 {
			b.fail("collective %q ordered over devices %v, not every device", name, orderDevices)
		}
	}
	if b.committed {
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
	if _, skipped := b.chain.Order(t, devices...); b.committed && skipped > 0 {
		b.fail("Order of %q over devices %v", t.Name(), devices)
	}
}

// Pairwise makes each ts[i] wait for deps[i]; a nil dep adds no edge.
// Over two full Compute fan-outs of a committed build (block) it is a
// symmetric call: every replica's task waits for its own device's
// counterpart, so the ghost pairs get no edge, by index.
func (b *Builder) Pairwise(ts, deps []*sim.Task) {
	if b.block(ts) && b.block(deps) {
		b.made.Edges += pairs(ts[:b.lo+1], deps[:b.lo+1]) + pairs(ts[b.hi:], deps[b.hi:])
		return
	}
	edges, altered := 0, 0
	for i, t := range ts {
		d := deps[i]
		if d == nil {
			continue
		}
		if b.committed && (b.ghost(t) || b.ghost(d)) {
			// wire's rule for one pair, inline: per-pair calls to wire
			// cost a measurable share of a 512-rank build.
			if !b.ghost(t) {
				edges += t.AfterMirror(d)
			}
			altered++
			continue
		}
		t.After(d)
		edges++
	}
	if b.committed && altered > 0 {
		b.fail("Pairwise on tasks that are not two full fan-outs")
	}
}

// pairs makes each ts[i] wait for deps[i] and returns the edges made.
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
// replicas (every replica's task waits for the same tasks).
func (b *Builder) After(ts []*sim.Task, deps ...*sim.Task) {
	block := b.block(ts)
	edges, altered := b.wire(ts, block, deps)
	if b.offReplicas(ts...) || block && b.offReplicas(deps...) {
		b.made.Edges += edges
	} else if b.committed && altered > 0 {
		b.fail("After on tasks that are neither off the replicas nor a full fan-out")
	}
}

// wire makes every task of ts wait for every non-nil dep and returns the
// edges it made and the edges it left out or made from a mirror instead;
// a call that is not symmetric must leave none out, for the census
// counts only what was made. block says whether ts is a committed
// fan-out (Builder.block).
// A build that is not committed wires them all. A committed build wires
// what the collapse would leave: no edge into a ghost, and an edge out
// of a ghost made from its mirror (sim.Task.AfterMirror). The deps that
// are not ghosts are wired first, so an edge the mirror makes itself is
// never doubled by one made for a ghost. The ghost range of a committed
// fan-out, in ts or deps, is handled by index: its tasks get no edge,
// and its edges out would all come from its mirror, which then already
// gates every task it would.
func (b *Builder) wire(ts []*sim.Task, block bool, deps []*sim.Task) (edges, altered int) {
	if !b.committed {
		for _, d := range deps {
			if d != nil {
				edges += d.Gates(ts)
			}
		}
		return edges, 0
	}
	kept, n := b.kept[:0], 0
	for _, d := range deps {
		if d != nil {
			n++
		}
	}
	if block {
		kept = append(append(kept, ts[:b.lo+1]...), ts[b.hi:]...)
		altered += n * (b.hi - b.lo - 1)
	} else {
		for _, t := range ts {
			if t == nil {
				continue
			}
			if b.ghost(t) {
				altered += n
			} else {
				kept = append(kept, t)
			}
		}
	}
	if b.block(deps) {
		for _, d := range deps[:b.lo+1] {
			edges += d.Gates(kept)
		}
		for _, d := range deps[b.hi:] {
			edges += d.Gates(kept)
		}
		altered += (b.hi - b.lo - 1) * len(kept)
	} else {
		for _, d := range deps {
			if d != nil && !b.ghost(d) {
				edges += d.Gates(kept)
			}
		}
		for _, d := range deps {
			if d != nil && b.ghost(d) {
				for _, t := range kept {
					edges += t.AfterMirror(d)
				}
				altered += len(kept)
			}
		}
	}
	b.kept = kept[:0]
	return edges, altered
}

// declared reports whether the builder declared replicas.
func (b *Builder) declared() bool { return b.hi > b.lo }

// isReplica reports whether the device is a declared replica.
func (b *Builder) isReplica(device int) bool { return device >= b.lo && device < b.hi }

// isGhost reports whether the device is a declared replica other than
// the representative: one a collapse ghosts.
func (b *Builder) isGhost(device int) bool { return device > b.lo && device < b.hi }

// ghost reports whether t is a task a committed collapse ghosts: one on
// a ghost device.
func (b *Builder) ghost(t *sim.Task) bool { return b.isGhost(t.Streams()[0].Device()) }

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
// slot swapped, or a copy with one slot changed, is not a block: it is
// wired task by task, and the call, not symmetric, is refused. A build
// that is not committed checks no symmetry, so nothing is a block.
func (b *Builder) block(ts []*sim.Task) bool {
	if !b.committed || len(ts) != len(b.streams) || ts[b.lo] == nil ||
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
