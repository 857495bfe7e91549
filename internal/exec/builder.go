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
// expected task count and assembles the dotted per-layer/per-device task
// names in a reusable buffer, so building a plan allocates per task only
// what outlives construction: its queue slots, and its name — one string
// per Compute fan-out, which the fan-out's tasks slice.
//
// A strategy whose ranks are symmetric by construction declares them
// (DeclareReplicas) and makes every replica task, every edge into one
// and every stream through calls that are symmetric by definition:
// Compute fan-outs over every device, Collective ordered over every
// device, the sequential-mode Chain, and the Pairwise and After edge
// helpers. Each such call tallies what it made; Plan hands the tally to
// the plan, whose RunContext collapses the declared classes only while
// the engine's Census still equals it (see Plan.DeclaredClasses).
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
	ends    []int       // end offset of each name of a Compute fan-out in buf
	colls   []*sim.Task // every Collective task, in creation order

	// lo and hi bound the declared replica devices (none while lo ==
	// hi); made tallies what the builder's symmetric calls made.
	lo, hi int
	made   sim.Census
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
// the representative's task as its mirror. A declaration made after the
// first task is ignored: the calls before it were not checked against
// it.
func (b *Builder) DeclareReplicas(lo, hi int) {
	if len(b.Eng.Tasks()) == 0 {
		b.lo, b.hi = max(lo, 0), min(hi, len(b.streams))
	}
}

// NewStream creates a stream on the device. A stream on a declared
// replica is not tallied, so it sends the plan to DetectClasses.
func (b *Builder) NewStream(name string, device int) *sim.Stream {
	if !b.isReplica(device) {
		b.made.Streams++
	}
	return b.Eng.NewStream(name, device)
}

// Plan builds warmup+iters iterations through build, which receives the
// iteration index, and groups each call's tasks as one iteration of the
// returned plan. The plan keeps the collective tasks the builder created,
// which is what lets it collapse, and the declared replicas with the
// tally of what the builder made (see Plan.RunContext).
func (b *Builder) Plan(warmup, iters int, build func(it int)) *Plan {
	p := &Plan{Engine: b.Eng, Cluster: b.cl, Warmup: warmup}
	for it := 0; it < warmup+iters; it++ {
		start := len(b.Eng.Tasks())
		build(it)
		p.Iterations = append(p.Iterations, b.Eng.Tasks()[start:])
	}
	p.built, p.collectives = true, b.colls
	if b.hi > b.lo {
		p.replicas, p.census = b.devices[b.lo:b.hi], b.made
	}
	return p
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
// symmetric call: the task it makes sends a declared plan to
// DetectClasses.
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
	return t, b.chain.Order(t, dev)
}

// Compute creates one compute task per device in [lo, hi), named
// base@device. The fan-out's names are assembled back to back in the
// reusable buffer and converted to one string that every name slices,
// so a fan-out allocates one name string instead of one per device.
//
// A fan-out over every device is a symmetric call: it tallies its tasks
// and chain edges and records the first replica's task as every other
// replica task's mirror.
func (b *Builder) Compute(base string, op Op, lo, hi int) []*sim.Task {
	b.buf, b.ends = b.buf[:0], b.ends[:0]
	for d := lo; d < hi; d++ {
		b.buf = append(b.buf, base...)
		b.buf = append(b.buf, '@')
		b.buf = strconv.AppendInt(b.buf, int64(d), 10)
		b.ends = append(b.ends, len(b.buf))
	}
	names := string(b.buf)
	out := make([]*sim.Task, hi-lo)
	start, edges := 0, 0
	for i, end := range b.ends {
		var e int
		out[i], e = b.computeOn(names[start:end], op, lo+i)
		edges += e
		start = end
	}
	if lo == 0 && hi == len(b.streams) {
		for d := b.lo + 1; d < b.hi; d++ {
			out[d].SetMirror(out[b.lo])
		}
		b.made.Tasks += len(out)
		b.made.Edges += edges
	}
	return out
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
// sequential mode only when it is ordered over every device.
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
		edges := b.chain.Order(t, orderDevices...)
		if b.offReplicas(t) && slices.Equal(orderDevices, b.devices) {
			b.made.Tasks++
			b.made.Streams++
			b.made.Edges += edges
		}
	}
	b.colls = append(b.colls, t)
	return t
}

// Order chain-orders t after the latest operation of each listed device
// in sequential mode; overlapped mode leaves ordering to streams and
// dependencies. It is not a symmetric call: an edge it makes sends a
// declared plan to DetectClasses.
func (b *Builder) Order(t *sim.Task, devices ...int) {
	if b.chain != nil {
		b.chain.Order(t, devices...)
	}
}

// Pairwise makes each ts[i] wait for deps[i]; a nil dep adds no edge.
// Over two full Compute fan-outs it is a symmetric call: every replica's
// task waits for its own device's counterpart.
func (b *Builder) Pairwise(ts, deps []*sim.Task) {
	edges := 0
	for i, t := range ts {
		if deps[i] != nil {
			t.After(deps[i])
			edges++
		}
	}
	if edges == 0 || b.fanout(ts) && b.fanout(deps) {
		b.made.Edges += edges
	}
}

// After makes every task of ts wait for every dep; a nil dep adds no
// edge. It is a symmetric call when ts is off the declared replicas (an
// edge out of a replica task gates no replica), or when ts is a full
// Compute fan-out and every dep is off the replicas (every replica's task
// waits for the same tasks).
func (b *Builder) After(ts []*sim.Task, deps ...*sim.Task) {
	edges := 0
	for _, d := range deps {
		if d != nil {
			edges += d.Gates(ts)
		}
	}
	if b.offReplicas(ts...) || b.fanout(ts) && b.offReplicas(deps...) {
		b.made.Edges += edges
	}
}

// isReplica reports whether the device is a declared replica.
func (b *Builder) isReplica(device int) bool { return device >= b.lo && device < b.hi }

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

// fanout reports whether ts is a full Compute fan-out: one task per
// device, indexed by device, each replica's task mirroring the first
// replica's.
func (b *Builder) fanout(ts []*sim.Task) bool {
	if len(ts) != len(b.streams) {
		return false
	}
	for d, t := range ts {
		if t == nil || t.Streams()[0].Device() != d ||
			d > b.lo && d < b.hi && t.Mirror() != ts[b.lo] {
			return false
		}
	}
	return true
}
