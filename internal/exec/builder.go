package exec

import (
	"fmt"
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
		b.streams = append(b.streams, eng.NewStream(fmt.Sprintf("compute%d", d), d))
		b.devices[d] = d
	}
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

// Plan builds warmup+iters iterations through build, which receives the
// iteration index, and groups each call's tasks as one iteration of the
// returned plan. The plan keeps the collective tasks the builder created,
// which is what lets it collapse (see Plan.RunContext).
func (b *Builder) Plan(warmup, iters int, build func(it int)) *Plan {
	p := &Plan{Engine: b.Eng, Cluster: b.cl, Warmup: warmup}
	for it := 0; it < warmup+iters; it++ {
		start := len(b.Eng.Tasks())
		build(it)
		p.Iterations = append(p.Iterations, b.Eng.Tasks()[start:])
	}
	p.built, p.collectives = true, b.colls
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
// sequential mode it is chain-ordered on the device.
func (b *Builder) ComputeOn(name string, op Op, dev int) *sim.Task {
	t := b.Eng.NewTask(name, sim.KindCompute, op.Work, op.Payload, b.streams[dev])
	b.Order(t, dev)
	return t
}

// Compute creates one compute task per device in [lo, hi), named
// base@device. The fan-out's names are assembled back to back in the
// reusable buffer and converted to one string that every name slices,
// so a fan-out allocates one name string instead of one per device.
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
	start := 0
	for i, end := range b.ends {
		out[i] = b.ComputeOn(names[start:end], op, lo+i)
		start = end
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
func (b *Builder) Collective(name string, d collective.Desc, overlapped *sim.Stream, home int, orderDevices ...int) *sim.Task {
	d.Name = name
	d, work := b.prep.Prepare(d)
	var t *sim.Task
	if !b.Sequential() {
		t = b.Eng.NewTask(name, sim.KindComm, work, d, overlapped)
	} else {
		t = b.Eng.NewTask(name, sim.KindComm, work, d, b.Eng.NewStream("seqcomm."+name, home))
		b.chain.Order(t, orderDevices...)
	}
	b.colls = append(b.colls, t)
	return t
}

// Order chain-orders t after the latest operation of each listed device
// in sequential mode; overlapped mode leaves ordering to streams and
// dependencies.
func (b *Builder) Order(t *sim.Task, devices ...int) {
	if b.chain != nil {
		b.chain.Order(t, devices...)
	}
}
