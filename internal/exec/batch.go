package exec

import (
	"strconv"

	"overlapsim/internal/hw"
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

// KernelOp prepares a fused kernel descriptor against the cluster's GPU
// (kernels.Prepare) and boxes it into an Op — the one construction path
// every strategy shares. Every task the Op fans out to shares the one
// prepared cost, so the device model's per-epoch work neither recomputes
// nor allocates it.
func KernelOp(d kernels.Desc, g *hw.GPUSpec) Op {
	d = kernels.Prepare(d, g)
	return Op{Work: kernels.Work(d), Payload: d}
}

// Batch is the batched task-construction API the strategy builders go
// through: it pre-sizes the engine's slab allocators for the plan's
// expected task count and assembles the dotted per-layer/per-device task
// names in a reusable buffer, so building a plan allocates per task only
// what outlives construction (the name string and queue slots).
type Batch struct {
	Eng *sim.Engine
	buf []byte
}

// NewBatch wraps the engine, reserving capacity for about expectTasks
// task creations. The estimate is an allocation hint, not a limit.
func NewBatch(eng *sim.Engine, expectTasks int) *Batch {
	eng.Reserve(expectTasks)
	return &Batch{Eng: eng, buf: make([]byte, 0, 64)}
}

// Name returns prefix followed by the decimal index — the "fwd.l7"
// pattern — with a single string allocation.
func (b *Batch) Name(prefix string, idx int) string {
	b.buf = append(b.buf[:0], prefix...)
	b.buf = strconv.AppendInt(b.buf, int64(idx), 10)
	return string(b.buf)
}

// DevName returns base+"@"+dev, the per-device task-name convention.
func (b *Batch) DevName(base string, dev int) string {
	b.buf = append(b.buf[:0], base...)
	b.buf = append(b.buf, '@')
	b.buf = strconv.AppendInt(b.buf, int64(dev), 10)
	return string(b.buf)
}

// Compute creates one compute task per stream, named base@device. When
// chain is non-nil (sequential mode) each task is chain-ordered on its
// device.
func (b *Batch) Compute(base string, op Op, streams []*sim.Stream, chain *Chain) []*sim.Task {
	out := make([]*sim.Task, len(streams))
	for i, s := range streams {
		t := b.Eng.NewTask(b.DevName(base, s.Device()), sim.KindCompute, op.Work, op.Payload, s)
		if chain != nil {
			chain.Order(t, s.Device())
		}
		out[i] = t
	}
	return out
}

// Task creates a single task — the collective/host path of the batched
// API, kept symmetric with Compute so builders construct every task
// through the batch.
func (b *Batch) Task(name string, kind sim.Kind, work float64, payload any, streams ...*sim.Stream) *sim.Task {
	return b.Eng.NewTask(name, kind, work, payload, streams...)
}
