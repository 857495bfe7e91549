// Package ddp implements classic data-parallel training (PyTorch DDP) as
// the baseline distribution strategy: every GPU holds a full replica;
// gradients are all-reduced in fixed-size buckets that overlap the
// remainder of the backward pass, exactly the "asynchronous gradient
// communication" baseline the FSDP and pipeline strategies of the paper
// are measured against. It reuses the same cluster, kernel and collective
// substrates, so DDP results are directly comparable with the paper's two
// strategies.
//
// The package registers itself with the strategy registry under "ddp".
package ddp

import (
	"fmt"

	"overlapsim/internal/collective"
	"overlapsim/internal/exec"
	"overlapsim/internal/gpu"
	"overlapsim/internal/kernels"
	"overlapsim/internal/model"
	"overlapsim/internal/precision"
	"overlapsim/internal/sim"
	"overlapsim/internal/strategy"
)

// Strategy implements strategy.Strategy for DDP.
type Strategy struct{}

func init() { strategy.Register(Strategy{}) }

// Name implements strategy.Strategy.
func (Strategy) Name() string { return "ddp" }

// Describe implements strategy.Strategy.
func (Strategy) Describe() strategy.Info {
	return strategy.Info{
		Name:    "ddp",
		Display: "DDP",
		Summary: "replicated data parallelism: bucketed gradient all-reduce overlapping the backward pass",
	}
}

// Build implements strategy.Strategy.
func (Strategy) Build(cl *gpu.Cluster, p strategy.Params) (*exec.Plan, error) {
	return Build(cl, p)
}

func withDefaults(p strategy.Params) strategy.Params {
	p = p.WithCommonDefaults()
	if p.BucketBytes <= 0 {
		p.BucketBytes = 25 << 20
	}
	return p
}

// FootprintDDP estimates per-GPU memory: the full (unsharded) replica
// plus optimizer state and activations — the reason DDP cannot train the
// paper's larger models at all and FSDP exists.
func FootprintDDP(m model.Config, local int, f precision.Format, checkpoint bool) model.MemoryEstimate {
	// Equivalent to FSDP over a single GPU (no sharding).
	return m.FootprintFSDP(local, 1, f, checkpoint)
}

// Build constructs the multi-iteration DDP task graph on a fresh engine
// bound to the cluster.
func Build(cl *gpu.Cluster, p strategy.Params) (*exec.Plan, error) {
	p = withDefaults(p)
	if err := p.Model.Validate(); err != nil {
		return nil, err
	}
	n := cl.N()
	if p.Batch%n != 0 {
		return nil, fmt.Errorf("ddp: global batch %d not divisible by %d GPUs", p.Batch, n)
	}
	local := p.Batch / n
	est := FootprintDDP(p.Model, local, p.Format, p.Checkpoint)
	if err := p.CheckMemory(cl.GPU(), est, fmt.Sprintf("DDP bs=%d %s", p.Batch, p.Format)); err != nil {
		return nil, err
	}

	L := p.Model.Layers
	// Per iteration: L forward + L backward layers and the head pair of n
	// computes each, at most L+1 gradient buckets, and the optimizer.
	estimate := (p.Warmup + p.Iterations) * (2*L*n + 3*n + L + 2)
	b := &builder{Builder: p.NewBuilder(cl, estimate), cfg: p, n: n, local: local}
	if !b.Sequential() {
		b.commS = b.Eng.NewStream("comm.allreduce", 0)
	}
	return b.Plan(p.Warmup, p.Iterations, b.buildIteration)
}

type builder struct {
	*exec.Builder
	cfg   strategy.Params
	n     int
	local int

	commS *sim.Stream
}

func (b *builder) newCompute(name string, op exec.Op) []*sim.Task {
	return b.Compute(name, op, 0, b.n)
}

func (b *builder) newAllReduce(name string, bytes float64) *sim.Task {
	return b.Collective(name, collective.Desc{Op: collective.AllReduce, Bytes: bytes, N: b.n}, b.commS, 0, b.Devices()...)
}

// buildIteration appends one DDP iteration: full forward, then backward
// layer by layer with gradient buckets all-reduced as they fill, then the
// optimizer step gated on the last reduction.
func (b *builder) buildIteration(it int) {
	m := b.cfg.Model
	L := m.Layers
	e := float64(b.cfg.Format.Bytes())

	fwdOp := b.KernelOp(kernels.Fuse("fwd.layer", m.ForwardLayerKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits)...))
	bwdOp := b.KernelOp(kernels.Fuse("bwd.layer", m.BackwardLayerKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits, b.cfg.Checkpoint)...))
	headFOp := b.KernelOp(kernels.Fuse("fwd.head", m.HeadKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits, true)...))
	headBOp := b.KernelOp(kernels.Fuse("bwd.head", m.HeadKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits, false)...))

	// Forward.
	fwdPrefix := fmt.Sprintf("it%d.fwd.l", it)
	var prev []*sim.Task
	for i := 0; i < L; i++ {
		f := b.newCompute(b.Name(fwdPrefix, i), fwdOp)
		if i == 0 {
			b.After(f, b.Last...)
		} else {
			b.Pairwise(f, prev)
		}
		prev = f
	}
	hf := b.newCompute(fmt.Sprintf("it%d.fwd.head", it), headFOp)
	b.Pairwise(hf, prev)
	hb := b.newCompute(fmt.Sprintf("it%d.bwd.head", it), headBOp)
	b.Pairwise(hb, hf)
	prev = hb

	// Backward with bucketed all-reduce overlap.
	layerGradBytes := m.ParamsPerLayer() * e
	pending := m.EmbedParams() * e // head/embedding grads are ready first
	var reduces []*sim.Task
	bucket := 0
	bwdPrefix := fmt.Sprintf("it%d.bwd.l", it)
	arPrefix := fmt.Sprintf("it%d.ar.bucket", it)
	for i := L - 1; i >= 0; i-- {
		bw := b.newCompute(b.Name(bwdPrefix, i), bwdOp)
		b.Pairwise(bw, prev)
		prev = bw
		pending += layerGradBytes
		if pending >= b.cfg.BucketBytes || i == 0 {
			ar := b.newAllReduce(b.Name(arPrefix, bucket), pending)
			b.After([]*sim.Task{ar}, bw...)
			reduces = append(reduces, ar)
			pending = 0
			bucket++
		}
	}

	// Optimizer over the full replica.
	opt := b.newCompute(fmt.Sprintf("it%d.opt", it), b.KernelOp(m.OptimizerKernel(m.TotalParams())))
	b.Pairwise(opt, prev)
	b.After(opt, reduces[len(reduces)-1])
	b.Last = opt
}
