// Package fsdp implements the Fully Sharded Data Parallel (ZeRO-3)
// executor of Fig. 3(a): parameters, gradients and optimizer state are
// sharded across all GPUs; each layer's parameters are all-gathered before
// use in both the forward and backward pass, and gradients are
// reduce-scattered as soon as a layer's backward completes. In overlapped
// mode the gathers are prefetched on a dedicated communication stream
// (bounded lookahead, as PyTorch FSDP and DeepSpeed do); in sequential mode
// every collective is serialized against computation.
//
// The package registers itself with the strategy registry under "fsdp".
package fsdp

import (
	"fmt"

	"overlapsim/internal/collective"
	"overlapsim/internal/exec"
	"overlapsim/internal/gpu"
	"overlapsim/internal/kernels"
	"overlapsim/internal/sim"
	"overlapsim/internal/strategy"
)

// Strategy implements strategy.Strategy for FSDP.
type Strategy struct{}

func init() { strategy.Register(Strategy{}) }

// Name implements strategy.Strategy.
func (Strategy) Name() string { return "fsdp" }

// Describe implements strategy.Strategy.
func (Strategy) Describe() strategy.Info {
	return strategy.Info{
		Name:      "fsdp",
		Display:   "FSDP",
		Summary:   "fully sharded data parallelism (ZeRO-3): per-layer parameter all-gathers with bounded prefetch, gradient reduce-scatters",
		Knobs:     []string{"grad_accum_steps"},
		GradAccum: true,
	}
}

// Build implements strategy.Strategy.
func (Strategy) Build(cl *gpu.Cluster, p strategy.Params) (*exec.Plan, error) {
	return Build(cl, p)
}

func withDefaults(p strategy.Params) strategy.Params {
	p = p.WithCommonDefaults()
	if p.PrefetchDepth <= 0 {
		p.PrefetchDepth = 2
	}
	if p.GradAccumSteps <= 0 {
		p.GradAccumSteps = 1
	}
	return p
}

// Build constructs the full multi-iteration task graph on a fresh engine
// bound to the cluster. It returns a model.ErrOOM if the configuration
// does not fit in device memory (the paper's A100 constraint).
//
// The plan declares its rank symmetry: ranks 1..n-1 run the same graph
// and form one class, while rank 0 stays alone because it hosts the
// communication streams (in sequential mode the seqcomm.* streams).
// Every task, edge and stream comes from a symmetric Builder call, so
// the plan collapses without a detection pass. On a deterministic
// cluster the builder commits to the declaration and wires no edge into
// or out of the ghost ranks 2..n-1 (see exec.Builder); a build that
// broke it would return exec.ErrAsymmetric. p.FullGraph builds the
// reference that wires every edge and simulates every rank.
func Build(cl *gpu.Cluster, p strategy.Params) (*exec.Plan, error) {
	b, err := newBuilder(cl, p)
	if err != nil {
		return nil, err
	}
	return b.Plan(b.cfg.Warmup, b.cfg.Iterations, b.buildIteration)
}

// newBuilder validates the configuration and starts the plan: the
// builder with its declared replicas and, in overlapped mode, its
// communication streams.
func newBuilder(cl *gpu.Cluster, p strategy.Params) (*builder, error) {
	p = withDefaults(p)
	if err := p.Model.Validate(); err != nil {
		return nil, err
	}
	n := cl.N()
	if n < 2 {
		return nil, fmt.Errorf("fsdp: sharding needs at least 2 GPUs, have %d", n)
	}
	if p.Batch%n != 0 {
		return nil, fmt.Errorf("fsdp: global batch %d not divisible by %d GPUs", p.Batch, n)
	}
	local := p.Batch / n
	est := p.Model.FootprintFSDP(local, n, p.Format, p.Checkpoint)
	if err := p.CheckMemory(cl.GPU(), est, fmt.Sprintf("FSDP bs=%d %s", p.Batch, p.Format)); err != nil {
		return nil, err
	}

	L := p.Model.Layers
	accum := p.GradAccumSteps
	// Per iteration: accum × (embed gather+compute, L forward and L
	// backward layers of one gather + n computes, head fwd/bwd), plus the
	// final step's L+1 reduce-scatters and the optimizer — sized so slab
	// allocation covers the whole plan in one reservation.
	estimate := (p.Warmup + p.Iterations) * (accum*(2*L*(n+1)+3*n+2) + L + 2 + n)
	b := &builder{Builder: p.NewBuilder(cl, estimate), cfg: p, n: n, local: local}
	b.DeclareReplicas(1, n)
	if !b.Sequential() {
		// Two communicator streams, as in PyTorch FSDP/DeepSpeed: one
		// serializes the parameter all-gathers (prefetch), the other the
		// gradient reduce-scatters, so backward gathers are not stalled
		// behind pending reductions.
		b.agS = b.NewStream("comm.allgather", 0)
		b.rsS = b.NewStream("comm.reducescatter", 0)
	}
	return b, nil
}

// builder holds the incremental graph-construction state.
type builder struct {
	*exec.Builder
	cfg   strategy.Params
	n     int
	local int // per-GPU batch

	agS *sim.Stream // all-gather stream (parameter prefetch)
	rsS *sim.Stream // reduce-scatter stream (gradient sync)
}

// newCollective creates a collective task across all ranks.
func (b *builder) newCollective(name string, op collective.Op, bytes float64) *sim.Task {
	s := b.agS
	if op == collective.ReduceScatter {
		s = b.rsS
	}
	return b.Collective(name, collective.Desc{Op: op, Bytes: bytes, N: b.n}, s, 0, b.Devices()...)
}

// newCompute creates one compute task per device from the pre-boxed
// fused kernel op (identical work on every rank under data parallelism).
func (b *builder) newCompute(name string, op exec.Op) []*sim.Task {
	return b.Compute(name, op, 0, b.n)
}

// buildIteration appends one training iteration to the graph and returns
// its tasks. With gradient accumulation the forward/backward body repeats
// per micro-step; gradient reduce-scatters happen only on the final step
// (DDP-style no_sync), which is what dilutes communication relative to
// compute.
func (b *builder) buildIteration(it int) {
	m := b.cfg.Model
	L := m.Layers
	e := float64(b.cfg.Format.Bytes())
	layerBytes := m.ParamsPerLayer() * e
	embedBytes := m.EmbedParams() * e
	pref := b.cfg.PrefetchDepth
	accum := b.cfg.GradAccumSteps

	fwdDesc := kernels.Fuse("fwd.layer", m.ForwardLayerKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits)...)
	bwdDesc := kernels.Fuse("bwd.layer", m.BackwardLayerKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits, b.cfg.Checkpoint)...)
	headFwd := kernels.Fuse("fwd.head", m.HeadKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits, true)...)
	headBwd := kernels.Fuse("bwd.head", m.HeadKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits, false)...)
	fwdOp, bwdOp := b.KernelOp(fwdDesc), b.KernelOp(bwdDesc)
	embedOp, logitsOp := b.KernelOp(headFwdEmbedOnly(headFwd)), b.KernelOp(headFwdLogitsOnly(headFwd))
	headBwdOp := b.KernelOp(headBwd)

	var lastRS, rsEmbed *sim.Task
	var prevStepB []*sim.Task
	for step := 0; step < accum; step++ {
		lastStep := step == accum-1
		tag := fmt.Sprintf("it%d.s%d", it, step)

		// Forward pass.
		agEmbed := b.newCollective(tag+".ag.embed", collective.AllGather, embedBytes)
		embedF := b.newCompute(tag+".fwd.embed", embedOp)
		b.After(embedF, agEmbed)
		prev := prevStepB
		if step == 0 {
			// Iteration barrier: the embedding all-gather waits on every
			// rank's optimizer step and gates every rank's first compute,
			// so that compute needs a direct edge only to its own rank's
			// step. Edges to every rank's step would cost ranks².
			b.After([]*sim.Task{agEmbed}, b.Last...)
			prev = b.Last
		}
		b.Pairwise(embedF, prev)

		agFwdPrefix, fwdPrefix := tag+".ag.fwd.l", tag+".fwd.l"
		agF := make([]*sim.Task, L)
		fF := make([][]*sim.Task, L)
		for i := 0; i < L; i++ {
			agF[i] = b.newCollective(b.Name(agFwdPrefix, i), collective.AllGather, layerBytes)
			if !b.Sequential() && i >= pref {
				// Bound prefetch: gather of layer i waits for compute of
				// layer i-pref.
				b.After([]*sim.Task{agF[i]}, fF[i-pref]...)
			}
			fF[i] = b.newCompute(b.Name(fwdPrefix, i), fwdOp)
			b.After(fF[i], agF[i])
			if i == 0 {
				b.Pairwise(fF[i], embedF)
			} else {
				b.Pairwise(fF[i], fF[i-1])
			}
		}

		// LM head + loss.
		headF := b.newCompute(tag+".fwd.lmhead", logitsOp)
		b.Pairwise(headF, fF[L-1])
		b.After(headF, agEmbed)
		headB := b.newCompute(tag+".bwd.lmhead", headBwdOp)
		b.Pairwise(headB, headF)
		if lastStep {
			rsEmbed = b.newCollective(tag+".rs.embed", collective.ReduceScatter, embedBytes)
			b.After([]*sim.Task{rsEmbed}, headB...)
		}

		// Backward pass (reverse layer order).
		agBwdPrefix, bwdPrefix, rsPrefix := tag+".ag.bwd.l", tag+".bwd.l", tag+".rs.l"
		agB := make([]*sim.Task, L)
		fB := make([][]*sim.Task, L)
		for i := L - 1; i >= 0; i-- {
			agB[i] = b.newCollective(b.Name(agBwdPrefix, i), collective.AllGather, layerBytes)
			if !b.Sequential() && i <= L-1-pref {
				b.After([]*sim.Task{agB[i]}, fB[i+pref]...)
			}
			fB[i] = b.newCompute(b.Name(bwdPrefix, i), bwdOp)
			b.After(fB[i], agB[i])
			if i == L-1 {
				b.Pairwise(fB[i], headB)
			} else {
				b.Pairwise(fB[i], fB[i+1])
			}
			if lastStep {
				rs := b.newCollective(b.Name(rsPrefix, i), collective.ReduceScatter, layerBytes)
				b.After([]*sim.Task{rs}, fB[i]...)
				lastRS = rs
			}
		}
		prevStepB = fB[0]
	}

	// Optimizer step over the local shard.
	shard := m.TotalParams() / float64(b.n)
	opt := b.newCompute(fmt.Sprintf("it%d.opt", it), b.KernelOp(m.OptimizerKernel(shard)))
	b.After(opt, lastRS, rsEmbed)
	b.Pairwise(opt, prevStepB)
	b.Last = opt
}

// headFwdEmbedOnly and headFwdLogitsOnly split the fused head descriptor
// so the embedding lookup runs before layer 0 and the LM head after the
// last layer.
func headFwdEmbedOnly(fused kernels.Desc) kernels.Desc {
	return kernels.Fuse("fwd.embed", fused.Parts[0])
}

func headFwdLogitsOnly(fused kernels.Desc) kernels.Desc {
	return kernels.Fuse("fwd.lmhead", fused.Parts[1:]...)
}
