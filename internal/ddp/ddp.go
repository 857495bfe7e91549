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
	g := cl.GPU()
	n := cl.N()
	if p.Batch%n != 0 {
		return nil, fmt.Errorf("ddp: global batch %d not divisible by %d GPUs", p.Batch, n)
	}
	local := p.Batch / n
	if !p.SkipMemoryCheck {
		est := FootprintDDP(p.Model, local, p.Format, p.Checkpoint)
		if est.Total() > g.MemBytes() {
			return nil, &model.ErrOOM{
				Model:     fmt.Sprintf("%s (DDP bs=%d %s)", p.Model.Name, p.Batch, p.Format),
				GPU:       g.Name,
				NeedBytes: est.Total(),
				HaveBytes: g.MemBytes(),
			}
		}
	}

	eng := sim.NewEngine(cl)
	eng.AddObserver(cl)
	total := p.Warmup + p.Iterations
	L := p.Model.Layers
	// Per iteration: L forward + L backward layers and the head pair of n
	// computes each, at most L+1 gradient buckets, and the optimizer.
	estimate := total * (2*L*n + 3*n + L + 2)
	b := &builder{cfg: p, eng: eng, cl: cl, n: n, local: local,
		batch: exec.NewBatch(eng, estimate)}
	b.prepare()
	plan := &exec.Plan{Engine: eng, Cluster: cl, Warmup: p.Warmup, Symmetry: exec.SymmetryRanks}
	for it := 0; it < p.Warmup+p.Iterations; it++ {
		plan.Iterations = append(plan.Iterations, b.buildIteration(it))
	}
	return plan, nil
}

type builder struct {
	cfg   strategy.Params
	eng   *sim.Engine
	cl    *gpu.Cluster
	batch *exec.Batch
	n     int
	local int

	computeS []*sim.Stream
	commS    *sim.Stream
	chain    *exec.Chain
	prep     *collective.Preparer

	prevIterEnd []*sim.Task
}

func (b *builder) sequential() bool { return b.cfg.Mode == exec.Sequential }

func (b *builder) prepare() {
	for d := 0; d < b.n; d++ {
		b.computeS = append(b.computeS, b.eng.NewStream(fmt.Sprintf("compute%d", d), d))
	}
	if b.sequential() {
		b.chain = exec.NewChain()
	} else {
		b.commS = b.eng.NewStream("comm.allreduce", 0)
	}
	b.prevIterEnd = make([]*sim.Task, b.n)
}

func (b *builder) allDevices() []int {
	devs := make([]int, b.n)
	for i := range devs {
		devs[i] = i
	}
	return devs
}

func (b *builder) newCompute(name string, op exec.Op) []*sim.Task {
	return b.batch.Compute(name, op, b.computeS, b.chain)
}

func (b *builder) newAllReduce(name string, bytes float64) *sim.Task {
	cd := collective.Desc{Name: name, Op: collective.AllReduce, Bytes: bytes, N: b.n}
	if b.prep == nil {
		b.prep = collective.NewPreparer(b.cl.Fabric())
	}
	cd, work := b.prep.Prepare(cd)
	if b.sequential() {
		s := b.eng.NewStream("seqcomm."+name, 0)
		t := b.batch.Task(name, sim.KindComm, work, cd, s)
		b.chain.Order(t, b.allDevices()...)
		return t
	}
	return b.batch.Task(name, sim.KindComm, work, cd, b.commS)
}

func after(ts []*sim.Task, deps ...*sim.Task) {
	for _, t := range ts {
		t.After(deps...)
	}
}

// buildIteration appends one DDP iteration: full forward, then backward
// layer by layer with gradient buckets all-reduced as they fill, then the
// optimizer step gated on the last reduction.
func (b *builder) buildIteration(it int) []*sim.Task {
	m := b.cfg.Model
	L := m.Layers
	e := float64(b.cfg.Format.Bytes())
	start := len(b.eng.Tasks())

	g := b.cl.GPU()
	fwdOp := exec.KernelOp(kernels.Fuse("fwd.layer", m.ForwardLayerKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits)...), g)
	bwdOp := exec.KernelOp(kernels.Fuse("bwd.layer", m.BackwardLayerKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits, b.cfg.Checkpoint)...), g)
	headFOp := exec.KernelOp(kernels.Fuse("fwd.head", m.HeadKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits, true)...), g)
	headBOp := exec.KernelOp(kernels.Fuse("bwd.head", m.HeadKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits, false)...), g)

	barrier := func(ts []*sim.Task) {
		for _, t := range ts {
			for _, p := range b.prevIterEnd {
				if p != nil {
					t.After(p)
				}
			}
		}
	}

	// Forward.
	fwdPrefix := fmt.Sprintf("it%d.fwd.l", it)
	var prev []*sim.Task
	for i := 0; i < L; i++ {
		f := b.newCompute(b.batch.Name(fwdPrefix, i), fwdOp)
		if i == 0 {
			barrier(f)
		} else {
			for d, t := range f {
				t.After(prev[d])
			}
		}
		prev = f
	}
	hf := b.newCompute(fmt.Sprintf("it%d.fwd.head", it), headFOp)
	for d, t := range hf {
		t.After(prev[d])
	}
	hb := b.newCompute(fmt.Sprintf("it%d.bwd.head", it), headBOp)
	for d, t := range hb {
		t.After(hf[d])
	}
	prev = hb

	// Backward with bucketed all-reduce overlap.
	layerGradBytes := m.ParamsPerLayer() * e
	pending := m.EmbedParams() * e // head/embedding grads are ready first
	var reduces []*sim.Task
	bucket := 0
	bwdPrefix := fmt.Sprintf("it%d.bwd.l", it)
	arPrefix := fmt.Sprintf("it%d.ar.bucket", it)
	for i := L - 1; i >= 0; i-- {
		bw := b.newCompute(b.batch.Name(bwdPrefix, i), bwdOp)
		for d, t := range bw {
			t.After(prev[d])
		}
		prev = bw
		pending += layerGradBytes
		if pending >= b.cfg.BucketBytes || i == 0 {
			ar := b.newAllReduce(b.batch.Name(arPrefix, bucket), pending)
			after([]*sim.Task{ar}, bw...)
			reduces = append(reduces, ar)
			pending = 0
			bucket++
		}
	}

	// Optimizer over the full replica.
	opt := b.newCompute(fmt.Sprintf("it%d.opt", it), exec.KernelOp(m.OptimizerKernel(m.TotalParams()), g))
	for d, t := range opt {
		t.After(prev[d])
		t.After(reduces[len(reduces)-1])
	}
	b.prevIterEnd = opt

	return b.eng.Tasks()[start:]
}
