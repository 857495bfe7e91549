// Package pipeline implements the pipeline-parallel executor of
// Fig. 3(b): the model's layers are partitioned into stages, one per GPU;
// microbatches flow through the pipeline with activations sent forward and
// gradients sent backward between adjacent stages.
//
// Overlapped mode runs the 1F1B (PipeDream-flush) schedule with
// asynchronous sends and receives on dedicated link streams, so transfers
// overlap the next microbatch's computation. Sequential mode runs the
// GPipe wavefront schedule with blocking communication — every transfer is
// serialized against both endpoints' computation. (Blocking 1F1B deadlocks
// by construction, which is why real frameworks require async P2P; the
// GPipe wavefront has identical bubble fraction, so the sequential
// baseline remains temporally comparable.)
//
// The package registers itself with the strategy registry under "pp"
// (alias "pipeline").
package pipeline

import (
	"fmt"

	"overlapsim/internal/collective"
	"overlapsim/internal/exec"
	"overlapsim/internal/gpu"
	"overlapsim/internal/kernels"
	"overlapsim/internal/sim"
	"overlapsim/internal/strategy"
)

// Strategy implements strategy.Strategy for pipeline parallelism.
type Strategy struct{}

func init() { strategy.Register(Strategy{}) }

// Name implements strategy.Strategy.
func (Strategy) Name() string { return "pp" }

// Describe implements strategy.Strategy.
func (Strategy) Describe() strategy.Info {
	return strategy.Info{
		Name:       "pp",
		Aliases:    []string{"pipeline"},
		Display:    "PP",
		Summary:    "pipeline parallelism: layer stages with 1F1B microbatch scheduling and early-posted P2P transfers",
		Knobs:      []string{"micro_batch"},
		MicroBatch: true,
	}
}

// Build implements strategy.Strategy.
func (Strategy) Build(cl *gpu.Cluster, p strategy.Params) (*exec.Plan, error) {
	return Build(cl, p)
}

// CanonicalParams implements strategy.Canonicalizer: it makes the
// implicit microbatch default explicit so equivalent configs fingerprint
// identically (core.Canonicalize relies on this being the single source
// of the default).
func (Strategy) CanonicalParams(p strategy.Params, gpus int) strategy.Params {
	if p.MicroBatch <= 0 {
		p.MicroBatch = DefaultMicroBatch(p.Batch)
	}
	return p
}

// DefaultMicroBatch returns the microbatch size used when none is
// requested.
func DefaultMicroBatch(batch int) int {
	if batch < 2 {
		return batch
	}
	return 2
}

// withDefaults resolves the implicit defaults; the microbatch default
// has a single source in CanonicalParams so runtime behavior and
// fingerprint canonicalization cannot drift apart.
func withDefaults(p strategy.Params) (strategy.Params, error) {
	p = Strategy{}.CanonicalParams(p.WithCommonDefaults(), 0)
	if p.Batch%p.MicroBatch != 0 {
		return p, fmt.Errorf("pipeline: batch %d not divisible by microbatch %d", p.Batch, p.MicroBatch)
	}
	return p, nil
}

// op is one scheduled step of a stage.
type op struct {
	fwd bool
	mb  int
}

// stageSchedule returns the op order of stage s: the GPipe wavefront
// (all forwards, then all backwards) when gpipe is set, 1F1B otherwise.
func stageSchedule(gpipe bool, s, nStages, m int) []op {
	var ops []op
	if gpipe {
		for j := 0; j < m; j++ {
			ops = append(ops, op{fwd: true, mb: j})
		}
		for j := 0; j < m; j++ {
			ops = append(ops, op{fwd: false, mb: j})
		}
		return ops
	}
	warm := nStages - 1 - s
	if warm > m {
		warm = m
	}
	for j := 0; j < warm; j++ {
		ops = append(ops, op{fwd: true, mb: j})
	}
	for j := 0; j < m-warm; j++ {
		ops = append(ops, op{fwd: true, mb: warm + j})
		ops = append(ops, op{fwd: false, mb: j})
	}
	for j := m - warm; j < m; j++ {
		ops = append(ops, op{fwd: false, mb: j})
	}
	return ops
}

// Build constructs the multi-iteration pipeline task graph on a fresh
// engine bound to the cluster. The mode picks the schedule: 1F1B when
// overlapped, the blocking GPipe wavefront when sequential.
func Build(cl *gpu.Cluster, cfg strategy.Params) (*exec.Plan, error) {
	cfg, err := withDefaults(cfg)
	if err != nil {
		return nil, err
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	n := cl.N()
	if n < 2 {
		return nil, fmt.Errorf("pipeline: need at least 2 stages, have %d GPUs", n)
	}
	if cfg.Model.Layers < n {
		return nil, fmt.Errorf("pipeline: %d layers cannot fill %d stages", cfg.Model.Layers, n)
	}
	est := cfg.Model.FootprintPipeline(cfg.Batch, cfg.MicroBatch, n, cfg.Format, cfg.Checkpoint)
	label := fmt.Sprintf("PP bs=%d mb=%d %s", cfg.Batch, cfg.MicroBatch, cfg.Format)
	if err := cfg.CheckMemory(cl.GPU(), est, label); err != nil {
		return nil, err
	}

	mbs := cfg.Batch / cfg.MicroBatch
	// Per iteration: per stage one forward and one backward per
	// microbatch, the inter-stage transfers, and the optimizer.
	estimate := (cfg.Warmup + cfg.Iterations) * (2*n*mbs + 2*(n-1)*mbs + n)
	b := &builder{Builder: cfg.NewBuilder(cl, estimate), cfg: cfg, n: n}
	b.prepare()
	return b.Plan(cfg.Warmup, cfg.Iterations, b.buildIteration)
}

type builder struct {
	*exec.Builder
	cfg strategy.Params
	n   int

	// Overlapped-mode link streams (nil in sequential mode).
	fwdLink []*sim.Stream // fwdLink[s]: transfers stage s -> s+1
	bwdLink []*sim.Stream // bwdLink[s]: transfers stage s+1 -> s

	fwdOp    []exec.Op // per stage, pre-boxed fused kernels
	bwdOp    []exec.Op
	optOp    []exec.Op
	actBytes float64
}

// prepare builds the link streams and the per-stage fused kernel
// descriptors.
func (b *builder) prepare() {
	m := b.cfg.Model
	b.fwdLink = make([]*sim.Stream, b.n-1)
	b.bwdLink = make([]*sim.Stream, b.n-1)
	if !b.Sequential() {
		for s := range b.fwdLink {
			b.fwdLink[s] = b.Eng.NewStream(fmt.Sprintf("link.fwd.%d", s), s)
			b.bwdLink[s] = b.Eng.NewStream(fmt.Sprintf("link.bwd.%d", s), s+1)
		}
	}

	micro := b.cfg.MicroBatch
	layers := splitLayers(m.Layers, b.n)
	headF := m.HeadKernels(micro, b.cfg.Format, b.cfg.MatrixUnits, true)
	headB := m.HeadKernels(micro, b.cfg.Format, b.cfg.MatrixUnits, false)
	layerF := m.ForwardLayerKernels(micro, b.cfg.Format, b.cfg.MatrixUnits)
	layerB := m.BackwardLayerKernels(micro, b.cfg.Format, b.cfg.MatrixUnits, b.cfg.Checkpoint)
	for s := 0; s < b.n; s++ {
		nF, nB := layers[s]*len(layerF), layers[s]*len(layerB)
		if s == 0 {
			nF, nB = nF+1, nB+1
		}
		if s == b.n-1 {
			nF, nB = nF+len(headF)-1, nB+2
		}
		fParts := make([]kernels.Desc, 0, nF)
		bParts := make([]kernels.Desc, 0, nB)
		if s == 0 {
			fParts = append(fParts, headF[0]) // embedding lookup
		}
		for l := 0; l < layers[s]; l++ {
			fParts = append(fParts, layerF...)
		}
		if s == b.n-1 {
			fParts = append(fParts, headF[1:]...) // LM head + loss
			bParts = append(bParts, headB[:2]...) // LM head gradients
		}
		for l := 0; l < layers[s]; l++ {
			bParts = append(bParts, layerB...)
		}
		if s == 0 {
			bParts = append(bParts, headB[2]) // embedding gradient scatter
		}
		b.fwdOp = append(b.fwdOp, b.KernelOp(kernels.Fuse(fmt.Sprintf("fwd.stage%d", s), fParts...)))
		b.bwdOp = append(b.bwdOp, b.KernelOp(kernels.Fuse(fmt.Sprintf("bwd.stage%d", s), bParts...)))
		stageParams := float64(layers[s])*m.ParamsPerLayer() + m.EmbedParams()/float64(b.n)
		b.optOp = append(b.optOp, b.KernelOp(m.OptimizerKernel(stageParams)))
	}
	b.actBytes = float64(micro) * float64(m.SeqLen) * float64(m.Hidden) * float64(b.cfg.Format.Bytes())
}

// splitLayers distributes layers over stages as evenly as possible.
func splitLayers(layers, stages int) []int {
	out := make([]int, stages)
	base := layers / stages
	rem := layers % stages
	for s := range out {
		out[s] = base
		if s < rem {
			out[s]++
		}
	}
	return out
}

// xferKey identifies a transfer between stages for one microbatch.
type xferKey struct {
	link int // stage index of the lower endpoint (link s connects s and s+1)
	fwd  bool
	mb   int
}

// gateHolder defers binding a transfer to its producer task (the producer
// may be created after the consumer references the transfer).
type gateHolder struct {
	task *sim.Task
}

// Done implements collective.Gate.
func (g *gateHolder) Done() bool { return g.task != nil && g.task.Done() }

// buildIteration appends one training iteration.
func (b *builder) buildIteration(it int) {
	m := b.cfg.Batch / b.cfg.MicroBatch

	xfers := make(map[xferKey]*sim.Task)
	gates := make(map[xferKey]*gateHolder)
	getXfer := func(k xferKey) *sim.Task {
		if t, ok := xfers[k]; ok {
			return t
		}
		src, dst, dir, link := k.link, k.link+1, "fwd", b.fwdLink[k.link]
		if !k.fwd {
			src, dst, dir, link = k.link+1, k.link, "bwd", b.bwdLink[k.link]
		}
		name := fmt.Sprintf("it%d.send.%s.s%d.mb%d", it, dir, k.link, k.mb)
		cd := collective.Desc{Op: collective.SendRecv, Bytes: b.actBytes, N: 2, Src: src, Dst: dst}
		if !b.Sequential() {
			// Overlapped transfers are posted early: the kernel becomes
			// resident at its queue slot and spins until the producer
			// (set via setProducer) finishes.
			g := &gateHolder{}
			gates[k] = g
			cd.Gate = g
		}
		t := b.Collective(name, cd, link, src)
		xfers[k] = t
		return t
	}
	setProducer := func(k xferKey, producer *sim.Task, xfer *sim.Task) {
		if b.Sequential() {
			xfer.After(producer)
			return
		}
		gates[k].task = producer
	}

	lastB := make([]*sim.Task, b.n)
	fwdTask := make([][]*sim.Task, b.n)
	for s := range fwdTask {
		fwdTask[s] = make([]*sim.Task, m)
	}
	// prevCompute tracks each stage's two latest compute ops; in
	// overlapped mode a receive is posted (becomes a resident, spinning
	// kernel) two schedule slots ahead, so the transfer for the next
	// operation overlaps the current one — Megatron's overlap_p2p_comm
	// behaviour.
	prevCompute := make([][2]*sim.Task, b.n)
	for s := range prevCompute {
		prevCompute[s] = [2]*sim.Task{b.Last[s], b.Last[s]}
	}
	pushCompute := func(s int, t *sim.Task) {
		prevCompute[s] = [2]*sim.Task{prevCompute[s][1], t}
	}
	// Receives are posted two schedule slots ahead, so each transfer's
	// kernel is resident through the consumer's preceding compute op —
	// Megatron's overlap_p2p_comm behaviour, and the source of pipeline
	// parallelism's compute-communication co-residency.
	postRecv := func(recv *sim.Task, s int) {
		if b.Sequential() {
			b.Order(recv, s)
			return
		}
		recv.After(prevCompute[s][0])
	}

	for s := 0; s < b.n; s++ {
		for _, o := range stageSchedule(b.Sequential(), s, b.n, m) {
			if o.fwd {
				var recv *sim.Task
				if s > 0 {
					recv = getXfer(xferKey{link: s - 1, fwd: true, mb: o.mb})
					postRecv(recv, s)
				}
				t := b.ComputeOn(fmt.Sprintf("it%d.fwd.s%d.mb%d", it, s, o.mb), b.fwdOp[s], s)
				t.After(recv, b.Last[s])
				fwdTask[s][o.mb] = t
				pushCompute(s, t)
				if s < b.n-1 {
					k := xferKey{link: s, fwd: true, mb: o.mb}
					send := getXfer(k)
					setProducer(k, t, send)
					b.Order(send, s)
				}
			} else {
				var recv *sim.Task
				if s < b.n-1 {
					recv = getXfer(xferKey{link: s, fwd: false, mb: o.mb})
					postRecv(recv, s)
				}
				t := b.ComputeOn(fmt.Sprintf("it%d.bwd.s%d.mb%d", it, s, o.mb), b.bwdOp[s], s)
				t.After(recv, fwdTask[s][o.mb])
				lastB[s] = t
				pushCompute(s, t)
				if s > 0 {
					k := xferKey{link: s - 1, fwd: false, mb: o.mb}
					send := getXfer(k)
					setProducer(k, t, send)
					b.Order(send, s)
				}
			}
		}
	}

	// Per-stage optimizer step after the stage's last backward.
	for s := 0; s < b.n; s++ {
		t := b.ComputeOn(fmt.Sprintf("it%d.opt.s%d", it, s), b.optOp[s], s)
		t.After(lastB[s])
		b.Last[s] = t
	}
}
