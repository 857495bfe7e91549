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
	"overlapsim/internal/model"
	"overlapsim/internal/sim"
	"overlapsim/internal/strategy"
)

// Schedule selects the pipeline schedule for overlapped execution.
type Schedule int

// Schedules.
const (
	// OneFOneB is the 1F1B (PipeDream-flush) schedule.
	OneFOneB Schedule = iota
	// GPipe runs all forwards then all backwards.
	GPipe
)

// String returns the schedule name.
func (s Schedule) String() string {
	switch s {
	case OneFOneB:
		return "1F1B"
	case GPipe:
		return "GPipe"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Strategy implements strategy.Strategy for pipeline parallelism. The
// zero value schedules 1F1B in overlapped mode; a custom instance can
// carry a different overlapped-mode schedule.
type Strategy struct {
	// Schedule selects the overlapped-mode schedule (sequential mode
	// always runs the blocking GPipe wavefront).
	Schedule Schedule
}

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
func (s Strategy) Build(cl *gpu.Cluster, p strategy.Params) (*exec.Plan, error) {
	return BuildSchedule(cl, p, s.Schedule)
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

// stageSchedule returns the op order of stage s.
func stageSchedule(sched Schedule, s, nStages, m int) []op {
	var ops []op
	switch sched {
	case GPipe:
		for j := 0; j < m; j++ {
			ops = append(ops, op{fwd: true, mb: j})
		}
		for j := 0; j < m; j++ {
			ops = append(ops, op{fwd: false, mb: j})
		}
	default: // 1F1B
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
	}
	return ops
}

// Build constructs the multi-iteration pipeline task graph on a fresh
// engine bound to the cluster with the default 1F1B overlapped schedule.
func Build(cl *gpu.Cluster, p strategy.Params) (*exec.Plan, error) {
	return BuildSchedule(cl, p, OneFOneB)
}

// BuildSchedule is Build with an explicit overlapped-mode schedule.
func BuildSchedule(cl *gpu.Cluster, cfg strategy.Params, sched Schedule) (*exec.Plan, error) {
	cfg, err := withDefaults(cfg)
	if err != nil {
		return nil, err
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	g := cl.GPU()
	n := cl.N()
	if n < 2 {
		return nil, fmt.Errorf("pipeline: need at least 2 stages, have %d GPUs", n)
	}
	if cfg.Model.Layers < n {
		return nil, fmt.Errorf("pipeline: %d layers cannot fill %d stages", cfg.Model.Layers, n)
	}
	if !cfg.SkipMemoryCheck {
		est := cfg.Model.FootprintPipeline(cfg.Batch, cfg.MicroBatch, n, cfg.Format, cfg.Checkpoint)
		if est.Total() > g.MemBytes() {
			return nil, &model.ErrOOM{
				Model:     fmt.Sprintf("%s (PP bs=%d mb=%d %s)", cfg.Model.Name, cfg.Batch, cfg.MicroBatch, cfg.Format),
				GPU:       g.Name,
				NeedBytes: est.Total(),
				HaveBytes: g.MemBytes(),
			}
		}
	}

	eng := sim.NewEngine(cl)
	eng.AddObserver(cl)

	total := cfg.Warmup + cfg.Iterations
	mbs := cfg.Batch / cfg.MicroBatch
	// Per iteration: per stage one forward and one backward per
	// microbatch, the inter-stage transfers, and the optimizer.
	estimate := total * (2*n*mbs + 2*(n-1)*mbs + n)
	b := &builder{cfg: cfg, sched: sched, eng: eng, cl: cl, n: n,
		batch: exec.NewBatch(eng, estimate)}
	b.prepare()
	plan := &exec.Plan{Engine: eng, Cluster: cl, Warmup: cfg.Warmup, Symmetry: exec.SymmetryNone}
	for it := 0; it < total; it++ {
		plan.Iterations = append(plan.Iterations, b.buildIteration(it))
	}
	return plan, nil
}

type builder struct {
	cfg   strategy.Params
	sched Schedule
	eng   *sim.Engine
	cl    *gpu.Cluster
	batch *exec.Batch
	n     int

	computeS []*sim.Stream
	fwdLink  []*sim.Stream // fwdLink[s]: transfers stage s -> s+1
	bwdLink  []*sim.Stream // bwdLink[s]: transfers stage s+1 -> s
	chain    *exec.Chain
	prep     *collective.Preparer

	fwdOp    []exec.Op // per stage, pre-boxed fused kernels
	bwdOp    []exec.Op
	optOp    []exec.Op
	actBytes float64

	prevIterEnd []*sim.Task
}

func (b *builder) sequential() bool { return b.cfg.Mode == exec.Sequential }

// prepare builds streams and the per-stage fused kernel descriptors.
func (b *builder) prepare() {
	m := b.cfg.Model
	for d := 0; d < b.n; d++ {
		b.computeS = append(b.computeS, b.eng.NewStream(fmt.Sprintf("compute%d", d), d))
	}
	if b.sequential() {
		b.chain = exec.NewChain()
	} else {
		for s := 0; s < b.n-1; s++ {
			b.fwdLink = append(b.fwdLink, b.eng.NewStream(fmt.Sprintf("link.fwd.%d", s), s))
			b.bwdLink = append(b.bwdLink, b.eng.NewStream(fmt.Sprintf("link.bwd.%d", s), s+1))
		}
	}
	b.prevIterEnd = make([]*sim.Task, b.n)

	micro := b.cfg.MicroBatch
	layers := splitLayers(m.Layers, b.n)
	headF := m.HeadKernels(micro, b.cfg.Format, b.cfg.MatrixUnits, true)
	headB := m.HeadKernels(micro, b.cfg.Format, b.cfg.MatrixUnits, false)
	g := b.cl.GPU()
	for s := 0; s < b.n; s++ {
		var fParts, bParts []kernels.Desc
		if s == 0 {
			fParts = append(fParts, headF[0]) // embedding lookup
		}
		for l := 0; l < layers[s]; l++ {
			fParts = append(fParts, m.ForwardLayerKernels(micro, b.cfg.Format, b.cfg.MatrixUnits)...)
		}
		if s == b.n-1 {
			fParts = append(fParts, headF[1:]...) // LM head + loss
			bParts = append(bParts, headB[:2]...) // LM head gradients
		}
		for l := 0; l < layers[s]; l++ {
			bParts = append(bParts, m.BackwardLayerKernels(micro, b.cfg.Format, b.cfg.MatrixUnits, b.cfg.Checkpoint)...)
		}
		if s == 0 {
			bParts = append(bParts, headB[2]) // embedding gradient scatter
		}
		b.fwdOp = append(b.fwdOp, exec.KernelOp(kernels.Fuse(fmt.Sprintf("fwd.stage%d", s), fParts...), g))
		b.bwdOp = append(b.bwdOp, exec.KernelOp(kernels.Fuse(fmt.Sprintf("bwd.stage%d", s), bParts...), g))
		stageParams := float64(layers[s])*m.ParamsPerLayer() + m.EmbedParams()/float64(b.n)
		b.optOp = append(b.optOp, exec.KernelOp(m.OptimizerKernel(stageParams), g))
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

// buildIteration appends one training iteration and returns its tasks.
func (b *builder) buildIteration(it int) []*sim.Task {
	start := len(b.eng.Tasks())
	m := b.cfg.Batch / b.cfg.MicroBatch

	xfers := make(map[xferKey]*sim.Task)
	gates := make(map[xferKey]*gateHolder)
	getXfer := func(k xferKey) *sim.Task {
		if t, ok := xfers[k]; ok {
			return t
		}
		src, dst := k.link, k.link+1
		name := fmt.Sprintf("it%d.send.fwd.s%d.mb%d", it, k.link, k.mb)
		if !k.fwd {
			src, dst = k.link+1, k.link
			name = fmt.Sprintf("it%d.send.bwd.s%d.mb%d", it, k.link, k.mb)
		}
		cd := collective.Desc{Name: name, Op: collective.SendRecv, Bytes: b.actBytes, N: 2, Src: src, Dst: dst}
		if b.prep == nil {
			b.prep = collective.NewPreparer(b.cl.Fabric())
		}
		cd, work := b.prep.Prepare(cd)
		var t *sim.Task
		if b.sequential() {
			s := b.eng.NewStream("seq."+name, src)
			t = b.eng.NewTask(name, sim.KindComm, work, cd, s)
		} else {
			// Overlapped transfers are posted early: the kernel becomes
			// resident at its queue slot and spins until the producer
			// (set via setProducer) finishes.
			g := &gateHolder{}
			gates[k] = g
			cd.Gate = g
			if k.fwd {
				t = b.eng.NewTask(name, sim.KindComm, work, cd, b.fwdLink[k.link])
			} else {
				t = b.eng.NewTask(name, sim.KindComm, work, cd, b.bwdLink[k.link])
			}
		}
		xfers[k] = t
		return t
	}
	setProducer := func(k xferKey, producer *sim.Task, xfer *sim.Task) {
		if b.sequential() {
			xfer.After(producer)
			return
		}
		gates[k].task = producer
	}

	sched := b.sched
	if b.sequential() {
		sched = GPipe
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
		prevCompute[s] = [2]*sim.Task{b.prevIterEnd[s], b.prevIterEnd[s]}
	}
	pushCompute := func(s int, t *sim.Task) {
		prevCompute[s] = [2]*sim.Task{prevCompute[s][1], t}
	}
	// Receives are posted two schedule slots ahead, so each transfer's
	// kernel is resident through the consumer's preceding compute op —
	// Megatron's overlap_p2p_comm behaviour, and the source of pipeline
	// parallelism's compute-communication co-residency.
	postRecv := func(recv *sim.Task, s int, fwd bool) {
		if b.sequential() {
			b.chain.Order(recv, s)
			return
		}
		if p := prevCompute[s][0]; p != nil {
			recv.After(p)
		}
	}

	for s := 0; s < b.n; s++ {
		for _, o := range stageSchedule(sched, s, b.n, m) {
			if o.fwd {
				var recv *sim.Task
				if s > 0 {
					recv = getXfer(xferKey{link: s - 1, fwd: true, mb: o.mb})
					postRecv(recv, s, true)
				}
				t := b.eng.NewTask(fmt.Sprintf("it%d.fwd.s%d.mb%d", it, s, o.mb),
					sim.KindCompute, b.fwdOp[s].Work, b.fwdOp[s].Payload, b.computeS[s])
				if recv != nil {
					t.After(recv)
				}
				if p := b.prevIterEnd[s]; p != nil {
					t.After(p)
				}
				if b.sequential() {
					b.chain.Order(t, s)
				}
				fwdTask[s][o.mb] = t
				pushCompute(s, t)
				if s < b.n-1 {
					k := xferKey{link: s, fwd: true, mb: o.mb}
					send := getXfer(k)
					setProducer(k, t, send)
					if b.sequential() {
						b.chain.Order(send, s)
					}
				}
			} else {
				var recv *sim.Task
				if s < b.n-1 {
					recv = getXfer(xferKey{link: s, fwd: false, mb: o.mb})
					postRecv(recv, s, false)
				}
				t := b.eng.NewTask(fmt.Sprintf("it%d.bwd.s%d.mb%d", it, s, o.mb),
					sim.KindCompute, b.bwdOp[s].Work, b.bwdOp[s].Payload, b.computeS[s])
				if recv != nil {
					t.After(recv)
				}
				t.After(fwdTask[s][o.mb])
				if b.sequential() {
					b.chain.Order(t, s)
				}
				lastB[s] = t
				pushCompute(s, t)
				if s > 0 {
					k := xferKey{link: s - 1, fwd: false, mb: o.mb}
					send := getXfer(k)
					setProducer(k, t, send)
					if b.sequential() {
						b.chain.Order(send, s)
					}
				}
			}
		}
	}

	// Per-stage optimizer step after the stage's last backward.
	opts := make([]*sim.Task, b.n)
	for s := 0; s < b.n; s++ {
		t := b.eng.NewTask(fmt.Sprintf("it%d.opt.s%d", it, s),
			sim.KindCompute, b.optOp[s].Work, b.optOp[s].Payload, b.computeS[s])
		t.After(lastB[s])
		if b.sequential() {
			b.chain.Order(t, s)
		}
		opts[s] = t
	}
	b.prevIterEnd = opts

	return b.eng.Tasks()[start:]
}
