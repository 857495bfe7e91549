// Package tp implements Megatron-style tensor parallelism with sequence
// parallelism — the worst-case overlap scenario the related work targets
// (Rashidi et al.; Cui & Pericàs): every transformer block's GEMMs are
// sharded 1/d across the tensor-parallel group, and the all-gathers that
// materialize activations before each sharded block half plus the
// reduce-scatters that re-shard its output sit directly on the critical
// path. Unlike FSDP's prefetchable parameter gathers or DDP's deferred
// gradient buckets, these collectives cannot be hidden behind independent
// compute in the forward pass; the only genuine overlap window is the
// backward pass, where weight-gradient GEMMs proceed while the next
// layer's activation gather and input-gradient reduce-scatter occupy the
// communication stream.
//
// When the TP degree d is smaller than the node, the n/d tensor-parallel
// groups are data-parallel replicas: each group trains its slice of the
// batch and per-layer gradient shards are all-reduced across groups,
// overlapping the remaining backward pass like DDP buckets.
//
// The package registers itself with the strategy registry under "tp" —
// without a single edit to internal/core, which resolves it purely
// through the registry.
package tp

import (
	"fmt"
	"strings"

	"overlapsim/internal/collective"
	"overlapsim/internal/exec"
	"overlapsim/internal/gpu"
	"overlapsim/internal/kernels"
	"overlapsim/internal/model"
	"overlapsim/internal/sim"
	"overlapsim/internal/strategy"
)

// Strategy implements strategy.Strategy for tensor parallelism.
type Strategy struct{}

func init() { strategy.Register(Strategy{}) }

// Name implements strategy.Strategy.
func (Strategy) Name() string { return "tp" }

// Describe implements strategy.Strategy.
func (Strategy) Describe() strategy.Info {
	return strategy.Info{
		Name:     "tp",
		Display:  "TP",
		Summary:  "tensor parallelism (Megatron, sequence-parallel): per-layer sharded GEMMs with all-gather/reduce-scatter on the critical path",
		Knobs:    []string{"tp_degree"},
		TPDegree: true,
	}
}

// Build implements strategy.Strategy.
func (Strategy) Build(cl *gpu.Cluster, p strategy.Params) (*exec.Plan, error) {
	return Build(cl, p)
}

// CanonicalParams implements strategy.Canonicalizer: the implicit TP
// degree default is the whole node.
func (Strategy) CanonicalParams(p strategy.Params, gpus int) strategy.Params {
	if p.TPDegree <= 0 {
		p.TPDegree = gpus
	}
	return p
}

// withDefaults resolves the implicit defaults; the degree default has a
// single source in CanonicalParams so runtime behavior and fingerprint
// canonicalization cannot drift apart.
func withDefaults(p strategy.Params, n int) strategy.Params {
	return Strategy{}.CanonicalParams(p.WithCommonDefaults(), n)
}

// Build constructs the multi-iteration tensor-parallel task graph on a
// fresh engine bound to the cluster.
func Build(cl *gpu.Cluster, p strategy.Params) (*exec.Plan, error) {
	n := cl.N()
	if p.TPDegree < 0 {
		return nil, fmt.Errorf("tp: invalid degree %d", p.TPDegree)
	}
	p = withDefaults(p, n)
	if err := p.Model.Validate(); err != nil {
		return nil, err
	}
	d := p.TPDegree
	if d < 2 {
		return nil, fmt.Errorf("tp: degree %d needs at least 2 GPUs per group", d)
	}
	if n%d != 0 {
		return nil, fmt.Errorf("tp: degree %d does not divide %d GPUs", d, n)
	}
	if p.Model.Heads%d != 0 {
		return nil, fmt.Errorf("tp: degree %d does not divide %d attention heads", d, p.Model.Heads)
	}
	groups := n / d
	if p.Batch%groups != 0 {
		return nil, fmt.Errorf("tp: batch %d not divisible by %d data-parallel groups", p.Batch, groups)
	}
	local := p.Batch / groups // per-group batch, sharded 1/d inside the group
	g := cl.GPU()
	if !p.SkipMemoryCheck {
		est := p.Model.FootprintTP(local, d, p.Format, p.Checkpoint)
		if est.Total() > g.MemBytes() {
			return nil, &model.ErrOOM{
				Model:     fmt.Sprintf("%s (TP d=%d bs=%d %s)", p.Model.Name, d, p.Batch, p.Format),
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
	// Per iteration: per group, L forward layers of 2 collectives + 2×d
	// computes, the head block, L backward layers of 2 collectives + 2×d
	// computes, plus cross-group reductions and the optimizer.
	estimate := total * (groups*(L*(4+4*d)+6+4*d) + L + 2)
	b := &builder{cfg: p, eng: eng, cl: cl, n: n, d: d, groups: groups, local: local,
		batch: exec.NewBatch(eng, estimate)}
	b.prepare()
	plan := &exec.Plan{Engine: eng, Cluster: cl, Warmup: p.Warmup, Symmetry: exec.SymmetryRanks}
	for it := 0; it < p.Warmup+p.Iterations; it++ {
		plan.Iterations = append(plan.Iterations, b.buildIteration(it))
	}
	return plan, nil
}

type builder struct {
	cfg    strategy.Params
	eng    *sim.Engine
	cl     *gpu.Cluster
	batch  *exec.Batch
	n      int
	d      int // tensor-parallel degree (GPUs per group)
	groups int // data-parallel group count (n/d)
	local  int // per-group batch

	computeS []*sim.Stream
	tpS      []*sim.Stream // per-group tensor-parallel collective stream
	dpS      *sim.Stream   // cross-group gradient all-reduce stream
	chain    *exec.Chain
	prep     *collective.Preparer

	prevIterEnd []*sim.Task
}

func (b *builder) sequential() bool { return b.cfg.Mode == exec.Sequential }

func (b *builder) prepare() {
	for dev := 0; dev < b.n; dev++ {
		b.computeS = append(b.computeS, b.eng.NewStream(fmt.Sprintf("compute%d", dev), dev))
	}
	if b.sequential() {
		b.chain = exec.NewChain()
	} else {
		for gr := 0; gr < b.groups; gr++ {
			b.tpS = append(b.tpS, b.eng.NewStream(fmt.Sprintf("comm.tp.%d", gr), gr*b.d))
		}
		if b.groups > 1 {
			b.dpS = b.eng.NewStream("comm.dp", 0)
		}
	}
	b.prevIterEnd = make([]*sim.Task, b.n)
}

// ranks returns the device indices of tensor-parallel group gr.
func (b *builder) ranks(gr int) []int {
	out := make([]int, b.d)
	for i := range out {
		out[i] = gr*b.d + i
	}
	return out
}

func (b *builder) allDevices() []int {
	devs := make([]int, b.n)
	for i := range devs {
		devs[i] = i
	}
	return devs
}

// newGroupColl creates one collective over tensor-parallel group gr.
func (b *builder) newGroupColl(name string, gr int, op collective.Op, bytes float64) *sim.Task {
	cd := collective.Desc{Name: name, Op: op, Bytes: bytes, N: b.d, Ranks: b.ranks(gr)}
	if err := cd.Validate(); err != nil {
		//overlaplint:allow nopanic builder invariant: the descriptor is derived from an already-validated config, so Validate failing here is a bug
		panic(err)
	}
	if b.prep == nil {
		b.prep = collective.NewPreparer(b.cl.Fabric())
	}
	cd, work := b.prep.Prepare(cd)
	if b.sequential() {
		s := b.eng.NewStream("seqcomm."+name, gr*b.d)
		t := b.batch.Task(name, sim.KindComm, work, cd, s)
		b.chain.Order(t, b.ranks(gr)...)
		return t
	}
	return b.batch.Task(name, sim.KindComm, work, cd, b.tpS[gr])
}

// newDPAllReduce creates the cross-group gradient all-reduce: every rank
// participates in a groups-way ring with its peers; symmetric groups make
// it one fluid task occupying all devices. The explicit Group records
// the strided placement of one replica set — rank i of every TP group —
// so hierarchical fabrics cost the ring on the tiers it actually
// crosses (one peer per node when a TP group fills a node).
func (b *builder) newDPAllReduce(name string, bytes float64) *sim.Task {
	group := make([]int, b.groups)
	for i := range group {
		group[i] = i * b.d
	}
	cd := collective.Desc{Name: name, Op: collective.AllReduce, Bytes: bytes, N: b.groups, Ranks: b.allDevices(), Group: group}
	if err := cd.Validate(); err != nil {
		//overlaplint:allow nopanic builder invariant: the descriptor is derived from an already-validated config, so Validate failing here is a bug
		panic(err)
	}
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
	return b.batch.Task(name, sim.KindComm, work, cd, b.dpS)
}

// newGroupCompute creates one compute task per device of group gr.
func (b *builder) newGroupCompute(name string, gr int, op exec.Op) []*sim.Task {
	return b.batch.Compute(name, op, b.computeS[gr*b.d:(gr+1)*b.d], b.chain)
}

func after(ts []*sim.Task, deps ...*sim.Task) {
	for _, t := range ts {
		t.After(deps...)
	}
}

// shard scales a kernel descriptor to the 1/d slice one tensor-parallel
// rank executes: FLOPs and HBM traffic divide by d, and the
// output/reduction shape of the headline GEMM shrinks accordingly.
func shard(k kernels.Desc, d int) kernels.Desc {
	dd := float64(d)
	k.FLOPs /= dd
	k.Bytes /= dd
	if k.N > 0 {
		k.N /= dd
	}
	for i := range k.Parts {
		k.Parts[i] = shard(k.Parts[i], d)
	}
	return k
}

// split partitions a kernel sequence at the kernel with the given name.
func split(ks []kernels.Desc, name string) (head, tail []kernels.Desc) {
	for i, k := range ks {
		if k.Name == name {
			return ks[:i], ks[i:]
		}
	}
	return ks, nil
}

// partitionBackward separates the weight-gradient GEMMs — the only
// backward work independent of the inter-layer gradient chain, and thus
// TP's overlap window — from the recompute + data-gradient kernels.
func partitionBackward(ks []kernels.Desc) (dgrad, wgrad []kernels.Desc) {
	for _, k := range ks {
		if strings.Contains(k.Name, "wgrad") {
			wgrad = append(wgrad, k)
		} else {
			dgrad = append(dgrad, k)
		}
	}
	return dgrad, wgrad
}

// descs holds the per-layer fused kernel ops, sharded 1/d and pre-boxed
// for per-device fan-out.
type descs struct {
	attnF, mlpF  exec.Op // forward halves (split at ln2)
	dgrad, wgrad exec.Op // backward partition
	embedF       exec.Op
	headF, headB exec.Op
	opt          exec.Op
	actBytes     float64 // full (gathered) activation tensor bytes
	layerShard   float64 // per-rank layer gradient shard bytes
	embedShard   float64 // per-rank embedding gradient shard bytes
	lossBytes    float64 // loss-statistics all-reduce bytes
}

func (b *builder) makeDescs() descs {
	m := b.cfg.Model
	e := float64(b.cfg.Format.Bytes())
	fwd := m.ForwardLayerKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits)
	attnKs, mlpKs := split(fwd, "ln2")
	bwdKs := m.BackwardLayerKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits, b.cfg.Checkpoint)
	dgradKs, wgradKs := partitionBackward(bwdKs)
	headFwd := m.HeadKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits, true)
	headBwd := m.HeadKernels(b.local, b.cfg.Format, b.cfg.MatrixUnits, false)

	tokens := float64(b.local) * float64(m.SeqLen)
	g := b.cl.GPU()
	return descs{
		attnF:      exec.KernelOp(shard(kernels.Fuse("fwd.attn", attnKs...), b.d), g),
		mlpF:       exec.KernelOp(shard(kernels.Fuse("fwd.mlp", mlpKs...), b.d), g),
		dgrad:      exec.KernelOp(shard(kernels.Fuse("bwd.dgrad", dgradKs...), b.d), g),
		wgrad:      exec.KernelOp(shard(kernels.Fuse("bwd.wgrad", wgradKs...), b.d), g),
		embedF:     exec.KernelOp(shard(kernels.Fuse("fwd.embed", headFwd[0]), b.d), g),
		headF:      exec.KernelOp(shard(kernels.Fuse("fwd.lmhead", headFwd[1:]...), b.d), g),
		headB:      exec.KernelOp(shard(kernels.Fuse("bwd.head", headBwd...), b.d), g),
		opt:        exec.KernelOp(m.OptimizerKernel(m.TotalParams()/float64(b.d)), g),
		actBytes:   tokens * float64(m.Hidden) * e,
		layerShard: m.ParamsPerLayer() * e / float64(b.d),
		embedShard: m.EmbedParams() * e / float64(b.d),
		lossBytes:  tokens * e,
	}
}

// buildIteration appends one training iteration and returns its tasks.
// Per group and layer, forward runs AG→attn→RS→AG→mlp→RS with every
// collective on the critical path; backward runs AG→dgrad→RS with the
// weight-gradient GEMM overlapping the next layer's collectives, plus a
// cross-group all-reduce of the layer's gradient shard when the node
// holds several data-parallel groups.
func (b *builder) buildIteration(it int) []*sim.Task {
	start := len(b.eng.Tasks())
	L := b.cfg.Model.Layers
	ds := b.makeDescs()

	iterBarrier := func(t *sim.Task, gr int) {
		for _, dev := range b.ranks(gr) {
			if p := b.prevIterEnd[dev]; p != nil {
				t.After(p)
			}
		}
	}

	// Per-group chain state: the latest compute chunk (per rank) and the
	// latest critical-path collective of the group.
	prevC := make([][]*sim.Task, b.groups)
	prevGate := make([]*sim.Task, b.groups)
	headBT := make([][]*sim.Task, b.groups)

	for gr := 0; gr < b.groups; gr++ {
		tag := fmt.Sprintf("it%d.g%d", it, gr)
		agAttnP, fwdAttnP, rsAttnP := tag+".ag.attn.l", tag+".fwd.attn.l", tag+".rs.attn.l"
		agMlpP, fwdMlpP, rsMlpP := tag+".ag.mlp.l", tag+".fwd.mlp.l", tag+".rs.mlp.l"
		embed := b.newGroupCompute(tag+".fwd.embed", gr, ds.embedF)
		for _, t := range embed {
			iterBarrier(t, gr)
		}
		prevC[gr] = embed
		for l := 0; l < L; l++ {
			ag1 := b.newGroupColl(b.batch.Name(agAttnP, l), gr, collective.AllGather, ds.actBytes)
			after([]*sim.Task{ag1}, prevC[gr]...)
			ag1.After(prevGate[gr])
			attn := b.newGroupCompute(b.batch.Name(fwdAttnP, l), gr, ds.attnF)
			for i, t := range attn {
				t.After(ag1, prevC[gr][i])
			}
			rs1 := b.newGroupColl(b.batch.Name(rsAttnP, l), gr, collective.ReduceScatter, ds.actBytes)
			after([]*sim.Task{rs1}, attn...)
			ag2 := b.newGroupColl(b.batch.Name(agMlpP, l), gr, collective.AllGather, ds.actBytes)
			ag2.After(rs1)
			mlp := b.newGroupCompute(b.batch.Name(fwdMlpP, l), gr, ds.mlpF)
			for i, t := range mlp {
				t.After(ag2, attn[i])
			}
			rs2 := b.newGroupColl(b.batch.Name(rsMlpP, l), gr, collective.ReduceScatter, ds.actBytes)
			after([]*sim.Task{rs2}, mlp...)
			prevC[gr], prevGate[gr] = mlp, rs2
		}

		// LM head: gather the last hidden states, compute the sharded
		// logits + loss, and all-reduce the loss statistics (vocab
		// parallelism's softmax denominator exchange).
		agH := b.newGroupColl(tag+".ag.head", gr, collective.AllGather, ds.actBytes)
		after([]*sim.Task{agH}, prevC[gr]...)
		agH.After(prevGate[gr])
		hf := b.newGroupCompute(tag+".fwd.lmhead", gr, ds.headF)
		for i, t := range hf {
			t.After(agH, prevC[gr][i])
		}
		arLoss := b.newGroupColl(tag+".ar.loss", gr, collective.AllReduce, ds.lossBytes)
		after([]*sim.Task{arLoss}, hf...)
		hb := b.newGroupCompute(tag+".bwd.head", gr, ds.headB)
		for i, t := range hb {
			t.After(arLoss, hf[i])
		}
		headBT[gr] = hb
		rsH := b.newGroupColl(tag+".rs.head", gr, collective.ReduceScatter, ds.actBytes)
		after([]*sim.Task{rsH}, hb...)
		prevC[gr], prevGate[gr] = hb, rsH
	}

	// Backward, reverse layer order, groups in lockstep: per layer AG
	// (activation regather) → dgrad → RS (input gradients), the weight
	// gradient off the critical path, and the cross-group shard
	// all-reduce when data-parallel groups exist.
	lastWg := make([][]*sim.Task, b.groups)
	var dpARs []*sim.Task
	arDpPrefix := fmt.Sprintf("it%d.ar.dp.l", it)
	agBwdP := make([]string, b.groups)
	dgradP := make([]string, b.groups)
	rsBwdP := make([]string, b.groups)
	wgradP := make([]string, b.groups)
	for gr := 0; gr < b.groups; gr++ {
		tag := fmt.Sprintf("it%d.g%d", it, gr)
		agBwdP[gr], dgradP[gr] = tag+".ag.bwd.l", tag+".bwd.dgrad.l"
		rsBwdP[gr], wgradP[gr] = tag+".rs.bwd.l", tag+".bwd.wgrad.l"
	}
	for l := L - 1; l >= 0; l-- {
		for gr := 0; gr < b.groups; gr++ {
			agB := b.newGroupColl(b.batch.Name(agBwdP[gr], l), gr, collective.AllGather, ds.actBytes)
			agB.After(prevGate[gr])
			dg := b.newGroupCompute(b.batch.Name(dgradP[gr], l), gr, ds.dgrad)
			for i, t := range dg {
				t.After(agB, prevGate[gr], prevC[gr][i])
			}
			rsB := b.newGroupColl(b.batch.Name(rsBwdP[gr], l), gr, collective.ReduceScatter, ds.actBytes)
			after([]*sim.Task{rsB}, dg...)
			wg := b.newGroupCompute(b.batch.Name(wgradP[gr], l), gr, ds.wgrad)
			for i, t := range wg {
				t.After(dg[i])
			}
			lastWg[gr] = wg
			prevC[gr], prevGate[gr] = dg, rsB
		}
		if b.groups > 1 {
			ar := b.newDPAllReduce(b.batch.Name(arDpPrefix, l), ds.layerShard)
			for gr := 0; gr < b.groups; gr++ {
				after([]*sim.Task{ar}, lastWg[gr]...)
			}
			dpARs = append(dpARs, ar)
		}
	}
	if b.groups > 1 {
		ar := b.newDPAllReduce(fmt.Sprintf("it%d.ar.dp.embed", it), ds.embedShard)
		for gr := 0; gr < b.groups; gr++ {
			after([]*sim.Task{ar}, lastWg[gr]...)
			after([]*sim.Task{ar}, headBT[gr]...)
		}
		dpARs = append(dpARs, ar)
	}

	// Optimizer over the local 1/d shard, gated on the group's gradient
	// chain, its last weight gradients, and every cross-group reduction.
	for gr := 0; gr < b.groups; gr++ {
		opt := b.newGroupCompute(fmt.Sprintf("it%d.g%d.opt", it, gr), gr, ds.opt)
		for i, t := range opt {
			t.After(prevGate[gr], prevC[gr][i], lastWg[gr][i])
			t.After(dpARs...)
		}
		for i, dev := range b.ranks(gr) {
			b.prevIterEnd[dev] = opt[i]
		}
	}

	return b.eng.Tasks()[start:]
}
