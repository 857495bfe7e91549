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
	est := p.Model.FootprintTP(local, d, p.Format, p.Checkpoint)
	if err := p.CheckMemory(cl.GPU(), est, fmt.Sprintf("TP d=%d bs=%d %s", d, p.Batch, p.Format)); err != nil {
		return nil, err
	}

	L := p.Model.Layers
	// Per iteration: per group, L forward layers of 2 collectives + 2×d
	// computes, the head block, L backward layers of 2 collectives + 2×d
	// computes, plus cross-group reductions and the optimizer.
	estimate := (p.Warmup + p.Iterations) * (groups*(L*(4+4*d)+6+4*d) + L + 2)
	b := &builder{Builder: p.NewBuilder(cl, estimate), cfg: p, d: d, groups: groups, local: local}
	b.tpS = make([]*sim.Stream, groups)
	if !b.Sequential() {
		for gr := range b.tpS {
			b.tpS[gr] = b.Eng.NewStream(fmt.Sprintf("comm.tp.%d", gr), gr*d)
		}
		if groups > 1 {
			b.dpS = b.Eng.NewStream("comm.dp", 0)
		}
	}
	return b.Plan(p.Warmup, p.Iterations, b.buildIteration)
}

type builder struct {
	*exec.Builder
	cfg    strategy.Params
	d      int // tensor-parallel degree (GPUs per group)
	groups int // data-parallel group count (n/d)
	local  int // per-group batch

	// Overlapped-mode communication streams (nil in sequential mode).
	tpS []*sim.Stream // per-group tensor-parallel collective stream
	dpS *sim.Stream   // cross-group gradient all-reduce stream
}

// ranks returns the device indices of tensor-parallel group gr (shared,
// read-only).
func (b *builder) ranks(gr int) []int {
	lo, hi := gr*b.d, (gr+1)*b.d
	return b.Devices()[lo:hi:hi]
}

// newGroupColl creates one collective over tensor-parallel group gr.
func (b *builder) newGroupColl(name string, gr int, op collective.Op, bytes float64) *sim.Task {
	cd := collective.Desc{Op: op, Bytes: bytes, N: b.d, Ranks: b.ranks(gr)}
	return b.Collective(name, cd, b.tpS[gr], gr*b.d, b.ranks(gr)...)
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
	cd := collective.Desc{Op: collective.AllReduce, Bytes: bytes, N: b.groups, Ranks: b.Devices(), Group: group}
	return b.Collective(name, cd, b.dpS, 0, b.Devices()...)
}

// newGroupCompute creates one compute task per device of group gr.
func (b *builder) newGroupCompute(name string, gr int, op exec.Op) []*sim.Task {
	return b.Compute(name, op, gr*b.d, (gr+1)*b.d)
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
	return descs{
		attnF:      b.KernelOp(shard(kernels.Fuse("fwd.attn", attnKs...), b.d)),
		mlpF:       b.KernelOp(shard(kernels.Fuse("fwd.mlp", mlpKs...), b.d)),
		dgrad:      b.KernelOp(shard(kernels.Fuse("bwd.dgrad", dgradKs...), b.d)),
		wgrad:      b.KernelOp(shard(kernels.Fuse("bwd.wgrad", wgradKs...), b.d)),
		embedF:     b.KernelOp(shard(kernels.Fuse("fwd.embed", headFwd[0]), b.d)),
		headF:      b.KernelOp(shard(kernels.Fuse("fwd.lmhead", headFwd[1:]...), b.d)),
		headB:      b.KernelOp(shard(kernels.Fuse("bwd.head", headBwd...), b.d)),
		opt:        b.KernelOp(m.OptimizerKernel(m.TotalParams() / float64(b.d))),
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
func (b *builder) buildIteration(it int) {
	L := b.cfg.Model.Layers
	ds := b.makeDescs()

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
		b.After(embed, b.Last[gr*b.d:(gr+1)*b.d]...)
		prevC[gr] = embed
		for l := 0; l < L; l++ {
			ag1 := b.newGroupColl(b.Name(agAttnP, l), gr, collective.AllGather, ds.actBytes)
			b.After([]*sim.Task{ag1}, prevC[gr]...)
			ag1.After(prevGate[gr])
			attn := b.newGroupCompute(b.Name(fwdAttnP, l), gr, ds.attnF)
			b.After(attn, ag1)
			b.Pairwise(attn, prevC[gr])
			rs1 := b.newGroupColl(b.Name(rsAttnP, l), gr, collective.ReduceScatter, ds.actBytes)
			b.After([]*sim.Task{rs1}, attn...)
			ag2 := b.newGroupColl(b.Name(agMlpP, l), gr, collective.AllGather, ds.actBytes)
			ag2.After(rs1)
			mlp := b.newGroupCompute(b.Name(fwdMlpP, l), gr, ds.mlpF)
			b.After(mlp, ag2)
			b.Pairwise(mlp, attn)
			rs2 := b.newGroupColl(b.Name(rsMlpP, l), gr, collective.ReduceScatter, ds.actBytes)
			b.After([]*sim.Task{rs2}, mlp...)
			prevC[gr], prevGate[gr] = mlp, rs2
		}

		// LM head: gather the last hidden states, compute the sharded
		// logits + loss, and all-reduce the loss statistics (vocab
		// parallelism's softmax denominator exchange).
		agH := b.newGroupColl(tag+".ag.head", gr, collective.AllGather, ds.actBytes)
		b.After([]*sim.Task{agH}, prevC[gr]...)
		agH.After(prevGate[gr])
		hf := b.newGroupCompute(tag+".fwd.lmhead", gr, ds.headF)
		b.After(hf, agH)
		b.Pairwise(hf, prevC[gr])
		arLoss := b.newGroupColl(tag+".ar.loss", gr, collective.AllReduce, ds.lossBytes)
		b.After([]*sim.Task{arLoss}, hf...)
		hb := b.newGroupCompute(tag+".bwd.head", gr, ds.headB)
		b.After(hb, arLoss)
		b.Pairwise(hb, hf)
		headBT[gr] = hb
		rsH := b.newGroupColl(tag+".rs.head", gr, collective.ReduceScatter, ds.actBytes)
		b.After([]*sim.Task{rsH}, hb...)
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
			agB := b.newGroupColl(b.Name(agBwdP[gr], l), gr, collective.AllGather, ds.actBytes)
			agB.After(prevGate[gr])
			dg := b.newGroupCompute(b.Name(dgradP[gr], l), gr, ds.dgrad)
			b.After(dg, agB, prevGate[gr])
			b.Pairwise(dg, prevC[gr])
			rsB := b.newGroupColl(b.Name(rsBwdP[gr], l), gr, collective.ReduceScatter, ds.actBytes)
			b.After([]*sim.Task{rsB}, dg...)
			wg := b.newGroupCompute(b.Name(wgradP[gr], l), gr, ds.wgrad)
			b.Pairwise(wg, dg)
			lastWg[gr] = wg
			prevC[gr], prevGate[gr] = dg, rsB
		}
		if b.groups > 1 {
			ar := b.newDPAllReduce(b.Name(arDpPrefix, l), ds.layerShard)
			for gr := 0; gr < b.groups; gr++ {
				b.After([]*sim.Task{ar}, lastWg[gr]...)
			}
			dpARs = append(dpARs, ar)
		}
	}
	if b.groups > 1 {
		ar := b.newDPAllReduce(fmt.Sprintf("it%d.ar.dp.embed", it), ds.embedShard)
		for gr := 0; gr < b.groups; gr++ {
			b.After([]*sim.Task{ar}, lastWg[gr]...)
			b.After([]*sim.Task{ar}, headBT[gr]...)
		}
		dpARs = append(dpARs, ar)
	}

	// Optimizer over the local 1/d shard, gated on the group's gradient
	// chain, its last weight gradients, and every cross-group reduction.
	for gr := 0; gr < b.groups; gr++ {
		opt := b.newGroupCompute(fmt.Sprintf("it%d.g%d.opt", it, gr), gr, ds.opt)
		b.After(opt, prevGate[gr])
		b.Pairwise(opt, prevC[gr])
		b.Pairwise(opt, lastWg[gr])
		b.After(opt, dpARs...)
		copy(b.Last[gr*b.d:], opt)
	}
}
