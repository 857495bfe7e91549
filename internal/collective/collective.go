// Package collective implements cost models for the GPU collective
// communication operations used in distributed training — the NCCL/RCCL
// operations of §II-B: all-reduce, all-gather, reduce-scatter, broadcast,
// all-to-all and point-to-point send/receive.
//
// Collectives follow the standard ring algorithm α-β cost model: an
// operation over payload S on N ranks moves a well-defined number of wire
// bytes per rank in a fixed number of latency-bound steps. On a
// hierarchical (multi-node) fabric the cost decomposes per tier — an
// intra-node ring phase followed by an inter-node phase over the NIC
// tier, the NCCL hierarchical algorithms — and reduces exactly to the
// single-ring closed form on one node. On top of pure transfer time the
// package exposes the on-GPU resources a resident collective kernel
// consumes — SM/CU occupancy and HBM bandwidth — which is what couples
// communication to compute slowdown in the device model.
package collective

import (
	"fmt"
	"math"

	"overlapsim/internal/hw"
	"overlapsim/internal/topo"
)

// Op is a collective operation type.
type Op int

// Collective operations.
const (
	// AllReduce combines gradients across ranks (ring: reduce-scatter +
	// all-gather).
	AllReduce Op = iota
	// AllGather materializes a sharded tensor on every rank (FSDP
	// parameter gathering).
	AllGather
	// ReduceScatter reduces and shards a tensor across ranks (FSDP
	// gradient synchronization).
	ReduceScatter
	// Broadcast sends one rank's tensor to all ranks.
	Broadcast
	// AllToAll exchanges distinct shards between every pair of ranks
	// (mixture-of-experts routing).
	AllToAll
	// SendRecv is a point-to-point transfer between two ranks (pipeline
	// activations and gradients).
	SendRecv
)

// String returns the conventional name of the operation.
func (o Op) String() string {
	switch o {
	case AllReduce:
		return "all-reduce"
	case AllGather:
		return "all-gather"
	case ReduceScatter:
		return "reduce-scatter"
	case Broadcast:
		return "broadcast"
	case AllToAll:
		return "all-to-all"
	case SendRecv:
		return "send-recv"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Reducing reports whether the operation performs arithmetic reduction on
// the GPU (these occupy more SMs and generate more HBM traffic per wire
// byte — the "complex communication collectives" of Takeaway 1).
func (o Op) Reducing() bool {
	return o == AllReduce || o == ReduceScatter
}

// Gate abstracts a producer whose completion releases a posted
// communication kernel (satisfied by *sim.Task).
type Gate interface {
	// Done reports whether the producer has finished.
	Done() bool
}

// Desc describes one collective invocation.
type Desc struct {
	// Name is a diagnostic label.
	Name string
	// Op is the operation.
	Op Op
	// Bytes is the logical payload: the full (unsharded) tensor size for
	// AllReduce/AllGather/ReduceScatter/Broadcast, the per-rank buffer for
	// AllToAll, and the message size for SendRecv.
	Bytes float64
	// N is the number of ranks the collective algorithm runs over (2 for
	// SendRecv).
	N int
	// Ranks, when non-nil, lists the device indices the operation
	// occupies, overriding the default 0..N-1. Subgroup collectives
	// (tensor-parallel groups, data-parallel replica sets) use this; the
	// algorithm's cost still follows N, so a Desc may occupy more devices
	// than its group size when several symmetric groups run the same
	// operation as one fluid task.
	Ranks []int
	// Group, when non-nil, lists the device indices of one
	// representative algorithm group (length N). Hierarchical fabrics
	// read its placement to decide which tiers the ring crosses; it
	// defaults to the first N Ranks (or 0..N-1), which is right for
	// contiguous groups. Strided symmetric groups — tp's cross-group
	// gradient all-reduce, whose N peers sit one per TP group — must set
	// it, or a spanning collective would be costed entirely intra-node.
	Group []int
	// Src and Dst identify the endpoints of a SendRecv.
	Src, Dst int
	// Gate, when non-nil, marks the operation as posted early: the kernel
	// becomes resident (occupying SMs and serializing issue, as NCCL/RCCL
	// spin-wait kernels do) as soon as its queue slot opens, but moves no
	// data until the gate completes. Pipeline receives use this — it is
	// how communication kernel time comes to overlap computation in the
	// profiles the paper analyzes.
	Gate Gate

	// wireBW and participants cache the fabric-dependent quantities the
	// device model reads on every simulation epoch; Prepare fills them at
	// task-construction time. A zero wireBW falls back to recomputation,
	// so hand-built descriptors keep working unchanged.
	wireBW       float64
	participants []int
}

// Prepare returns the descriptor with its per-fabric constants — wire
// bandwidth and the resolved participant set — computed once, plus the
// effective wire bytes the simulator uses as the task's work. The device
// model reads these quantities on every constant-rate epoch; preparing
// them at task-construction time removes the tier decomposition from the
// simulation hot path without changing a single value.
//
// The cache binds the descriptor to f: a prepared Desc must only be
// rated against the fabric it was prepared for (WireBW returns the
// cached bandwidth regardless of its argument). Re-Prepare against the
// new fabric to re-rate a plan elsewhere.
func Prepare(d Desc, f topo.Fabric) (Desc, float64) {
	d.wireBW = BW(d, f)
	d.participants = d.Participants()
	return d, EffWireBytes(d, f)
}

// Preparer memoizes Prepare against one fabric. Strategy builders emit
// the same few descriptor shapes hundreds of times per plan (one gather
// per layer per iteration, all with identical bytes), and the tier
// decomposition behind Prepare is not free at cluster scale — the memo
// turns plan construction's Prepare cost from O(collectives) fabric
// walks into O(distinct shapes). Results are exact: a hit returns the
// identical prepared constants, renamed for the caller.
type Preparer struct {
	fabric topo.Fabric
	m      map[prepSig][]prepEntry
}

// prepSig is the comparable part of a descriptor's Prepare inputs;
// Ranks/Group are verified exactly on the entry list.
type prepSig struct {
	op          Op
	bytes       uint64
	n, src, dst int
	nRank, nGrp int
}

type prepEntry struct {
	ranks, group []int
	prepared     Desc
	work         float64
}

// NewPreparer returns a memoizing Prepare bound to the fabric.
func NewPreparer(f topo.Fabric) *Preparer {
	return &Preparer{fabric: f, m: make(map[prepSig][]prepEntry)}
}

// Prepare is Prepare(d, fabric) with memoization. A gate is runtime
// identity, not shape: the memo ignores it and the result carries d's.
func (p *Preparer) Prepare(d Desc) (Desc, float64) {
	sig := prepSig{op: d.Op, bytes: math.Float64bits(d.Bytes),
		n: d.N, src: d.Src, dst: d.Dst, nRank: len(d.Ranks), nGrp: len(d.Group)}
	for _, e := range p.m[sig] {
		if intsEqual(e.ranks, d.Ranks) && intsEqual(e.group, d.Group) {
			out := e.prepared
			out.Name, out.Gate = d.Name, d.Gate
			return out, e.work
		}
	}
	pd, w := Prepare(d, p.fabric)
	p.m[sig] = append(p.m[sig], prepEntry{ranks: d.Ranks, group: d.Group, prepared: pd, work: w})
	return pd, w
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WireBW returns the per-rank wire bandwidth on the fabric, using the
// Prepare-time cache when present.
func (d Desc) WireBW(f topo.Fabric) float64 {
	if d.wireBW > 0 {
		return d.wireBW
	}
	return BW(d, f)
}

// Waiting reports whether the operation is posted but still blocked on its
// producer.
func (d Desc) Waiting() bool {
	return d.Gate != nil && !d.Gate.Done()
}

// Validate reports whether the descriptor is well formed.
func (d Desc) Validate() error {
	if d.Bytes < 0 {
		return fmt.Errorf("collective: %q has negative bytes %g", d.Name, d.Bytes)
	}
	min := 2
	if d.N < min {
		return fmt.Errorf("collective: %q has %d ranks, need at least %d", d.Name, d.N, min)
	}
	if d.Op == SendRecv && d.Src == d.Dst {
		return fmt.Errorf("collective: %q sends to itself (rank %d)", d.Name, d.Src)
	}
	if d.Ranks != nil {
		if len(d.Ranks) == 0 {
			return fmt.Errorf("collective: %q has an empty rank set", d.Name)
		}
		seen := make(map[int]bool, len(d.Ranks))
		for _, r := range d.Ranks {
			if r < 0 {
				return fmt.Errorf("collective: %q lists negative rank %d", d.Name, r)
			}
			if seen[r] {
				return fmt.Errorf("collective: %q lists rank %d twice", d.Name, r)
			}
			seen[r] = true
		}
	}
	if d.Group != nil {
		if len(d.Group) != d.N {
			return fmt.Errorf("collective: %q group lists %d ranks, algorithm runs over %d", d.Name, len(d.Group), d.N)
		}
		seen := make(map[int]bool, len(d.Group))
		for _, r := range d.Group {
			if r < 0 {
				return fmt.Errorf("collective: %q group lists negative rank %d", d.Name, r)
			}
			if seen[r] {
				return fmt.Errorf("collective: %q group lists rank %d twice", d.Name, r)
			}
			seen[r] = true
		}
	}
	return nil
}

// groupPlacement returns the device indices of one representative
// algorithm group: the explicit Group, else the first N ranks of the
// occupancy set, else 0..N-1.
func (d Desc) groupPlacement() []int {
	if d.Group != nil {
		return d.Group
	}
	if d.Ranks != nil && len(d.Ranks) >= d.N {
		return d.Ranks[:d.N]
	}
	out := make([]int, d.N)
	for i := range out {
		out[i] = i
	}
	return out
}

// WireBytesPerRank returns the bytes each rank transmits on the wire under
// the ring algorithm.
func (d Desc) WireBytesPerRank() float64 {
	n := float64(d.N)
	switch d.Op {
	case AllReduce:
		return 2 * d.Bytes * (n - 1) / n
	case AllGather, ReduceScatter:
		return d.Bytes * (n - 1) / n
	case Broadcast:
		return d.Bytes
	case AllToAll:
		return d.Bytes * (n - 1) / n
	case SendRecv:
		return d.Bytes
	default:
		//overlaplint:allow nopanic op-enum exhaustiveness: Desc.Validate rejects unknown ops, so this default is unreachable
		panic(fmt.Sprintf("collective: unknown op %d", int(d.Op)))
	}
}

// Steps returns the number of latency-bound algorithm steps.
func (d Desc) Steps() int {
	switch d.Op {
	case AllReduce:
		return 2 * (d.N - 1)
	case AllGather, ReduceScatter, Broadcast:
		return d.N - 1
	case AllToAll:
		return d.N - 1
	case SendRecv:
		return 1
	default:
		//overlaplint:allow nopanic op-enum exhaustiveness: Desc.Validate rejects unknown ops, so this default is unreachable
		panic(fmt.Sprintf("collective: unknown op %d", int(d.Op)))
	}
}

// BW returns the wire bandwidth in bytes/s the operation sustains per
// rank on the given fabric: the pairwise path rate for SendRecv, the
// bottleneck rate of the tiers the operation's ring actually crosses
// otherwise — a subgroup contained in one node of a multi-node fabric
// keeps its intra-node rate. It is the rate the simulator assigns the
// fluid task and the rate the HBM-draw model sees.
func BW(d Desc, f topo.Fabric) float64 {
	if d.Op == SendRecv {
		return f.P2PBW(d.Src, d.Dst)
	}
	tiers := f.Tiers()
	if len(tiers) == 1 {
		return f.RingBW()
	}
	bw := 0.0
	for i, k := range tierSpans(d, tiers) {
		if k >= 2 && (bw == 0 || tiers[i].BW < bw) {
			bw = tiers[i].BW
		}
	}
	if bw == 0 {
		bw = f.RingBW()
	}
	return bw
}

// phase is one tier of the hierarchical ring decomposition: the per-rank
// bytes crossing the tier, the tier bandwidth, and the latency-bound step
// count.
type phase struct {
	bytes float64
	bw    float64
	steps int
	lat   float64
}

// fillSpans distributes n ranks over the tiers innermost-first by
// filling: each tier takes at most its fan-out, the outermost takes the
// rest. A tier left with one rank contributes a no-op phase.
func fillSpans(n int, tiers []topo.Tier) []int {
	spans := make([]int, len(tiers))
	rem := n
	for i, t := range tiers {
		k := t.Ranks
		if i == len(tiers)-1 || rem < k {
			k = rem
		}
		if k < 1 {
			k = 1
		}
		spans[i] = k
		rem = (rem + k - 1) / k
	}
	return spans
}

// tierSpans returns the ring fan-out of the collective at each fabric
// tier, innermost first. On a multi-tier fabric the outermost (node)
// span follows the actual placement of the algorithm group — how many
// nodes its N ranks touch — so a strided cross-node group (tp's DP
// all-reduce, one peer per node) is costed on the NIC tier, while a
// group contained in one node never pays it. The inner ranks fill the
// intra-node tiers.
func tierSpans(d Desc, tiers []topo.Tier) []int {
	if len(tiers) == 1 {
		return []int{d.N}
	}
	nodeSize := 1
	for _, t := range tiers[:len(tiers)-1] {
		nodeSize *= t.Ranks
	}
	nodes := make(map[int]bool, len(tiers))
	for _, r := range d.groupPlacement() {
		nodes[r/nodeSize] = true
	}
	m := len(nodes)
	if m < 1 {
		m = 1
	}
	perNode := (d.N + m - 1) / m
	spans := fillSpans(perNode, tiers[:len(tiers)-1])
	return append(spans, m)
}

// phases returns the per-tier ring decomposition of the collective. On a
// single-tier fabric this is exactly the classic closed form: the
// operation's per-rank wire bytes at ring bandwidth in Steps() latency
// steps.
func phases(d Desc, f topo.Fabric) []phase {
	tiers := f.Tiers()
	spans := tierSpans(d, tiers)
	var out []phase
	// shard is the payload fraction entering the tier (all-gather /
	// reduce-scatter payloads shrink by the fan-out of each inner tier);
	// filled is the rank count covered by inner tiers (all-to-all
	// bookkeeping).
	shard := d.Bytes
	filled := 1
	n := float64(d.N)
	for i, k := range spans {
		if k < 2 {
			continue
		}
		kf := float64(k)
		ph := phase{bw: tiers[i].BW, lat: tiers[i].StepLatency}
		switch d.Op {
		case AllReduce:
			ph.bytes = 2 * shard * (kf - 1) / kf
			ph.steps = 2 * (k - 1)
		case AllGather, ReduceScatter:
			ph.bytes = shard * (kf - 1) / kf
			ph.steps = k - 1
		case Broadcast:
			// The full payload crosses every tier.
			ph.bytes = d.Bytes
			ph.steps = k - 1
		case AllToAll:
			// Each rank exchanges Bytes/N with every peer; this tier
			// carries the peers it newly reaches.
			ph.bytes = d.Bytes * float64(filled*k-filled) / n
			ph.steps = k - 1
		default:
			//overlaplint:allow nopanic op-enum exhaustiveness: Desc.Validate rejects unknown ops, so this default is unreachable
			panic(fmt.Sprintf("collective: unknown op %d", int(d.Op)))
		}
		if ph.bw <= 0 {
			//overlaplint:allow nopanic defensive: GPUSpec/NICSpec Validate enforce positive bandwidths, so a zero tier rate is a broken invariant, not user input
			panic(fmt.Sprintf("collective: zero tier bandwidth for %q", d.Name))
		}
		out = append(out, ph)
		shard /= kf
		filled *= k
	}
	return out
}

// Time returns the contention-free completion time of the collective on
// the fabric: per tier, transfer of the bytes crossing that tier at the
// tier's bandwidth plus its latency-bound ring steps. SendRecv pays the
// pairwise path rate and latency (NIC latency when the endpoints sit on
// different nodes).
func Time(d Desc, f topo.Fabric) float64 {
	if d.Op == SendRecv {
		bw := f.P2PBW(d.Src, d.Dst)
		if bw <= 0 {
			//overlaplint:allow nopanic defensive: GPUSpec/NICSpec Validate enforce positive bandwidths, so a zero pair rate is a broken invariant, not user input
			panic(fmt.Sprintf("collective: zero bandwidth for %q", d.Name))
		}
		return d.Bytes/bw + f.PathLatency(d.Src, d.Dst)
	}
	total := 0.0
	for _, ph := range phases(d, f) {
		total += ph.bytes/ph.bw + float64(ph.steps)*ph.lat
	}
	return total
}

// EffWireBytes returns the latency- and tier-adjusted wire bytes the
// simulator uses as the task's work: executing this work at BW reproduces
// Time exactly, letting a multi-phase collective be one fluid task.
func EffWireBytes(d Desc, f topo.Fabric) float64 {
	return Time(d, f) * d.WireBW(f)
}

// BusBW returns the nccl-tests style "bus bandwidth" implied by a measured
// completion time: the algorithm-normalized bandwidth that lets different
// collectives be compared against link speed.
func BusBW(d Desc, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	n := float64(d.N)
	algBytes := d.Bytes / seconds
	switch d.Op {
	case AllReduce:
		return algBytes * 2 * (n - 1) / n
	case AllGather, ReduceScatter, AllToAll:
		return algBytes * (n - 1) / n
	default:
		return algBytes
	}
}

// SMOccupancy returns the SMs/CUs a resident kernel of this collective
// occupies on GPU g.
func SMOccupancy(d Desc, g *hw.GPUSpec) int {
	if d.Op.Reducing() {
		return g.Contention.CollSMsReduce
	}
	return g.Contention.CollSMsCopy
}

// HBMDraw returns the HBM bandwidth in bytes/s the collective consumes on
// each participant while its wire transfer proceeds at wireRate bytes/s.
func HBMDraw(d Desc, g *hw.GPUSpec, wireRate float64) float64 {
	if wireRate <= 0 {
		return 0
	}
	k := g.Contention.HBMPerWireByte
	if !d.Op.Reducing() {
		// Copy collectives skip the reduction read stream.
		k *= 0.75
	}
	return k * wireRate
}

// ParticipantsIn counts the participants in [lo, hi), a rank listed
// twice twice. The default set 0..N-1 is counted without being listed.
func (d Desc) ParticipantsIn(lo, hi int) int {
	if d.Op != SendRecv && d.Ranks == nil {
		return max(0, min(d.N, hi)-max(lo, 0))
	}
	n := 0
	for _, r := range d.Participants() {
		if r >= lo && r < hi {
			n++
		}
	}
	return n
}

// Participants returns the rank indices the collective occupies. For
// SendRecv these are the two endpoints; with an explicit Ranks set those
// ranks; otherwise ranks 0..N-1. Prepared descriptors return the
// resolved set without allocating.
func (d Desc) Participants() []int {
	if d.participants != nil {
		return d.participants
	}
	if d.Op == SendRecv {
		return []int{d.Src, d.Dst}
	}
	if d.Ranks != nil {
		return d.Ranks
	}
	ranks := make([]int, d.N)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}
