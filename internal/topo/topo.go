// Package topo models GPU interconnect fabrics. The single-node fabrics
// are NVLink with NVSwitch (Switched) and Infinity Fabric (Mesh) — Fig.
// 2(b) of the paper; Hierarchical composes an intra-node fabric with an
// inter-node NIC tier, the scale-out shape of multi-node training
// platforms. A fabric reduces to per-pair and per-ring achievable
// bandwidths, hop latencies, and a tier decomposition; those are exactly
// what the collective cost models consume.
package topo

import (
	"fmt"

	"overlapsim/internal/hw"
)

// Kind distinguishes fabric families.
type Kind int

// Fabric kinds.
const (
	// KindSwitched is NVLink + NVSwitch: every GPU pair communicates at
	// full per-GPU link bandwidth with a single switch hop.
	KindSwitched Kind = iota
	// KindMesh is Infinity Fabric: GPUs are directly attached; a pair
	// shares a subset of the GPU's links.
	KindMesh
	// KindHierarchical is a multi-node fabric: an intra-node fabric per
	// node plus an inter-node NIC tier.
	KindHierarchical
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindSwitched:
		return "switched"
	case KindMesh:
		return "mesh"
	case KindHierarchical:
		return "hierarchical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Tier is one level of a fabric's ring decomposition: a collective over
// the whole fabric runs a ring phase of Ranks endpoints at this tier's
// bandwidth, paying StepLatency per ring step. Single-node fabrics have
// one tier; Hierarchical prepends the intra-node tier to the NIC tier.
type Tier struct {
	// Name labels the tier in diagnostics ("intra-node", "inter-node").
	Name string
	// Ranks is the ring fan-out at this tier (GPUs per node, then nodes).
	Ranks int
	// BW is the achievable per-direction ring bandwidth in bytes/s.
	BW float64
	// StepLatency is the latency of one ring step in seconds.
	StepLatency float64
}

// Fabric is the interconnect abstraction the device and collective models
// consume. Implementations must be safe for concurrent readers: the
// simulator queries rates from every running collective.
type Fabric interface {
	// Kind reports the fabric family.
	Kind() Kind
	// N returns the number of GPUs the fabric connects (all nodes).
	N() int
	// GPU returns the device spec of the (homogeneous) endpoints.
	GPU() *hw.GPUSpec
	// RingBW returns the per-direction bandwidth in bytes/s a ring over
	// all N endpoints sustains — the bottleneck tier's rate.
	RingBW() float64
	// P2PBW returns the achievable bandwidth of a single pairwise
	// transfer between two GPUs in bytes/s.
	P2PBW(src, dst int) float64
	// PathLatency returns the setup latency of one P2P transfer between
	// two GPUs in seconds.
	PathLatency(src, dst int) float64
	// HopLatency returns the latency of one intra-node collective step in
	// seconds (the innermost tier's step latency).
	HopLatency() float64
	// Tiers returns the ring decomposition, innermost tier first. The
	// product of tier ranks is N.
	Tiers() []Tier
}

// meshP2PShare is the fraction of a GPU's aggregate Infinity Fabric
// bandwidth available on the direct link to one particular peer.
const meshP2PShare = 0.5

// ForSystem builds the fabric for a system: the intra-node kind follows
// the system's explicit fabric (falling back to the vendor default —
// switched for NVIDIA, mesh for AMD, matching the server designs of
// §II-A), wrapped in a Hierarchical fabric when the system spans nodes.
func ForSystem(sys hw.System) Fabric {
	var intra Fabric
	switch sys.FabricKind() {
	case hw.FabricMesh:
		intra = &Mesh{sys: sys}
	default:
		intra = &Switched{sys: sys}
	}
	if sys.NodeCount() <= 1 {
		return intra
	}
	return &Hierarchical{
		intra: intra,
		nodes: sys.NodeCount(),
		nic:   sys.NICSpec(),
	}
}

// Switched is an NVLink+NVSwitch-style single-node fabric: full per-GPU
// bandwidth between every pair, one switch traversal per hop.
type Switched struct {
	sys hw.System
}

// NewSwitched returns a switched fabric over the system's single node.
func NewSwitched(sys hw.System) *Switched { return &Switched{sys: sys} }

// Kind implements Fabric.
func (t *Switched) Kind() Kind { return KindSwitched }

// N implements Fabric.
func (t *Switched) N() int { return t.sys.N }

// GPU implements Fabric.
func (t *Switched) GPU() *hw.GPUSpec { return t.sys.GPU }

// RingBW implements Fabric: both single-node fabrics sustain the derated
// unidirectional link rate per ring direction.
func (t *Switched) RingBW() float64 { return t.sys.GPU.UniLinkBW() }

// P2PBW implements Fabric: a pair enjoys the GPU's full unidirectional
// bandwidth through the switch.
func (t *Switched) P2PBW(src, dst int) float64 {
	checkRank(t.sys.N, src)
	checkRank(t.sys.N, dst)
	return t.sys.GPU.UniLinkBW()
}

// PathLatency implements Fabric.
func (t *Switched) PathLatency(src, dst int) float64 { return t.HopLatency() }

// HopLatency implements Fabric: one link hop plus the switch traversal.
func (t *Switched) HopLatency() float64 { return t.sys.GPU.LinkLatency * 1.5 }

// Tiers implements Fabric.
func (t *Switched) Tiers() []Tier {
	return []Tier{{Name: "intra-node", Ranks: t.sys.N, BW: t.RingBW(), StepLatency: t.HopLatency()}}
}

// Mesh is an Infinity-Fabric-style single-node fabric: GPUs are directly
// attached, so a pair shares only a subset of the GPU's links.
type Mesh struct {
	sys hw.System
}

// NewMesh returns a mesh fabric over the system's single node.
func NewMesh(sys hw.System) *Mesh { return &Mesh{sys: sys} }

// Kind implements Fabric.
func (t *Mesh) Kind() Kind { return KindMesh }

// N implements Fabric.
func (t *Mesh) N() int { return t.sys.N }

// GPU implements Fabric.
func (t *Mesh) GPU() *hw.GPUSpec { return t.sys.GPU }

// RingBW implements Fabric: a ring uses each GPU's direct neighbor links
// at the derated unidirectional rate.
func (t *Mesh) RingBW() float64 { return t.sys.GPU.UniLinkBW() }

// P2PBW implements Fabric: a pair gets only the directly attached links.
func (t *Mesh) P2PBW(src, dst int) float64 {
	checkRank(t.sys.N, src)
	checkRank(t.sys.N, dst)
	return t.sys.GPU.UniLinkBW() * meshP2PShare
}

// PathLatency implements Fabric.
func (t *Mesh) PathLatency(src, dst int) float64 { return t.HopLatency() }

// HopLatency implements Fabric: direct links have bare latency.
func (t *Mesh) HopLatency() float64 { return t.sys.GPU.LinkLatency }

// Tiers implements Fabric.
func (t *Mesh) Tiers() []Tier {
	return []Tier{{Name: "intra-node", Ranks: t.sys.N, BW: t.RingBW(), StepLatency: t.HopLatency()}}
}

// Hierarchical composes an intra-node fabric with an inter-node NIC tier:
// nodes identical nodes, each running the intra fabric, joined by
// per-GPU scale-out NICs. Collectives decompose into an intra-node phase
// and an inter-node phase (the NCCL hierarchical algorithms), which is
// what makes inter-node bandwidth the determinant of overlap behaviour at
// scale.
type Hierarchical struct {
	intra Fabric
	nodes int
	nic   hw.NICSpec
}

// NewHierarchical composes an intra-node fabric with an inter-node NIC
// tier over the given node count. The shape arguments can come from
// user-defined hardware, so violations return errors rather than
// panicking.
func NewHierarchical(intra Fabric, nodes int, nic hw.NICSpec) (*Hierarchical, error) {
	if intra == nil {
		return nil, fmt.Errorf("topo: nil intra-node fabric")
	}
	if nodes < 2 {
		return nil, fmt.Errorf("topo: hierarchical fabric needs at least 2 nodes, have %d", nodes)
	}
	if err := nic.Validate(); err != nil {
		return nil, err
	}
	return &Hierarchical{intra: intra, nodes: nodes, nic: nic}, nil
}

// Kind implements Fabric.
func (t *Hierarchical) Kind() Kind { return KindHierarchical }

// N implements Fabric.
func (t *Hierarchical) N() int { return t.intra.N() * t.nodes }

// Nodes returns the node count.
func (t *Hierarchical) Nodes() int { return t.nodes }

// NodeSize returns the GPUs per node.
func (t *Hierarchical) NodeSize() int { return t.intra.N() }

// Intra returns the intra-node fabric.
func (t *Hierarchical) Intra() Fabric { return t.intra }

// NIC returns the inter-node tier parameters.
func (t *Hierarchical) NIC() hw.NICSpec { return t.nic }

// GPU implements Fabric.
func (t *Hierarchical) GPU() *hw.GPUSpec { return t.intra.GPU() }

// RingBW implements Fabric: a ring spanning nodes is bottlenecked by the
// slower tier — in practice the NIC.
func (t *Hierarchical) RingBW() float64 {
	return min(t.intra.RingBW(), t.nic.BW())
}

// node returns the node index of a GPU rank.
func (t *Hierarchical) node(g int) int { return g / t.intra.N() }

// P2PBW implements Fabric: pairs on the same node use the intra-node
// fabric; cross-node pairs use the NIC.
func (t *Hierarchical) P2PBW(src, dst int) float64 {
	checkRank(t.N(), src)
	checkRank(t.N(), dst)
	if t.node(src) == t.node(dst) {
		return t.intra.P2PBW(src%t.intra.N(), dst%t.intra.N())
	}
	return t.nic.BW()
}

// PathLatency implements Fabric.
func (t *Hierarchical) PathLatency(src, dst int) float64 {
	checkRank(t.N(), src)
	checkRank(t.N(), dst)
	if t.node(src) == t.node(dst) {
		return t.intra.PathLatency(src%t.intra.N(), dst%t.intra.N())
	}
	return t.nic.Latency
}

// HopLatency implements Fabric: the innermost tier's step latency.
func (t *Hierarchical) HopLatency() float64 { return t.intra.HopLatency() }

// Tiers implements Fabric: the intra-node decomposition followed by the
// inter-node tier.
func (t *Hierarchical) Tiers() []Tier {
	tiers := append([]Tier(nil), t.intra.Tiers()...)
	return append(tiers, Tier{
		Name: "inter-node", Ranks: t.nodes, BW: t.nic.BW(), StepLatency: t.nic.Latency,
	})
}

func checkRank(n, g int) {
	if g < 0 || g >= n {
		//overlaplint:allow nopanic caller contract: ranks are loop indices from executor code, not user input; out-of-range is a programming error
		panic(fmt.Sprintf("topo: GPU index %d out of range [0,%d)", g, n))
	}
}
