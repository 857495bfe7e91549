// Package hw is the open hardware platform layer: GPU specifications and
// system (node/cluster) descriptions, served from name-keyed registries
// that mirror the strategy registry. The four GPUs the paper evaluates
// (Table I) and its five single-node systems self-register as built-ins;
// user-defined GPUs and systems join through Register/RegisterSystem or
// the JSON schema Load accepts, and every consumer — core.Run, sweep
// grids, the overlapd catalog, the CLIs — resolves them by name.
//
// Peak-rate and capacity numbers of the built-ins come from vendor
// datasheets (the same sources as the paper's Table I); contention and
// power-component coefficients are calibration parameters. The paper's
// takeaways they must reproduce are asserted in
// internal/core/takeaways_test.go, and internal/calib re-fits them from
// measured profiles (see examples/calibration/README.md).
package hw

import (
	"fmt"
	"maps"
	"strings"

	"overlapsim/internal/precision"
)

// Vendor identifies a GPU vendor, which selects the collective library
// behaviour (NCCL versus RCCL) in the contention model and supplies the
// default telemetry interval and fabric kind. Behaviour-determining
// properties (fabric kind, contention coefficients) are explicit spec
// fields, so a custom GPU is not locked to its vendor's defaults.
type Vendor int

// Vendors.
const (
	NVIDIA Vendor = iota
	AMD
)

// String returns the vendor name.
func (v Vendor) String() string {
	switch v {
	case NVIDIA:
		return "NVIDIA"
	case AMD:
		return "AMD"
	default:
		return fmt.Sprintf("Vendor(%d)", int(v))
	}
}

// ParseVendor resolves a vendor name, case-insensitively.
func ParseVendor(s string) (Vendor, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "NVIDIA":
		return NVIDIA, nil
	case "AMD":
		return AMD, nil
	default:
		return 0, fmt.Errorf("hw: unknown vendor %q (have NVIDIA, AMD)", s)
	}
}

// PowerParams are the component power model for one GPU. Components are
// peak draws in watts at full utilization and nominal frequency; see
// internal/power for how they compose.
type PowerParams struct {
	// IdleW is static power with no work running.
	IdleW float64 `json:"IdleW"`
	// VectorW is the vector (CUDA-core / stream-processor) datapath peak
	// dynamic power.
	VectorW float64 `json:"VectorW"`
	// MatrixW is the matrix-unit (Tensor Core / Matrix Core) datapath peak
	// dynamic power.
	MatrixW float64 `json:"MatrixW"`
	// MemW is HBM and memory-system peak dynamic power.
	MemW float64 `json:"MemW"`
	// CommW is interconnect (NVLink / Infinity Fabric PHY + copy engine)
	// peak dynamic power.
	CommW float64 `json:"CommW"`
	// SurgeW is the additional transient draw observed when compute and
	// communication are simultaneously active (di/dt and duplicated
	// LSU/L2 activity). This component reproduces the paper's finding that
	// overlapping execution shows up to ~25% higher peak power.
	SurgeW float64 `json:"SurgeW"`
	// FMin is the lowest DVFS frequency factor power capping can reach.
	FMin float64 `json:"FMin"`
	// FreqExp is the exponent of dynamic power in the frequency factor
	// (P_dyn ∝ f^FreqExp, capturing combined f·V² scaling).
	FreqExp float64 `json:"FreqExp"`
}

// ContentionParams govern how concurrent communication degrades compute on
// the same GPU. These are the simulator's representation of the effects the
// paper attributes its slowdowns to (§V-A).
type ContentionParams struct {
	// CollSMsReduce is the number of SMs/CUs a reducing collective
	// (all-reduce, reduce-scatter) occupies while running.
	CollSMsReduce int `json:"CollSMsReduce"`
	// CollSMsCopy is the number of SMs/CUs a pure-copy collective
	// (all-gather, broadcast, send/recv) occupies.
	CollSMsCopy int `json:"CollSMsCopy"`
	// HBMPerWireByte is the HBM traffic generated per byte moved on the
	// wire by a collective (read + write + reduction traffic).
	HBMPerWireByte float64 `json:"HBMPerWireByte"`
	// SerializeFrac is the fraction by which compute issue rate drops
	// while any collective kernel is resident, beyond explicit SM and
	// bandwidth stealing. It models collective-library scheduler
	// interference; RCCL's coarser kernel scheduling gives AMD parts a
	// larger value (the "architectural distinctions" of §IV-B).
	SerializeFrac float64 `json:"SerializeFrac"`
}

// GPUSpec describes one GPU model.
type GPUSpec struct {
	// Name is the marketing name used throughout reports ("A100", ...).
	Name string `json:"Name"`
	// Vendor selects NCCL- or RCCL-like collective behaviour.
	Vendor Vendor `json:"Vendor"`
	// Year is the launch year (Table I).
	Year int `json:"Year"`

	// SMs is the number of streaming multiprocessors (NVIDIA) or compute
	// units (AMD; both GCDs for MI250).
	SMs int `json:"SMs"`
	// BoostMHz is the nominal boost clock; frequency factors are relative
	// to it.
	BoostMHz int `json:"BoostMHz"`

	// MemGB is HBM capacity in GiB (Table I).
	MemGB float64 `json:"MemGB"`
	// MemBWGBs is peak HBM bandwidth in GB/s.
	MemBWGBs float64 `json:"MemBWGBs"`
	// MemHeadroom is the fraction of peak HBM bandwidth achievable by
	// well-tuned kernels.
	MemHeadroom float64 `json:"MemHeadroom"`

	// LinkBWGBs is the aggregate bidirectional interconnect bandwidth in
	// GB/s as marketed (NVLink 900/600, Infinity Fabric 300) — the numbers
	// the paper quotes in §IV-A.
	LinkBWGBs float64 `json:"LinkBWGBs"`
	// LinkLatency is the per-hop latency of one collective step in
	// seconds.
	LinkLatency float64 `json:"LinkLatency"`
	// AlgEff is the fraction of unidirectional link bandwidth a tuned
	// collective sustains (protocol + pipelining overheads).
	AlgEff float64 `json:"AlgEff"`

	// TDPW is the thermal design power in watts; power plots normalize to
	// it.
	TDPW float64 `json:"TDPW"`

	// VectorTFLOPS is peak dense TFLOPS on the vector datapath per format.
	VectorTFLOPS map[precision.Format]float64 `json:"VectorTFLOPS"`
	// MatrixTFLOPS is peak dense TFLOPS on the matrix datapath per format.
	MatrixTFLOPS map[precision.Format]float64 `json:"MatrixTFLOPS"`

	// TableFP32TFLOPS and TableFP16TFLOPS are the headline Table I numbers
	// (the FP16 entries are the vendor marketing peaks the paper prints).
	TableFP32TFLOPS float64 `json:"TableFP32TFLOPS"`
	TableFP16TFLOPS float64 `json:"TableFP16TFLOPS"`

	// KHalfVector, KHalfMatrix and KHalfMatrixTF32 parameterize the GEMM
	// saturation-efficiency curve eff(k) = MaxEff·k/(k+KHalf) on each
	// datapath: the reduction-dimension size at which the datapath reaches
	// half of its achievable efficiency. Matrix units need much larger
	// GEMMs to saturate than vector units, which is what makes low
	// precision and Tensor Cores cheap on small models and contended on
	// large ones (Figs. 10 and 11).
	KHalfVector     float64 `json:"KHalfVector"`
	KHalfMatrix     float64 `json:"KHalfMatrix"`
	KHalfMatrixTF32 float64 `json:"KHalfMatrixTF32"`
	// MaxEff is the asymptotic fraction of peak a perfect-size GEMM
	// reaches.
	MaxEff float64 `json:"MaxEff"`

	Power      PowerParams      `json:"Power"`
	Contention ContentionParams `json:"Contention"`
}

// Clone returns a deep copy of the spec: the TFLOPS maps are its only
// reference fields, and a nil map stays nil.
func (g *GPUSpec) Clone() *GPUSpec {
	out := *g
	out.VectorTFLOPS = maps.Clone(g.VectorTFLOPS)
	out.MatrixTFLOPS = maps.Clone(g.MatrixTFLOPS)
	return &out
}

// PeakFLOPS returns the peak dense throughput in FLOP/s for the given
// datapath and format. It returns 0 if the combination is unsupported.
func (g *GPUSpec) PeakFLOPS(path precision.Datapath, f precision.Format) float64 {
	var tf float64
	switch path {
	case precision.Vector:
		tf = g.VectorTFLOPS[f]
	case precision.Matrix:
		tf = g.MatrixTFLOPS[f]
	}
	return tf * 1e12
}

// KHalf returns the saturation half-point of the GEMM efficiency curve for
// the given datapath and format.
func (g *GPUSpec) KHalf(path precision.Datapath, f precision.Format) float64 {
	if path == precision.Vector {
		return g.KHalfVector
	}
	if f == precision.TF32 || f == precision.FP32 {
		return g.KHalfMatrixTF32
	}
	return g.KHalfMatrix
}

// GEMMEff returns the achievable fraction of peak for a GEMM whose
// reduction dimension is k, on the given datapath and format.
func (g *GPUSpec) GEMMEff(k float64, path precision.Datapath, f precision.Format) float64 {
	if k <= 0 {
		return 0
	}
	kh := g.KHalf(path, f)
	return g.MaxEff * k / (k + kh)
}

// UniLinkBW returns the achievable unidirectional collective bandwidth in
// bytes/s: half the marketed bidirectional aggregate, derated by AlgEff.
func (g *GPUSpec) UniLinkBW() float64 {
	return g.LinkBWGBs / 2 * g.AlgEff * 1e9
}

// MemBW returns achievable HBM bandwidth in bytes/s.
func (g *GPUSpec) MemBW() float64 {
	return g.MemBWGBs * g.MemHeadroom * 1e9
}

// MemBytes returns HBM capacity in bytes.
func (g *GPUSpec) MemBytes() float64 {
	return g.MemGB * (1 << 30)
}

// Validate reports whether the spec is self-consistent enough to
// simulate. Registration and JSON loading gate on it so a broken custom
// GPU fails at definition time, not as a NaN mid-sweep.
func (g *GPUSpec) Validate() error {
	if g == nil {
		return fmt.Errorf("hw: nil GPU spec")
	}
	if strings.TrimSpace(g.Name) == "" {
		return fmt.Errorf("hw: GPU spec with empty name")
	}
	if g.SMs <= 0 || g.BoostMHz <= 0 {
		return fmt.Errorf("hw: %s: SMs and boost clock must be positive", g.Name)
	}
	if g.MemGB <= 0 || g.MemBWGBs <= 0 {
		return fmt.Errorf("hw: %s: memory capacity and bandwidth must be positive", g.Name)
	}
	if g.MemHeadroom <= 0 || g.MemHeadroom > 1 {
		return fmt.Errorf("hw: %s: memory headroom %g outside (0,1]", g.Name, g.MemHeadroom)
	}
	if g.LinkBWGBs <= 0 || g.LinkLatency < 0 {
		return fmt.Errorf("hw: %s: invalid interconnect parameters", g.Name)
	}
	if g.AlgEff <= 0 || g.AlgEff > 1 {
		return fmt.Errorf("hw: %s: collective efficiency %g outside (0,1]", g.Name, g.AlgEff)
	}
	if g.TDPW <= g.Power.IdleW {
		return fmt.Errorf("hw: %s: TDP %g not above idle power %g", g.Name, g.TDPW, g.Power.IdleW)
	}
	if g.PeakFLOPS(precision.Vector, precision.FP32) <= 0 {
		return fmt.Errorf("hw: %s: missing vector FP32 throughput", g.Name)
	}
	if g.MaxEff <= 0 || g.MaxEff > 1 {
		return fmt.Errorf("hw: %s: GEMM max efficiency %g outside (0,1]", g.Name, g.MaxEff)
	}
	if g.KHalfVector <= 0 || g.KHalfMatrix <= 0 || g.KHalfMatrixTF32 <= 0 {
		return fmt.Errorf("hw: %s: GEMM saturation half-points must be positive", g.Name)
	}
	if g.Power.FMin <= 0 || g.Power.FMin >= 1 {
		return fmt.Errorf("hw: %s: FMin %g outside (0,1)", g.Name, g.Power.FMin)
	}
	if g.Power.FreqExp <= 0 {
		return fmt.Errorf("hw: %s: frequency exponent must be positive", g.Name)
	}
	if g.Contention.CollSMsReduce < 0 || g.Contention.CollSMsCopy < 0 || g.Contention.HBMPerWireByte < 0 {
		return fmt.Errorf("hw: %s: contention parameters must be non-negative", g.Name)
	}
	if g.Contention.SerializeFrac < 0 || g.Contention.SerializeFrac >= 1 {
		return fmt.Errorf("hw: %s: serialize fraction %g outside [0,1)", g.Name, g.Contention.SerializeFrac)
	}
	return nil
}

// Fabric kinds a System may name for its intra-node interconnect. The
// empty string selects the vendor default (switched for NVIDIA, mesh for
// AMD), which is how the pre-registry catalog behaved.
const (
	FabricSwitched = "switched"
	FabricMesh     = "mesh"
)

// NICSpec describes the inter-node network tier of a multi-node system:
// the per-GPU share of the node's scale-out bandwidth (RDMA NICs) and the
// latency of one inter-node collective step.
type NICSpec struct {
	// BWGBs is the achievable unidirectional inter-node bandwidth per GPU
	// in GB/s (e.g. one 400 Gb/s NDR InfiniBand rail per GPU ≈ 50 GB/s
	// raw, derated below).
	BWGBs float64 `json:"BWGBs"`
	// Latency is the per-hop latency of one inter-node collective step in
	// seconds.
	Latency float64 `json:"Latency"`
	// AlgEff is the fraction of BWGBs a tuned collective sustains across
	// the NIC tier (0 picks DefaultNICAlgEff).
	AlgEff float64 `json:"AlgEff,omitempty"`
}

// DefaultNICAlgEff is the collective efficiency assumed on the NIC tier
// when a NICSpec leaves AlgEff zero.
const DefaultNICAlgEff = 0.80

// DefaultNIC is the inter-node tier assumed when a multi-node system does
// not specify one: a 400 Gb/s rail per GPU at RDMA latency.
func DefaultNIC() NICSpec {
	return NICSpec{BWGBs: 50, Latency: 10e-6, AlgEff: DefaultNICAlgEff}
}

// BW returns the achievable per-GPU inter-node collective bandwidth in
// bytes/s.
func (n NICSpec) BW() float64 {
	eff := n.AlgEff
	if eff == 0 {
		eff = DefaultNICAlgEff
	}
	return n.BWGBs * eff * 1e9
}

// Validate reports whether the NIC tier is usable.
func (n NICSpec) Validate() error {
	if n.BWGBs <= 0 {
		return fmt.Errorf("hw: NIC bandwidth %g GB/s must be positive", n.BWGBs)
	}
	if n.Latency < 0 {
		return fmt.Errorf("hw: NIC latency %g must be non-negative", n.Latency)
	}
	if n.AlgEff < 0 || n.AlgEff > 1 {
		return fmt.Errorf("hw: NIC efficiency %g outside [0,1]", n.AlgEff)
	}
	return nil
}

// System is a multi-GPU configuration: one or more identical nodes of N
// identical GPUs each, joined by an inter-node NIC tier when Nodes > 1.
// The zero values of the multi-node fields describe the paper's
// single-node systems (§IV-A) and — deliberately — encode to the exact
// canonical JSON the pre-registry System produced, so fingerprints and
// content-addressed sweep caches survive the redesign.
type System struct {
	// Name labels the system in reports and keys it in the registry
	// ("H100x8", "H100x8x4", ...).
	Name string `json:"Name"`
	// GPU is the device model every GPU in the system instantiates.
	GPU *GPUSpec `json:"GPU"`
	// N is the number of GPUs per node.
	N int `json:"N"`
	// Nodes is the number of nodes; 0 (and 1) mean a single node.
	Nodes int `json:"Nodes,omitempty"`
	// Fabric names the intra-node interconnect kind (FabricSwitched or
	// FabricMesh); empty selects the GPU vendor's default.
	Fabric string `json:"Fabric,omitempty"`
	// NIC is the inter-node tier; nil selects DefaultNIC when Nodes > 1
	// and is meaningless (and canonicalized away) on a single node.
	NIC *NICSpec `json:"NIC,omitempty"`
}

// NewSystem builds a single-node system of n identical GPUs.
func NewSystem(g *GPUSpec, n int) System {
	if g == nil {
		//overlaplint:allow nopanic constructor contract: user-supplied shapes are validated by sweep specs and registry Load before construction; a bad shape here is a programming error
		panic("hw: nil GPU spec")
	}
	if n < 1 {
		//overlaplint:allow nopanic constructor contract: user-supplied shapes are validated by sweep specs and registry Load before construction; a bad shape here is a programming error
		panic(fmt.Sprintf("hw: invalid GPU count %d", n))
	}
	return System{Name: fmt.Sprintf("%sx%d", g.Name, n), GPU: g, N: n}
}

// NewMultiNode builds a system of nodes identical nodes with perNode GPUs
// each, joined by the default NIC tier. Its name reads GPUxPerNodexNodes
// ("H100x8x4" is four 8-GPU H100 nodes).
func NewMultiNode(g *GPUSpec, perNode, nodes int) System {
	if g == nil {
		//overlaplint:allow nopanic constructor contract: user-supplied shapes are validated by sweep specs and registry Load before construction; a bad shape here is a programming error
		panic("hw: nil GPU spec")
	}
	if perNode < 1 || nodes < 1 {
		//overlaplint:allow nopanic constructor contract: user-supplied shapes are validated by sweep specs and registry Load before construction; a bad shape here is a programming error
		panic(fmt.Sprintf("hw: invalid shape %d GPUs x %d nodes", perNode, nodes))
	}
	s := System{Name: fmt.Sprintf("%sx%d", g.Name, perNode), GPU: g, N: perNode}
	if nodes > 1 {
		s.Name = fmt.Sprintf("%sx%dx%d", g.Name, perNode, nodes)
		s.Nodes = nodes
	}
	return s
}

// NodeCount returns the number of nodes (at least 1).
func (s System) NodeCount() int {
	if s.Nodes < 2 {
		return 1
	}
	return s.Nodes
}

// TotalGPUs returns the number of GPUs across all nodes — the rank count
// strategies shard over and the device count the cluster simulates.
func (s System) TotalGPUs() int {
	return s.N * s.NodeCount()
}

// NICSpec returns the effective inter-node tier: the explicit NIC when
// set, DefaultNIC otherwise.
func (s System) NICSpec() NICSpec {
	if s.NIC != nil {
		return *s.NIC
	}
	return DefaultNIC()
}

// Canonical returns the system with every inert multi-node field cleared:
// Nodes 1 becomes 0, and the fabric override and NIC tier are dropped
// when they cannot change behaviour. Two systems describing the same
// hardware therefore encode (and fingerprint) identically — in
// particular, legacy single-node systems keep their pre-registry bytes.
func (s System) Canonical() System {
	if s.Nodes < 2 {
		s.Nodes = 0
		s.NIC = nil // single-node systems never cross the NIC tier
	} else if s.NIC != nil {
		nic := *s.NIC
		if nic.AlgEff == DefaultNICAlgEff {
			nic.AlgEff = 0 // the explicit default, made implicit
		}
		if nic == (NICSpec{BWGBs: DefaultNIC().BWGBs, Latency: DefaultNIC().Latency}) {
			s.NIC = nil
		} else {
			s.NIC = &nic
		}
	}
	if s.GPU != nil && s.Fabric == DefaultFabric(s.GPU.Vendor) {
		s.Fabric = ""
	}
	return s
}

// DefaultFabric returns the intra-node fabric kind a vendor's systems use
// when a System does not name one: NVLink+NVSwitch for NVIDIA, Infinity
// Fabric meshes for AMD (§II-A).
func DefaultFabric(v Vendor) string {
	if v == AMD {
		return FabricMesh
	}
	return FabricSwitched
}

// FabricKind returns the effective intra-node fabric kind.
func (s System) FabricKind() string {
	if s.Fabric != "" {
		return s.Fabric
	}
	if s.GPU == nil {
		return FabricSwitched
	}
	return DefaultFabric(s.GPU.Vendor)
}

// Validate reports whether the system is well formed and simulable.
func (s System) Validate() error {
	if strings.TrimSpace(s.Name) == "" {
		return fmt.Errorf("hw: system with empty name")
	}
	if err := s.GPU.Validate(); err != nil {
		return fmt.Errorf("hw: system %s: %w", s.Name, err)
	}
	if s.N < 1 {
		return fmt.Errorf("hw: system %s: invalid per-node GPU count %d", s.Name, s.N)
	}
	if s.Nodes < 0 {
		return fmt.Errorf("hw: system %s: invalid node count %d", s.Name, s.Nodes)
	}
	switch s.Fabric {
	case "", FabricSwitched, FabricMesh:
	default:
		return fmt.Errorf("hw: system %s: unknown fabric %q (have %q, %q)",
			s.Name, s.Fabric, FabricSwitched, FabricMesh)
	}
	if s.NIC != nil {
		if err := s.NIC.Validate(); err != nil {
			return fmt.Errorf("hw: system %s: %w", s.Name, err)
		}
	}
	return nil
}
