// Package kernels defines GPU kernel descriptors and their roofline cost
// model. A kernel is characterized by the floating-point work it performs,
// the HBM traffic it generates, the GEMM shape that determines datapath
// efficiency, and the numeric format/datapath it executes on. The device
// model (internal/gpu) turns descriptors into execution rates, applying
// contention; this package provides the contention-free baseline.
package kernels

import (
	"fmt"
	"math"
	"slices"

	"overlapsim/internal/hw"
	"overlapsim/internal/precision"
)

// Op classifies a kernel for reporting and datapath selection.
type Op int

// Kernel operation classes.
const (
	// OpGEMM is a dense matrix multiplication (linear layers, attention
	// score/value products).
	OpGEMM Op = iota
	// OpElementwise covers activations, residual adds, dropout, casts.
	OpElementwise
	// OpNorm covers LayerNorm/RMSNorm (reduction + scale).
	OpNorm
	// OpOptimizer is the Adam/AdamW parameter update.
	OpOptimizer
	// OpEmbedding is the embedding gather / LM-head projection tail.
	OpEmbedding
)

// String returns a short name for the op class.
func (o Op) String() string {
	switch o {
	case OpGEMM:
		return "gemm"
	case OpElementwise:
		return "elementwise"
	case OpNorm:
		return "norm"
	case OpOptimizer:
		return "optimizer"
	case OpEmbedding:
		return "embedding"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Desc describes one kernel invocation (or a fused aggregate of identical
// invocations — the simulator schedules per-layer aggregates).
type Desc struct {
	// Name is a diagnostic label.
	Name string
	// Op is the kernel class.
	Op Op
	// FLOPs is total floating-point operations.
	FLOPs float64
	// Bytes is total HBM traffic (reads + writes).
	Bytes float64
	// M, N, K are the effective GEMM dimensions (K is the reduction
	// dimension driving datapath saturation). Zero for non-GEMM kernels.
	M, N, K float64
	// Format is the arithmetic format.
	Format precision.Format
	// Path is the datapath the kernel executes on.
	Path precision.Datapath
	// Parts, when non-empty, marks this descriptor as a fused aggregate
	// of the listed kernels (see Fuse). Timing sums the parts; FLOPs and
	// Bytes hold the totals.
	Parts []Desc

	// cost caches the roofline constants on one GPU (see Prepare); nil
	// for descriptors that were never prepared.
	cost *Cost
}

// Fuse aggregates several kernels into one descriptor executed as a unit —
// the per-layer task granularity the executors schedule. Totals are summed;
// the headline GEMM shape, format and datapath come from the part with the
// most FLOPs.
func Fuse(name string, parts ...Desc) Desc {
	if len(parts) == 0 {
		//overlaplint:allow nopanic caller contract: Fuse arguments are kernel descriptors written in executor code, not user input
		panic("kernels: Fuse of no parts")
	}
	d := Desc{Name: name, Parts: append([]Desc(nil), parts...)}
	best := 0
	for i, p := range parts {
		if len(p.Parts) > 0 {
			//overlaplint:allow nopanic caller contract: Fuse arguments are kernel descriptors written in executor code, not user input
			panic(fmt.Sprintf("kernels: Fuse of already-fused part %q", p.Name))
		}
		d.FLOPs += p.FLOPs
		d.Bytes += p.Bytes
		if p.FLOPs > parts[best].FLOPs {
			best = i
		}
	}
	b := parts[best]
	d.Op = b.Op
	d.M, d.N, d.K = b.M, b.N, b.K
	d.Format = b.Format
	d.Path = b.Path
	return d
}

// FLOPsByPath splits the descriptor's FLOPs between the vector and matrix
// datapaths (fused descriptors split by part).
func (d Desc) FLOPsByPath() (vec, mat float64) {
	if len(d.Parts) == 0 {
		if d.Path == precision.Matrix {
			return 0, d.FLOPs
		}
		return d.FLOPs, 0
	}
	for _, p := range d.Parts {
		v, m := p.FLOPsByPath()
		vec += v
		mat += m
	}
	return vec, mat
}

// AI returns arithmetic intensity in FLOPs per HBM byte. Kernels with no
// memory traffic return +Inf.
func (d Desc) AI() float64 {
	if d.Bytes <= 0 {
		return math.Inf(1)
	}
	return d.FLOPs / d.Bytes
}

// Validate reports whether the descriptor is internally consistent.
func (d Desc) Validate() error {
	if d.FLOPs < 0 || d.Bytes < 0 {
		return fmt.Errorf("kernels: %q has negative work (flops=%g bytes=%g)", d.Name, d.FLOPs, d.Bytes)
	}
	if d.FLOPs == 0 && d.Bytes == 0 {
		return fmt.Errorf("kernels: %q has no work", d.Name)
	}
	if d.Op == OpGEMM && (d.M <= 0 || d.N <= 0 || d.K <= 0) {
		return fmt.Errorf("kernels: GEMM %q missing dimensions (m=%g n=%g k=%g)", d.Name, d.M, d.N, d.K)
	}
	return nil
}

// GEMM builds a descriptor for C[m×n] = A[m×k]·B[k×n] in the given format
// on the given datapath. batch multiplies work and traffic for batched
// GEMMs (for example per-head attention products).
func GEMM(name string, m, n, k, batch float64, f precision.Format, path precision.Datapath) Desc {
	if batch <= 0 {
		batch = 1
	}
	e := float64(f.Bytes())
	return Desc{
		Name:   name,
		Op:     OpGEMM,
		FLOPs:  2 * m * n * k * batch,
		Bytes:  (m*k + k*n + m*n) * e * batch,
		M:      m,
		N:      n,
		K:      k,
		Format: f,
		Path:   path,
	}
}

// Elementwise builds a descriptor for a pointwise kernel over elems
// elements with the given FLOPs per element; traffic is one read and one
// write per element plus rwExtra additional accesses per element.
func Elementwise(name string, elems, flopsPerElem, rwExtra float64, f precision.Format) Desc {
	e := float64(f.Bytes())
	return Desc{
		Name:   name,
		Op:     OpElementwise,
		FLOPs:  elems * flopsPerElem,
		Bytes:  elems * e * (2 + rwExtra),
		Format: f,
		Path:   precision.Vector,
	}
}

// Norm builds a descriptor for a LayerNorm/RMSNorm over elems elements
// (two passes over the data).
func Norm(name string, elems float64, f precision.Format) Desc {
	e := float64(f.Bytes())
	return Desc{
		Name:   name,
		Op:     OpNorm,
		FLOPs:  elems * 8,
		Bytes:  elems * e * 3,
		Format: f,
		Path:   precision.Vector,
	}
}

// AdamBytesPerParam is the HBM traffic of one AdamW update per parameter:
// FP32 master weight, two FP32 moments (read+write each), the FP16
// gradient read and the FP16 weight write-back.
const AdamBytesPerParam = 4*2 + 4*2 + 4*2 + 2 + 2

// Optimizer builds a descriptor for an AdamW step over params parameters.
// The optimizer state layout follows mixed-precision training (FP32 master
// weights and moments).
func Optimizer(name string, params float64) Desc {
	return Desc{
		Name:   name,
		Op:     OpOptimizer,
		FLOPs:  params * 14,
		Bytes:  params * AdamBytesPerParam,
		Format: precision.FP32,
		Path:   precision.Vector,
	}
}

// BaseTime returns the contention-free execution time of the kernel on g at
// full frequency: the roofline maximum of the compute and memory times.
func BaseTime(d Desc, g *hw.GPUSpec) float64 {
	return d.CostOn(g).Time(1, 0, 0, 0)
}

// Work returns the abstract work units the simulator tracks for the
// kernel: FLOPs when nonzero, otherwise bytes.
func Work(d Desc) float64 {
	if d.FLOPs > 0 {
		return d.FLOPs
	}
	return d.Bytes
}

// minMemFloor is the fraction of HBM bandwidth compute kernels always
// retain even under full communication pressure (hardware arbitration
// guarantees forward progress).
const minMemFloor = 0.15

// Cost is a kernel descriptor's roofline resolved against one GPU: the
// per-part constants the contended rate model evaluates on every
// simulation epoch, and the datapath split the power model reads. It is
// a pure function of the descriptor's exported fields and the GPUSpec.
type Cost struct {
	g    *hw.GPUSpec
	work float64

	fmin  float64 // frequency substituted for a non-positive factor
	sms   float64 // SM count
	memBW float64 // achievable HBM bandwidth, bytes/s

	// Whole-descriptor activity constants: total bytes, FLOPs per
	// datapath, and each datapath's peak in the headline format.
	bytes, vecF, matF, peakVec, peakMat float64

	// parts are the descriptor's distinct parts (the descriptor itself
	// when unfused). order lists, in fusion order, each part's index in
	// parts; it is nil when no part repeats, and then parts is already
	// in fusion order. Fused layer stacks repeat the same dozen kernels
	// per layer, so each distinct part's time is evaluated once and the
	// sum still adds every part's time in fusion order.
	parts []partCost
	order []uint8
}

// maxDistinctParts bounds the deduplicated part table (and the stack
// scratch Time evaluates it into); descriptors with more distinct parts
// keep every part in fusion order instead.
const maxDistinctParts = 64

// partCost holds one unfused kernel's roofline constants.
type partCost struct {
	flops, bytes float64
	// pe is peak·efficiency kept as one factor, so the contended compute
	// ceiling multiplies in the same order as peak·eff·sm·f·issue. It is
	// zero on a datapath without a peak, which makes a part with FLOPs
	// there take forever (+Inf), as it must.
	pe float64
}

// same reports whether q has p's constants bit for bit.
func (p partCost) same(q partCost) bool {
	return math.Float64bits(p.flops) == math.Float64bits(q.flops) &&
		math.Float64bits(p.bytes) == math.Float64bits(q.bytes) &&
		math.Float64bits(p.pe) == math.Float64bits(q.pe)
}

// time returns the part's contended roofline time.
func (p *partCost) time(smFrac, freq, issue, availMem float64) float64 {
	var tCompute, tMem float64
	if p.flops > 0 {
		tCompute = p.flops / (p.pe * smFrac * freq * issue)
	}
	if p.bytes > 0 {
		tMem = p.bytes / (availMem * issue)
	}
	return math.Max(tCompute, tMem)
}

// Prepare returns the descriptor with its roofline constants on g
// resolved once — per-part FLOPs, peak·efficiency, bytes, the datapath
// split and peaks — so the device model evaluates a handful of
// multiplications per part on every epoch instead of re-deriving them
// through map lookups. Strategy builders prepare each fused descriptor
// once per plan (exec.Builder.KernelOp) and fan it out to every task, so
// the constants are shared, not copied.
//
// The cache binds the descriptor to g: a prepared Desc is only rated
// from its cache against the GPUSpec it was prepared for, and any other
// spec recomputes the constants on the fly (see CostOn). Prepare after
// the descriptor's fields are final; modifying a prepared Desc leaves
// its cache stale.
func Prepare(d Desc, g *hw.GPUSpec) Desc {
	d.cost = newCost(&d, g)
	return d
}

// CostOn returns the descriptor's cost on g: the prepared constants when
// d was prepared for g, otherwise freshly resolved ones (hand-built
// descriptors, such as microbenchmark kernels, take this path).
func (d *Desc) CostOn(g *hw.GPUSpec) *Cost {
	if d.PreparedOn(g) {
		return d.cost
	}
	return newCost(d, g)
}

// PreparedOn reports whether d was prepared for g, so that CostOn returns
// the one shared Cost every call instead of a fresh one.
func (d *Desc) PreparedOn(g *hw.GPUSpec) bool {
	return d.cost != nil && d.cost.g == g
}

func newCost(d *Desc, g *hw.GPUSpec) *Cost {
	c := &Cost{
		g:       g,
		work:    Work(*d),
		fmin:    g.Power.FMin,
		sms:     float64(g.SMs),
		memBW:   g.MemBW(),
		bytes:   d.Bytes,
		peakVec: peakFor(g, precision.Vector, d.Format),
		peakMat: peakFor(g, precision.Matrix, d.Format),
	}
	c.vecF, c.matF = d.FLOPsByPath()
	if len(d.Parts) == 0 {
		c.parts = []partCost{partOf(d, g)}
		return c
	}
	order := make([]uint8, len(d.Parts))
	for i := range d.Parts {
		p := partOf(&d.Parts[i], g)
		k := slices.IndexFunc(c.parts, p.same)
		if k < 0 {
			if len(c.parts) == maxDistinctParts {
				// Too varied to deduplicate: keep every part in order.
				c.parts, order = make([]partCost, len(d.Parts)), nil
				for j := range d.Parts {
					c.parts[j] = partOf(&d.Parts[j], g)
				}
				break
			}
			k = len(c.parts)
			c.parts = append(c.parts, p)
		}
		order[i] = uint8(k)
	}
	if len(c.parts) < len(d.Parts) {
		c.order = order
	}
	return c
}

// partOf resolves one unfused descriptor's roofline constants.
func partOf(d *Desc, g *hw.GPUSpec) partCost {
	eff := 1.0
	if d.Op == OpGEMM {
		eff = g.GEMMEff(d.K, d.Path, d.Format)
	} else {
		// Non-GEMM kernels are issue-limited well below vector peak.
		eff = 0.5
	}
	return partCost{flops: d.FLOPs, bytes: d.Bytes, pe: g.PeakFLOPS(d.Path, d.Format) * eff}
}

// peakFor returns the peak throughput of a datapath in the given format,
// falling back to FP32 when the exact format is not tabulated (fused tasks
// mix formats across parts).
func peakFor(g *hw.GPUSpec, path precision.Datapath, f precision.Format) float64 {
	if p := g.PeakFLOPS(path, f); p > 0 {
		return p
	}
	return g.PeakFLOPS(path, precision.FP32)
}

// Time returns the kernel's execution time under the given contention
// state:
//
//	freq         — DVFS frequency factor in (0,1];
//	smStolen     — SMs occupied by co-resident collective kernels;
//	hbmStolen    — HBM bandwidth consumed by collectives, bytes/s;
//	serialize    — issue-rate derate while collectives are resident.
//
// The model is a contended roofline: the compute ceiling loses frequency,
// SMs and issue slots; the memory ceiling loses stolen bandwidth. A
// fused descriptor takes the sum of its parts' times.
func (c *Cost) Time(freq, smStolen, hbmStolen, serialize float64) float64 {
	if freq <= 0 {
		freq = c.fmin
	}
	smFrac := 1 - smStolen/c.sms
	if smFrac < 0.05 {
		smFrac = 0.05
	}
	issue := 1 - serialize
	if issue < 0.05 {
		issue = 0.05
	}
	availMem := c.memBW - hbmStolen
	if floor := c.memBW * minMemFloor; availMem < floor {
		availMem = floor
	}
	t := 0.0
	if c.order == nil {
		for i := range c.parts {
			t += c.parts[i].time(smFrac, freq, issue, availMem)
		}
		return t
	}
	var pt [maxDistinctParts]float64
	for i := range c.parts {
		pt[i] = c.parts[i].time(smFrac, freq, issue, availMem)
	}
	for _, k := range c.order {
		t += pt[k]
	}
	return t
}

// Rate returns the execution rate in work units per second under the
// given contention state (see Time).
func (c *Cost) Rate(freq, smStolen, hbmStolen, serialize float64) float64 {
	t := c.Time(freq, smStolen, hbmStolen, serialize)
	if t <= 0 {
		return math.Inf(1)
	}
	return c.work / t
}

// Activity converts the kernel running at rate r (work units/s) under
// frequency factor f into datapath and memory activities for the power
// model. Issue activity is normalized to the throughput available at the
// current frequency, so a cap-throttled but fully occupied datapath still
// shows high activity. Fused descriptors split their FLOPs between
// datapaths by part.
func (c *Cost) Activity(r, f float64) (vec, mat, mem float64) {
	if r <= 0 || math.IsInf(r, 1) || f <= 0 || c.work <= 0 {
		return 0, 0, 0
	}
	dur := c.work / r
	if c.vecF > 0 && c.peakVec > 0 {
		vec = (c.vecF / dur) / (c.peakVec * f)
	}
	if c.matF > 0 && c.peakMat > 0 {
		mat = (c.matF / dur) / (c.peakMat * f)
	}
	if vec > 1 {
		vec = 1
	}
	if mat > 1 {
		mat = 1
	}
	if c.bytes > 0 {
		mem = (c.bytes / dur) / c.memBW
		if mem > 1 {
			mem = 1
		}
	}
	return vec, mat, mem
}
