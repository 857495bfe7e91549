// Package sweep is the design-space exploration engine: a declarative
// sweep specification expands cartesian grids over the characterization
// axes the paper studies (GPU, model, parallelism, batch size, precision,
// power cap — strategy names validated against the registry) into
// core.Configs, a bounded worker pool executes them
// concurrently with fail-soft per-point error collection, and a
// content-addressed cache keyed by the canonical config fingerprint makes
// repeated and overlapping sweeps near-free.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"overlapsim/internal/core"
	"overlapsim/internal/hw"
	"overlapsim/internal/model"
	"overlapsim/internal/power"
	"overlapsim/internal/precision"
	"overlapsim/internal/strategy"
)

// Experiment names one experiment in the catalog vocabulary the API and
// CLIs share: systems, GPUs and models by registry name, strategies and
// formats by their conventional lowercase spellings. The zero value of
// every optional field selects the paper's base configuration (4 GPUs,
// FSDP, batch 8, FP16 on matrix units, uncapped power).
type Experiment struct {
	// System names a registered system ("H100x8", or anything
	// hw.RegisterSystem/hw.Load added). When set it supplies the whole
	// platform and GPU/GPUCount/Nodes must stay empty.
	System string `json:"system,omitempty"`
	// GPU is a registered GPU name ("A100", "H100", "MI210", "MI250",
	// or a loaded custom part).
	GPU string `json:"gpu,omitempty"`
	// GPUCount is the number of GPUs per node (default 4).
	GPUCount int `json:"gpu_count,omitempty"`
	// Nodes is the number of nodes joined by the NIC tier (0 and 1 mean
	// a single node).
	Nodes int `json:"nodes,omitempty"`
	// Model is the Table II workload name ("GPT-3 XL", ...).
	Model string `json:"model"`
	// Parallelism is a registered strategy name — "fsdp", "pp", "ddp",
	// "tp", or any strategy a build links in (default "fsdp").
	Parallelism string `json:"parallelism,omitempty"`
	// Batch is the global batch size (default 8).
	Batch int `json:"batch,omitempty"`
	// MicroBatch is the pipeline microbatch size (0 picks the default).
	MicroBatch int `json:"micro_batch,omitempty"`
	// TPDegree is the tensor-parallel group size (0 picks the default of
	// the whole node).
	TPDegree int `json:"tp_degree,omitempty"`
	// Format is "fp32", "tf32", "fp16" or "bf16" (default "fp16").
	Format string `json:"format,omitempty"`
	// VectorOnly disables Tensor/Matrix cores (the Fig. 11 ablation).
	VectorOnly bool `json:"vector_only,omitempty"`
	// NoCheckpoint disables activation recomputation.
	NoCheckpoint bool `json:"no_checkpoint,omitempty"`
	// GradAccumSteps enables gradient accumulation under FSDP.
	GradAccumSteps int `json:"grad_accum_steps,omitempty"`
	// Iterations and Warmup override the measured/unmeasured iteration
	// counts (0 keeps the §IV-D defaults).
	Iterations int `json:"iterations,omitempty"`
	Warmup     int `json:"warmup,omitempty"`
	// PowerCapW is the per-GPU power cap in watts (0 = uncapped).
	PowerCapW float64 `json:"power_cap_w,omitempty"`
	// FreqCap is the DVFS frequency cap factor in (0,1] (0 = uncapped).
	FreqCap float64 `json:"freq_cap,omitempty"`
	// SkipMemoryCheck disables the HBM feasibility gate.
	SkipMemoryCheck bool `json:"skip_memory_check,omitempty"`
}

// system resolves the experiment's platform: a registered system by
// name, or one assembled from the GPU/GPUCount/Nodes fields.
func (e Experiment) system() (hw.System, error) {
	if e.System != "" {
		if e.GPU != "" || e.GPUCount != 0 || e.Nodes != 0 {
			return hw.System{}, fmt.Errorf("system %q and gpu/gpu_count/nodes are mutually exclusive", e.System)
		}
		sys, err := hw.SystemByName(e.System)
		if err != nil {
			return hw.System{}, err
		}
		return sys, nil
	}
	g := hw.ByName(e.GPU)
	if g == nil {
		return hw.System{}, fmt.Errorf("unknown GPU %q (have %v)", e.GPU, hw.Names())
	}
	n := e.GPUCount
	if n == 0 {
		n = 4
	}
	if n < 1 {
		return hw.System{}, fmt.Errorf("invalid GPU count %d", n)
	}
	if e.Nodes < 0 {
		return hw.System{}, fmt.Errorf("invalid node count %d", e.Nodes)
	}
	if e.Nodes > 1 {
		return hw.NewMultiNode(g, n, e.Nodes), nil
	}
	return hw.NewSystem(g, n), nil
}

// Config resolves the experiment against the platform and model
// registries into a runnable core.Config.
func (e Experiment) Config() (core.Config, error) {
	cfg, err := e.config()
	if err != nil {
		return core.Config{}, fmt.Errorf("sweep: %w", err)
	}
	return cfg, nil
}

// config is Config without the package prefix on its errors, for
// callers in this package that add their own.
func (e Experiment) config() (core.Config, error) {
	sys, err := e.system()
	if err != nil {
		return core.Config{}, err
	}
	m, err := model.ByName(e.Model)
	if err != nil {
		return core.Config{}, fmt.Errorf("%w (have %v)", err, model.Names())
	}
	parName := e.Parallelism
	if parName == "" {
		parName = "fsdp"
	}
	par, err := core.ParseParallelism(parName)
	if err != nil {
		return core.Config{}, err
	}
	fmtName := e.Format
	if fmtName == "" {
		fmtName = "fp16"
	}
	f, err := precision.Parse(fmtName)
	if err != nil {
		return core.Config{}, err
	}
	batch := e.Batch
	if batch == 0 {
		batch = 8
	}
	if batch < 1 {
		return core.Config{}, fmt.Errorf("invalid batch %d", batch)
	}
	if e.TPDegree < 0 {
		return core.Config{}, fmt.Errorf("invalid TP degree %d", e.TPDegree)
	}
	if e.MicroBatch < 0 {
		return core.Config{}, fmt.Errorf("invalid micro-batch %d", e.MicroBatch)
	}
	if e.Iterations < 0 {
		return core.Config{}, fmt.Errorf("invalid iterations %d", e.Iterations)
	}
	if e.GradAccumSteps < 0 {
		return core.Config{}, fmt.Errorf("invalid grad accumulation steps %d", e.GradAccumSteps)
	}
	caps := power.Caps{PowerW: e.PowerCapW, FreqFactor: e.FreqCap}
	if err := caps.Validate(sys.GPU); err != nil {
		return core.Config{}, err
	}
	return core.Config{
		System:          sys,
		Model:           m,
		Parallelism:     par,
		Batch:           batch,
		MicroBatch:      e.MicroBatch,
		TPDegree:        e.TPDegree,
		Format:          f,
		MatrixUnits:     !e.VectorOnly,
		NoCheckpoint:    e.NoCheckpoint,
		GradAccumSteps:  e.GradAccumSteps,
		Iterations:      e.Iterations,
		Warmup:          e.Warmup,
		Caps:            caps,
		SkipMemoryCheck: e.SkipMemoryCheck,
	}, nil
}

// Spec is a declarative sweep: the cartesian product of the axis fields,
// with the Base experiment supplying every knob an axis does not cover.
// Empty axes default to the corresponding Base value, so the smallest
// valid spec lists only GPUs and Models.
type Spec struct {
	// Name labels the sweep in reports and job listings.
	Name string `json:"name,omitempty"`
	// Systems are registered system names. A spec lists either Systems
	// or GPUs (with the optional GPUCounts/Nodes shape axes), not both.
	Systems []string `json:"systems,omitempty"`
	// GPUs are registered GPU names.
	GPUs []string `json:"gpus,omitempty"`
	// GPUCounts are node sizes (default: Base.GPUCount or 4).
	GPUCounts []int `json:"gpu_counts,omitempty"`
	// Nodes are node counts joined by the NIC tier (default: Base.Nodes
	// or a single node). Applies to the GPUs axis only — a named system
	// carries its own shape.
	Nodes []int `json:"nodes,omitempty"`
	// Models are Table II workload names (required).
	Models []string `json:"models"`
	// Parallelisms are registered strategy names (default:
	// Base.Parallelism or fsdp); expansion validates each against the
	// strategy registry.
	Parallelisms []string `json:"parallelisms,omitempty"`
	// Batches are global batch sizes (default: Base.Batch or 8).
	Batches []int `json:"batches,omitempty"`
	// TPDegrees are tensor-parallel group sizes (default: Base.TPDegree).
	// The axis applies only to strategies whose registry Info reads the
	// knob; for every other strategy one point is expanded at the base
	// degree, so a mixed fsdp+tp spec does not duplicate fsdp points.
	TPDegrees []int `json:"tp_degrees,omitempty"`
	// Formats are numeric format names (default: Base.Format or fp16).
	Formats []string `json:"formats,omitempty"`
	// PowerCapsW are per-GPU power caps in watts; 0 means uncapped
	// (default: Base.PowerCapW).
	PowerCapsW []float64 `json:"power_caps_w,omitempty"`
	// MatrixUnits sweeps the Tensor/Matrix-core toggle (default: the
	// complement of Base.VectorOnly).
	MatrixUnits []bool `json:"matrix_units,omitempty"`
	// Base supplies the non-swept knobs (microbatch, checkpointing,
	// iteration counts, frequency cap, ...). Its GPU/Model fields are
	// ignored — the axes above own them.
	Base Experiment `json:"base,omitempty"`
}

// ParseSpec decodes a JSON sweep spec, rejecting unknown fields so typos
// in axis names fail loudly instead of silently shrinking the grid.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: parsing spec: %w", err)
	}
	return &s, nil
}

// effectiveStrategy resolves a parallelism axis value in the experiment
// vocabulary, where the empty name means the fsdp default.
func effectiveStrategy(name string) (strategy.Strategy, error) {
	if name == "" {
		name = "fsdp"
	}
	return strategy.Lookup(name)
}

// degreeAxisLen returns how many TP-degree points the axis contributes
// for one strategy: its full length for strategies that read the knob
// (and for unknown names, keeping Size an upper bound), one otherwise.
func (s *Spec) degreeAxisLen(par string) int {
	if len(s.TPDegrees) == 0 {
		return 1
	}
	if st, err := effectiveStrategy(par); err == nil && !st.Describe().TPDegree {
		return 1
	}
	return len(s.TPDegrees)
}

// platformPoints returns how many points the platform axes (Systems, or
// GPUs × GPUCounts × Nodes) contribute.
func (s *Spec) platformPoints() int {
	if len(s.Systems) > 0 {
		return len(s.Systems)
	}
	pts := len(s.GPUs)
	for _, k := range []int{len(s.GPUCounts), len(s.Nodes)} {
		if k > 0 {
			pts = satMul(pts, k)
		}
	}
	return pts
}

// Size returns the number of cartesian grid points the spec describes,
// including the per-strategy TP-degree axis collapse. Expand additionally
// deduplicates points that canonicalize to the same fingerprint, so Size
// is an exact upper bound on the expansion (equal to it whenever the
// axes hold no overlapping values) — the service's pre-materialization
// limit check therefore never falsely rejects a valid spec. It saturates
// at math.MaxInt so adversarially long axes cannot wrap the product past
// a size limit.
func (s *Spec) Size() int {
	base := satMul(s.platformPoints(), len(s.Models))
	for _, k := range []int{
		len(s.Batches), len(s.Formats),
		len(s.PowerCapsW), len(s.MatrixUnits),
	} {
		if k > 0 {
			base = satMul(base, k)
		}
	}
	pars := s.Parallelisms
	if len(pars) == 0 {
		pars = []string{s.Base.Parallelism}
	}
	total := 0
	for _, par := range pars {
		total = satAdd(total, satMul(base, s.degreeAxisLen(par)))
	}
	return total
}

// satAdd adds non-negative ints, saturating at math.MaxInt.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// satMul multiplies non-negative ints, saturating at math.MaxInt.
func satMul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// Platform is one point of the platform axes: a named system, or a
// GPU/shape triple.
type Platform struct {
	System   string
	GPU      string
	GPUCount int
	Nodes    int
}

// platforms materializes the platform axis, validating the
// Systems-versus-GPUs exclusivity.
func (s *Spec) platforms() ([]Platform, error) {
	if len(s.Systems) > 0 {
		if len(s.GPUs) > 0 || len(s.GPUCounts) > 0 || len(s.Nodes) > 0 {
			return nil, fmt.Errorf("sweep: spec %q lists both systems and gpus/gpu_counts/nodes axes", s.Name)
		}
		out := make([]Platform, len(s.Systems))
		for i, name := range s.Systems {
			out[i] = Platform{System: name}
		}
		return out, nil
	}
	if len(s.GPUs) == 0 {
		return nil, fmt.Errorf("sweep: spec %q lists no systems or GPUs", s.Name)
	}
	counts := s.GPUCounts
	if len(counts) == 0 {
		counts = []int{s.Base.GPUCount}
	}
	nodes := s.Nodes
	if len(nodes) == 0 {
		nodes = []int{s.Base.Nodes}
	}
	var out []Platform
	for _, gpu := range s.GPUs {
		for _, n := range counts {
			for _, nd := range nodes {
				out = append(out, Platform{GPU: gpu, GPUCount: n, Nodes: nd})
			}
		}
	}
	return out, nil
}

// Axes is a spec's normalized axis set: every axis non-empty with the
// Base defaults applied, and the platform axes resolved into one
// Platform per point. Expand iterates it in row-major order, and the
// advisor (internal/opt) derives coordinate search spaces from it, so
// both agree on axis order, defaults and the per-strategy TP-degree
// collapse.
type Axes struct {
	Platforms    []Platform
	Models       []string
	Parallelisms []string
	Batches      []int
	TPDegrees    []int
	Formats      []string
	PowerCapsW   []float64
	MatrixUnits  []bool
	Base         Experiment
}

// Axes normalizes the spec's axes, validating the platform-axis
// exclusivity and that models are present. Registry names are resolved
// later, per point, by Experiment.Config.
func (s *Spec) Axes() (*Axes, error) {
	plats, err := s.platforms()
	if err != nil {
		return nil, err
	}
	if len(s.Models) == 0 {
		return nil, fmt.Errorf("sweep: spec %q lists no models", s.Name)
	}
	a := &Axes{
		Platforms:    plats,
		Models:       s.Models,
		Parallelisms: s.Parallelisms,
		Batches:      s.Batches,
		TPDegrees:    s.TPDegrees,
		Formats:      s.Formats,
		PowerCapsW:   s.PowerCapsW,
		MatrixUnits:  s.MatrixUnits,
		Base:         s.Base,
	}
	if len(a.Parallelisms) == 0 {
		a.Parallelisms = []string{s.Base.Parallelism}
	}
	if len(a.Batches) == 0 {
		a.Batches = []int{s.Base.Batch}
	}
	if len(a.TPDegrees) == 0 {
		a.TPDegrees = []int{s.Base.TPDegree}
	}
	if len(a.Formats) == 0 {
		a.Formats = []string{s.Base.Format}
	}
	if len(a.PowerCapsW) == 0 {
		a.PowerCapsW = []float64{s.Base.PowerCapW}
	}
	if len(a.MatrixUnits) == 0 {
		a.MatrixUnits = []bool{!s.Base.VectorOnly}
	}
	return a, nil
}

// Dims returns the axis lengths in row-major iteration order: platform,
// model, parallelism, batch, TP degree, format, power cap, matrix units.
func (a *Axes) Dims() []int {
	return []int{
		len(a.Platforms), len(a.Models), len(a.Parallelisms),
		len(a.Batches), len(a.TPDegrees), len(a.Formats),
		len(a.PowerCapsW), len(a.MatrixUnits),
	}
}

// At builds the experiment at one coordinate of the axis grid (indices
// in Dims order). Strategies whose registry Info does not read the
// TP-degree knob are pinned to the base degree, so every coordinate
// along an inert degree axis yields the same experiment — Expand and the
// advisor both collapse those through fingerprint deduplication.
func (a *Axes) At(coord []int) Experiment {
	e := a.Base
	plat := a.Platforms[coord[0]]
	e.System = plat.System
	e.GPU = plat.GPU
	e.GPUCount = plat.GPUCount
	e.Nodes = plat.Nodes
	e.Model = a.Models[coord[1]]
	e.Parallelism = a.Parallelisms[coord[2]]
	e.Batch = a.Batches[coord[3]]
	e.TPDegree = a.TPDegrees[coord[4]]
	if st, err := effectiveStrategy(e.Parallelism); err == nil && !st.Describe().TPDegree {
		e.TPDegree = a.Base.TPDegree
	}
	e.Format = a.Formats[coord[5]]
	e.PowerCapW = a.PowerCapsW[coord[6]]
	e.VectorOnly = !a.MatrixUnits[coord[7]]
	return e
}

// Next advances coord to the following row-major grid point, returning
// false after the last one. A coord of all zeros is the first point.
func Next(coord, dims []int) bool {
	for i := len(coord) - 1; i >= 0; i-- {
		coord[i]++
		if coord[i] < dims[i] {
			return true
		}
		coord[i] = 0
	}
	return false
}

// Expand resolves the spec into one Experiment per unique grid point, in
// deterministic row-major axis order (platform outermost, matrix units
// innermost). Points whose configs canonicalize to the same fingerprint
// — overlapping axis values, or knobs inert for a strategy — expand
// once, at their first coordinate, so no grid ever runs (or caches) the
// same configuration twice. It fails on an empty grid or any name that
// does not resolve against the registries — systems, GPUs, models and
// strategies alike.
func (s *Spec) Expand() ([]Experiment, []core.Config, error) {
	axes, err := s.Axes()
	if err != nil {
		return nil, nil, err
	}
	dims := axes.Dims()
	coord := make([]int, len(dims))
	seen := make(map[string]struct{})
	var exps []Experiment
	var cfgs []core.Config
	for ok := true; ok; ok = Next(coord, dims) {
		e := axes.At(coord)
		cfg, err := e.config()
		if err != nil {
			return nil, nil, fmt.Errorf("sweep: spec %q point %d: %w", s.Name, len(exps), err)
		}
		key, err := cfg.Fingerprint()
		if err != nil {
			return nil, nil, fmt.Errorf("sweep: spec %q point %d: %w", s.Name, len(exps), err)
		}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		exps = append(exps, e)
		cfgs = append(cfgs, cfg)
	}
	return exps, cfgs, nil
}

// Validate expands the spec without running anything, so a CLI (or CI
// step) can reject bad axes — unknown system/GPU/model/strategy names,
// invalid shapes, conflicting platform axes — before any simulation
// starts. It returns the number of unique grid points the spec expands
// to after fingerprint deduplication.
func (s *Spec) Validate() (int, error) {
	_, cfgs, err := s.Expand()
	if err != nil {
		return 0, err
	}
	return len(cfgs), nil
}
