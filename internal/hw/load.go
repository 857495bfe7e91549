package hw

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"overlapsim/internal/precision"
)

// File is the JSON schema for user-defined hardware: a set of GPUs and a
// set of systems referencing them (or the built-ins) by name. Load
// registers both, after which the new names work everywhere a built-in
// does — core configs, sweep axes, the service catalog — with no code
// changes. See examples/custom_hardware for a worked file.
type File struct {
	GPUs    []GPUJSON    `json:"gpus,omitempty"`
	Systems []SystemJSON `json:"systems,omitempty"`
}

// GPUJSON is one user-defined GPU. Datasheet numbers are required; the
// calibration coefficients (saturation curve, contention, power split)
// default to values typical of the named vendor's catalog entries, so a
// minimal definition needs only the marketing page.
type GPUJSON struct {
	Name string `json:"name"`
	// Override allows this entry to replace an already-registered GPU of
	// the same name (a previous Load, or a built-in). Without it a name
	// collision is an error, so a typo cannot silently retarget existing
	// hardware. Calibration overlays (internal/calib) set it to swap a
	// fitted spec in for the stock Table I one.
	Override bool   `json:"override,omitempty"`
	Vendor   string `json:"vendor"` // "NVIDIA" or "AMD"
	Year     int    `json:"year,omitempty"`
	SMs      int    `json:"sms"`
	BoostMHz int    `json:"boost_mhz"`

	MemGB       float64 `json:"mem_gb"`
	MemBWGBs    float64 `json:"mem_bw_gbs"`
	MemHeadroom float64 `json:"mem_headroom,omitempty"` // default 0.85

	LinkBWGBs   float64 `json:"link_bw_gbs"`
	LinkLatency float64 `json:"link_latency_s,omitempty"` // default by vendor
	AlgEff      float64 `json:"alg_eff,omitempty"`        // default by vendor

	TDPW float64 `json:"tdp_w"`

	// Peak dense TFLOPS per datapath, keyed by lowercase format name
	// ("fp32", "tf32", "fp16", "bf16").
	VectorTFLOPS map[string]float64 `json:"vector_tflops"`
	MatrixTFLOPS map[string]float64 `json:"matrix_tflops,omitempty"`

	KHalfVector     float64 `json:"khalf_vector,omitempty"`
	KHalfMatrix     float64 `json:"khalf_matrix,omitempty"`
	KHalfMatrixTF32 float64 `json:"khalf_matrix_tf32,omitempty"`
	MaxEff          float64 `json:"max_eff,omitempty"`

	// Power overrides the component power split; omitted components are
	// derived from TDP with the vendor-typical ratios.
	Power *PowerJSON `json:"power,omitempty"`
	// Contention overrides the collective-interference coefficients;
	// omitted fields take the vendor-typical values.
	Contention *ContentionJSON `json:"contention,omitempty"`
}

// PowerJSON mirrors PowerParams with lowercase keys.
type PowerJSON struct {
	IdleW   float64 `json:"idle_w,omitempty"`
	VectorW float64 `json:"vector_w,omitempty"`
	MatrixW float64 `json:"matrix_w,omitempty"`
	MemW    float64 `json:"mem_w,omitempty"`
	CommW   float64 `json:"comm_w,omitempty"`
	SurgeW  float64 `json:"surge_w,omitempty"`
	FMin    float64 `json:"f_min,omitempty"`
	FreqExp float64 `json:"freq_exp,omitempty"`
}

// ContentionJSON mirrors ContentionParams with lowercase keys.
type ContentionJSON struct {
	CollSMsReduce  int     `json:"coll_sms_reduce,omitempty"`
	CollSMsCopy    int     `json:"coll_sms_copy,omitempty"`
	HBMPerWireByte float64 `json:"hbm_per_wire_byte,omitempty"`
	SerializeFrac  float64 `json:"serialize_frac,omitempty"`
}

// SystemJSON is one user-defined system.
type SystemJSON struct {
	Name string `json:"name"`
	// Override allows this entry to replace an already-registered system
	// of the same name; see GPUJSON.Override.
	Override bool `json:"override,omitempty"`
	// GPU names a GPU defined in the same file or already registered.
	GPU string `json:"gpu"`
	// GPUsPerNode is the node size (required).
	GPUsPerNode int `json:"gpus_per_node"`
	// Nodes is the node count (0 and 1 mean single-node).
	Nodes int `json:"nodes,omitempty"`
	// Fabric is the intra-node fabric kind ("switched" or "mesh"; empty
	// keeps the vendor default).
	Fabric string `json:"fabric,omitempty"`
	// NIC describes the inter-node tier of a multi-node system.
	NIC *NICJSON `json:"nic,omitempty"`
}

// NICJSON mirrors NICSpec with lowercase keys. Only the bandwidth is
// required; like every other omitted calibration field in this schema,
// a zero latency_s or alg_eff takes the DefaultNIC value (a NIC with
// literally zero latency is not a thing this model lets JSON describe).
type NICJSON struct {
	BWGBs   float64 `json:"bw_gbs"`
	Latency float64 `json:"latency_s,omitempty"`
	AlgEff  float64 `json:"alg_eff,omitempty"`
}

// Load parses a hardware file and registers its GPUs and systems in the
// default registry. Errors (schema violations, unknown references,
// duplicate names) are returned, not panicked: the input is user data,
// not program code. Registration is not transactional — entries
// preceding the offending one stay registered.
func Load(r io.Reader) error {
	return defaultReg.Load(r)
}

// Load parses a hardware file into this registry. An isolated registry
// (NewRegistry) resolves GPU references through the built-ins but keeps
// every registration local — the hermetic path tests and fuzzers use.
func (reg *Registry) Load(r io.Reader) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("hw: parsing hardware file: %w", err)
	}
	for i := range f.GPUs {
		spec, err := f.GPUs[i].Spec()
		if err != nil {
			return err
		}
		// Capture a private template; builders hand out fresh copies.
		tmpl := *spec
		if err := reg.registerGPU(func() *GPUSpec { return tmpl.Clone() }, f.GPUs[i].Override); err != nil {
			return err
		}
	}
	for i := range f.Systems {
		sys, err := f.Systems[i].system(reg)
		if err != nil {
			return err
		}
		tmpl := sys
		if err := reg.registerSys(func() System {
			s := tmpl
			s.GPU = tmpl.GPU.Clone()
			if tmpl.NIC != nil {
				nic := *tmpl.NIC
				s.NIC = &nic
			}
			return s
		}, f.Systems[i].Override); err != nil {
			return err
		}
	}
	return nil
}

// LoadFile is Load over the named file — what the CLIs' -hw-file flag
// calls.
func LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("hw: %w", err)
	}
	defer f.Close()
	if err := Load(f); err != nil {
		return fmt.Errorf("%w (in %s)", err, path)
	}
	return nil
}

// Spec converts the JSON form into a validated GPUSpec, applying
// vendor-typical defaults for every omitted calibration field.
func (j GPUJSON) Spec() (*GPUSpec, error) {
	v, err := ParseVendor(j.Vendor)
	if err != nil {
		return nil, fmt.Errorf("hw: GPU %q: %w", j.Name, err)
	}
	vec, err := parseTFLOPS(j.Name, "vector_tflops", j.VectorTFLOPS)
	if err != nil {
		return nil, err
	}
	mat, err := parseTFLOPS(j.Name, "matrix_tflops", j.MatrixTFLOPS)
	if err != nil {
		return nil, err
	}
	g := &GPUSpec{
		Name: j.Name, Vendor: v, Year: j.Year,
		SMs: j.SMs, BoostMHz: j.BoostMHz,
		MemGB: j.MemGB, MemBWGBs: j.MemBWGBs, MemHeadroom: j.MemHeadroom,
		LinkBWGBs: j.LinkBWGBs, LinkLatency: j.LinkLatency, AlgEff: j.AlgEff,
		TDPW:         j.TDPW,
		VectorTFLOPS: vec, MatrixTFLOPS: mat,
		KHalfVector: j.KHalfVector, KHalfMatrix: j.KHalfMatrix, KHalfMatrixTF32: j.KHalfMatrixTF32,
		MaxEff: j.MaxEff,
	}
	if g.TableFP32TFLOPS == 0 {
		g.TableFP32TFLOPS = vec[precision.FP32]
	}
	if g.TableFP16TFLOPS == 0 {
		g.TableFP16TFLOPS = mat[precision.FP16]
	}
	applyGPUDefaults(g, j.Power, j.Contention)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// applyGPUDefaults fills every omitted calibration field with values
// typical of the vendor's Table I entries, scaled to the part's TDP where
// the quantity is a power budget.
func applyGPUDefaults(g *GPUSpec, pw *PowerJSON, ct *ContentionJSON) {
	amd := g.Vendor == AMD
	pick := func(v *float64, nv, am float64) {
		if *v == 0 {
			if amd {
				*v = am
			} else {
				*v = nv
			}
		}
	}
	pick(&g.MemHeadroom, 0.85, 0.85)
	pick(&g.LinkLatency, 5e-6, 8e-6)
	pick(&g.AlgEff, 0.50, 0.32)
	pick(&g.KHalfVector, 192, 192)
	pick(&g.KHalfMatrix, 4096, 3072)
	pick(&g.KHalfMatrixTF32, 2816, 2048)
	pick(&g.MaxEff, 0.90, 0.85)

	var p PowerJSON
	if pw != nil {
		p = *pw
	}
	g.Power = PowerParams{
		IdleW: p.IdleW, VectorW: p.VectorW, MatrixW: p.MatrixW,
		MemW: p.MemW, CommW: p.CommW, SurgeW: p.SurgeW,
		FMin: p.FMin, FreqExp: p.FreqExp,
	}
	// Power-split defaults follow the component ratios of the calibrated
	// catalog entries, scaled to this part's TDP.
	pick(&g.Power.IdleW, 0.12*g.TDPW, 0.15*g.TDPW)
	pick(&g.Power.VectorW, 0.80*g.TDPW, 0.80*g.TDPW)
	pick(&g.Power.MatrixW, 1.30*g.TDPW, 1.30*g.TDPW)
	pick(&g.Power.MemW, 0.43*g.TDPW, 0.43*g.TDPW)
	pick(&g.Power.CommW, 0.17*g.TDPW, 0.17*g.TDPW)
	pick(&g.Power.SurgeW, 0.40*g.TDPW, 0.35*g.TDPW)
	pick(&g.Power.FMin, 0.30, 0.30)
	pick(&g.Power.FreqExp, 2.0, 2.0)

	var c ContentionJSON
	if ct != nil {
		c = *ct
	}
	g.Contention = ContentionParams{
		CollSMsReduce: c.CollSMsReduce, CollSMsCopy: c.CollSMsCopy,
		HBMPerWireByte: c.HBMPerWireByte, SerializeFrac: c.SerializeFrac,
	}
	if g.Contention.CollSMsReduce == 0 {
		if amd {
			g.Contention.CollSMsReduce = max(1, g.SMs/5)
		} else {
			g.Contention.CollSMsReduce = max(1, g.SMs/7)
		}
	}
	if g.Contention.CollSMsCopy == 0 {
		g.Contention.CollSMsCopy = max(1, g.Contention.CollSMsReduce/3)
	}
	pick(&g.Contention.HBMPerWireByte, 2.5, 3.0)
	pick(&g.Contention.SerializeFrac, 0.15, 0.50)
}

func parseTFLOPS(gpu, field string, in map[string]float64) (map[precision.Format]float64, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make(map[precision.Format]float64, len(in))
	for name, tf := range in {
		f, err := precision.Parse(name)
		if err != nil {
			return nil, fmt.Errorf("hw: GPU %q %s: %w", gpu, field, err)
		}
		if tf <= 0 {
			return nil, fmt.Errorf("hw: GPU %q %s[%s]: non-positive throughput %g", gpu, field, name, tf)
		}
		out[f] = tf
	}
	return out, nil
}

// System converts the JSON form into a validated System, resolving the
// GPU reference against the default registry (Load registers a file's
// GPUs before its systems, so in-file references resolve too).
func (j SystemJSON) System() (System, error) {
	return j.system(defaultReg)
}

// system is System resolving the GPU reference against reg.
func (j SystemJSON) system(reg *Registry) (System, error) {
	g, err := reg.GPUByName(j.GPU)
	if err != nil {
		return System{}, fmt.Errorf("hw: system %q: %w", j.Name, err)
	}
	s := System{
		Name: j.Name, GPU: g, N: j.GPUsPerNode,
		Fabric: j.Fabric,
	}
	if j.Nodes > 1 {
		s.Nodes = j.Nodes
	}
	if j.NIC != nil {
		nic := NICSpec{BWGBs: j.NIC.BWGBs, Latency: j.NIC.Latency, AlgEff: j.NIC.AlgEff}
		if nic.Latency == 0 {
			nic.Latency = DefaultNIC().Latency
		}
		s.NIC = &nic
	}
	if err := s.Validate(); err != nil {
		return System{}, err
	}
	return s, nil
}
