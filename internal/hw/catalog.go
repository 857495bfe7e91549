package hw

import "overlapsim/internal/precision"

// The catalog entries below reproduce Table I of the paper plus the
// additional datasheet numbers (memory bandwidth, SM counts, clocks) and
// contention/power coefficients. Those coefficients are checked against
// the paper's takeaways in internal/core/takeaways_test.go and can be
// re-fitted from measured profiles (internal/calib; walkthrough in
// examples/calibration/README.md).

// A100 is the NVIDIA A100-SXM4-40GB.
func A100() *GPUSpec {
	return &GPUSpec{
		Name:     "A100",
		Vendor:   NVIDIA,
		Year:     2020,
		SMs:      108,
		BoostMHz: 1410,

		MemGB:       40,
		MemBWGBs:    1555,
		MemHeadroom: 0.85,

		LinkBWGBs:   600,
		LinkLatency: 6e-6,
		AlgEff:      0.50,

		TDPW: 400,

		VectorTFLOPS: map[precision.Format]float64{
			precision.FP32: 19.5,
			precision.FP16: 78.0,
			precision.BF16: 39.0,
		},
		MatrixTFLOPS: map[precision.Format]float64{
			precision.TF32: 156.0,
			precision.FP32: 156.0, // executed as TF32
			precision.FP16: 312.0,
			precision.BF16: 312.0,
		},
		TableFP32TFLOPS: 19.5,
		TableFP16TFLOPS: 312,

		KHalfVector:     192,
		KHalfMatrix:     2560,
		KHalfMatrixTF32: 1792,
		MaxEff:          0.90,

		Power: PowerParams{
			IdleW:   55,
			VectorW: 340,
			MatrixW: 430,
			MemW:    170,
			CommW:   70,
			SurgeW:  150,
			FMin:    0.30,
			FreqExp: 2.0,
		},
		Contention: ContentionParams{
			CollSMsReduce:  14,
			CollSMsCopy:    5,
			HBMPerWireByte: 2.5,
			SerializeFrac:  0.12,
		},
	}
}

// H100 is the NVIDIA H100-SXM5-80GB.
func H100() *GPUSpec {
	return &GPUSpec{
		Name:     "H100",
		Vendor:   NVIDIA,
		Year:     2022,
		SMs:      132,
		BoostMHz: 1980,

		MemGB:       80,
		MemBWGBs:    3350,
		MemHeadroom: 0.85,

		LinkBWGBs:   900,
		LinkLatency: 5e-6,
		AlgEff:      0.50,

		TDPW: 700,

		VectorTFLOPS: map[precision.Format]float64{
			precision.FP32: 66.9,
			precision.FP16: 133.8,
			precision.BF16: 133.8,
		},
		MatrixTFLOPS: map[precision.Format]float64{
			precision.TF32: 494.7,
			precision.FP32: 494.7, // executed as TF32
			precision.FP16: 989.4,
			precision.BF16: 989.4,
		},
		TableFP32TFLOPS: 66.9,
		TableFP16TFLOPS: 1979, // Table I prints the sparsity peak

		KHalfVector:     192,
		KHalfMatrix:     6144,
		KHalfMatrixTF32: 4096,
		MaxEff:          0.90,

		Power: PowerParams{
			IdleW:   80,
			VectorW: 520,
			MatrixW: 1050,
			MemW:    300,
			CommW:   120,
			SurgeW:  300,
			FMin:    0.30,
			FreqExp: 2.0,
		},
		Contention: ContentionParams{
			CollSMsReduce:  20,
			CollSMsCopy:    6,
			HBMPerWireByte: 2.5,
			SerializeFrac:  0.15,
		},
	}
}

// MI210 is the AMD Instinct MI210 (one Aldebaran GCD).
func MI210() *GPUSpec {
	return &GPUSpec{
		Name:     "MI210",
		Vendor:   AMD,
		Year:     2021,
		SMs:      104,
		BoostMHz: 1700,

		MemGB:       64,
		MemBWGBs:    1638,
		MemHeadroom: 0.85,

		LinkBWGBs:   300,
		LinkLatency: 8e-6,
		AlgEff:      0.32,

		TDPW: 300,

		VectorTFLOPS: map[precision.Format]float64{
			precision.FP32: 22.6,
			precision.FP16: 45.3,
			precision.BF16: 45.3,
		},
		MatrixTFLOPS: map[precision.Format]float64{
			precision.TF32: 45.3, // matrix FP32 (AMD has no TF32 mode)
			precision.FP32: 45.3,
			precision.FP16: 181.0,
			precision.BF16: 181.0,
		},
		TableFP32TFLOPS: 22.6,
		TableFP16TFLOPS: 181.0,

		KHalfVector:     192,
		KHalfMatrix:     3072,
		KHalfMatrixTF32: 2048,
		MaxEff:          0.85,

		Power: PowerParams{
			IdleW:   42,
			VectorW: 250,
			MatrixW: 420,
			MemW:    130,
			CommW:   55,
			SurgeW:  100,
			FMin:    0.30,
			FreqExp: 2.0,
		},
		Contention: ContentionParams{
			CollSMsReduce:  24,
			CollSMsCopy:    8,
			HBMPerWireByte: 3.0,
			SerializeFrac:  0.50,
		},
	}
}

// MI250 is the AMD Instinct MI250 (both Aldebaran GCDs, presented as one
// device as in Table I).
func MI250() *GPUSpec {
	return &GPUSpec{
		Name:     "MI250",
		Vendor:   AMD,
		Year:     2021,
		SMs:      208,
		BoostMHz: 1700,

		MemGB:       128,
		MemBWGBs:    3277,
		MemHeadroom: 0.85,

		LinkBWGBs:   300,
		LinkLatency: 8e-6,
		AlgEff:      0.32,

		TDPW: 560,

		VectorTFLOPS: map[precision.Format]float64{
			precision.FP32: 45.3,
			precision.FP16: 90.5,
			precision.BF16: 90.5,
		},
		MatrixTFLOPS: map[precision.Format]float64{
			precision.TF32: 90.5,
			precision.FP32: 90.5,
			precision.FP16: 362.1,
			precision.BF16: 362.1,
		},
		TableFP32TFLOPS: 45.3,
		TableFP16TFLOPS: 362.1,

		KHalfVector:     192,
		KHalfMatrix:     3072,
		KHalfMatrixTF32: 2048,
		MaxEff:          0.85,

		Power: PowerParams{
			IdleW:   90,
			VectorW: 430,
			MatrixW: 700,
			MemW:    240,
			CommW:   90,
			SurgeW:  200,
			FMin:    0.30,
			FreqExp: 2.0,
		},
		Contention: ContentionParams{
			// The MI250's two GCDs share one Infinity Fabric endpoint and
			// the RCCL kernels span both dies, so collectives occupy
			// proportionally more CUs and interfere more with compute;
			// this is the configuration where the paper observes its
			// worst-case 40% compute slowdown.
			CollSMsReduce:  40,
			CollSMsCopy:    16,
			HBMPerWireByte: 3.0,
			SerializeFrac:  0.62,
		},
	}
}

// Catalog returns the GPUs of Table I in the paper's order. The registry
// (Names, ByName, All) is the open superset; Catalog stays the paper's
// closed set so report tables and regression tests keep their shape.
func Catalog() []*GPUSpec {
	return []*GPUSpec{A100(), H100(), MI210(), MI250()}
}

// Standard systems used in the paper's experiments. They are also
// registered under their names, so "H100x8" resolves through
// SystemByName everywhere a user-defined system would.
var (
	// SystemA100x4 is the 4×A100 NVLink/NVSwitch node.
	SystemA100x4 = func() System { return NewSystem(A100(), 4) }
	// SystemH100x4 is the 4×H100 node used for the precision and
	// Tensor-Core ablations.
	SystemH100x4 = func() System { return NewSystem(H100(), 4) }
	// SystemH100x8 is the 8×H100 DGX node of Fig. 1(a).
	SystemH100x8 = func() System { return NewSystem(H100(), 8) }
	// SystemMI210x4 is the 4×MI210 Infinity Fabric node.
	SystemMI210x4 = func() System { return NewSystem(MI210(), 4) }
	// SystemMI250x4 is the 4×MI250 Infinity Fabric node.
	SystemMI250x4 = func() System { return NewSystem(MI250(), 4) }
)

// The Table I parts and the paper's systems self-register, exactly like
// the stock strategies do in their packages.
func init() {
	Register(A100)
	Register(H100)
	Register(MI210)
	Register(MI250)
	RegisterSystem(SystemA100x4)
	RegisterSystem(SystemH100x4)
	RegisterSystem(SystemH100x8)
	RegisterSystem(SystemMI210x4)
	RegisterSystem(SystemMI250x4)
}
