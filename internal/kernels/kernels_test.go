package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"overlapsim/internal/hw"
	"overlapsim/internal/precision"
)

func TestGEMMAccounting(t *testing.T) {
	d := GEMM("g", 128, 256, 512, 1, precision.FP16, precision.Matrix)
	if want := 2.0 * 128 * 256 * 512; d.FLOPs != want {
		t.Errorf("FLOPs = %g, want %g", d.FLOPs, want)
	}
	if want := (128*512 + 512*256 + 128*256) * 2.0; d.Bytes != want {
		t.Errorf("Bytes = %g, want %g", d.Bytes, want)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGEMMBatchMultiplies(t *testing.T) {
	a := GEMM("a", 64, 64, 64, 1, precision.FP16, precision.Matrix)
	b := GEMM("b", 64, 64, 64, 8, precision.FP16, precision.Matrix)
	if b.FLOPs != 8*a.FLOPs || b.Bytes != 8*a.Bytes {
		t.Errorf("batch=8 should scale work by 8: %g vs %g", b.FLOPs, a.FLOPs)
	}
}

func TestValidateRejectsBadDescs(t *testing.T) {
	cases := []Desc{
		{Name: "neg", FLOPs: -1},
		{Name: "empty"},
		{Name: "gemm-no-dims", Op: OpGEMM, FLOPs: 10, Bytes: 10},
	}
	for _, d := range cases {
		if d.Validate() == nil {
			t.Errorf("%s: expected validation error", d.Name)
		}
	}
}

func TestAI(t *testing.T) {
	d := Desc{Name: "x", FLOPs: 100, Bytes: 50}
	if d.AI() != 2 {
		t.Errorf("AI = %g, want 2", d.AI())
	}
	d.Bytes = 0
	if !math.IsInf(d.AI(), 1) {
		t.Errorf("AI with no bytes should be +Inf")
	}
}

func TestFuseTotals(t *testing.T) {
	a := GEMM("a", 128, 128, 4096, 1, precision.FP16, precision.Matrix)
	b := Elementwise("b", 1e6, 2, 0, precision.FP16)
	f := Fuse("fused", a, b)
	if f.FLOPs != a.FLOPs+b.FLOPs {
		t.Errorf("fused FLOPs = %g, want %g", f.FLOPs, a.FLOPs+b.FLOPs)
	}
	if f.Bytes != a.Bytes+b.Bytes {
		t.Errorf("fused Bytes = %g, want %g", f.Bytes, a.Bytes+b.Bytes)
	}
	// Headline shape comes from the dominant GEMM.
	if f.K != a.K || f.Path != precision.Matrix {
		t.Errorf("fused headline = K%g/%v, want K%g/matrix", f.K, f.Path, a.K)
	}
	vec, mat := f.FLOPsByPath()
	if mat != a.FLOPs || vec != b.FLOPs {
		t.Errorf("FLOPsByPath = (%g, %g), want (%g, %g)", vec, mat, b.FLOPs, a.FLOPs)
	}
}

func TestFuseOfFusedPanics(t *testing.T) {
	a := GEMM("a", 16, 16, 16, 1, precision.FP16, precision.Matrix)
	f := Fuse("f", a)
	defer func() {
		if recover() == nil {
			t.Error("expected panic fusing a fused descriptor")
		}
	}()
	Fuse("ff", f)
}

func TestFusedTimeIsSumOfParts(t *testing.T) {
	g := hw.H100()
	a := GEMM("a", 4096, 4096, 4096, 1, precision.FP16, precision.Matrix)
	b := Norm("b", 1e8, precision.FP16)
	f := Fuse("f", a, b)
	want := BaseTime(a, g) + BaseTime(b, g)
	if got := BaseTime(f, g); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("fused time %g, want sum of parts %g", got, want)
	}
}

func TestBaseTimeRoofline(t *testing.T) {
	g := hw.H100()
	// Huge-k GEMM: compute bound — time ≈ flops / (peak·eff).
	cb := GEMM("cb", 8192, 8192, 8192, 1, precision.FP16, precision.Matrix)
	eff := g.GEMMEff(8192, precision.Matrix, precision.FP16)
	wantCB := cb.FLOPs / (g.PeakFLOPS(precision.Matrix, precision.FP16) * eff)
	if got := BaseTime(cb, g); math.Abs(got-wantCB)/wantCB > 1e-9 {
		t.Errorf("compute-bound time %g, want %g", got, wantCB)
	}
	// Pointwise kernel: memory bound — time ≈ bytes / membw.
	mb := Elementwise("mb", 1e9, 1, 0, precision.FP16)
	wantMB := mb.Bytes / g.MemBW()
	if got := BaseTime(mb, g); math.Abs(got-wantMB)/wantMB > 1e-9 {
		t.Errorf("memory-bound time %g, want %g", got, wantMB)
	}
}

func TestRateContentionMonotonic(t *testing.T) {
	g := hw.MI250()
	d := GEMM("d", 4096, 4096, 4096, 1, precision.FP16, precision.Matrix)
	c := d.CostOn(g)
	base := c.Rate(1, 0, 0, 0)
	cases := []struct {
		name               string
		freq, sm, hbm, ser float64
	}{
		{"sm-steal", 1, 32, 0, 0},
		{"hbm-steal", 1, 0, 1e12, 0},
		{"serialize", 1, 0, 0, 0.4},
		{"throttle", 0.5, 0, 0, 0},
		{"all", 0.5, 32, 1e12, 0.4},
	}
	for _, tc := range cases {
		r := c.Rate(tc.freq, tc.sm, tc.hbm, tc.ser)
		if r > base {
			t.Errorf("%s: contended rate %g exceeds base %g", tc.name, r, base)
		}
		if r <= 0 {
			t.Errorf("%s: rate must stay positive, got %g", tc.name, r)
		}
	}
}

func TestMemoryFloorGuaranteesProgress(t *testing.T) {
	g := hw.A100()
	d := Elementwise("e", 1e8, 1, 0, precision.FP16)
	// Absurd HBM steal: the floor keeps the kernel moving.
	r := d.CostOn(g).Rate(1, 0, 1e15, 0)
	if r <= 0 || math.IsInf(r, 1) {
		t.Errorf("rate under total bandwidth steal = %g", r)
	}
}

func TestOptimizerBytes(t *testing.T) {
	d := Optimizer("opt", 1e6)
	if want := 1e6 * float64(AdamBytesPerParam); d.Bytes != want {
		t.Errorf("optimizer bytes = %g, want %g", d.Bytes, want)
	}
	if d.Path != precision.Vector {
		t.Error("optimizer must run on the vector datapath")
	}
}

func TestWork(t *testing.T) {
	if w := Work(Desc{FLOPs: 5, Bytes: 10}); w != 5 {
		t.Errorf("Work prefers FLOPs: got %g", w)
	}
	if w := Work(Desc{Bytes: 10}); w != 10 {
		t.Errorf("Work falls back to bytes: got %g", w)
	}
}

// TestUtilizationBounds checks Cost.Activity, the datapath and memory
// utilizations the power model reads: each lies in [0,1] at the
// contention-free rate, a matrix GEMM shows matrix activity, and a
// stalled (r = 0) or instantaneous (r = +Inf) kernel shows none.
func TestUtilizationBounds(t *testing.T) {
	g := hw.H100()
	d := GEMM("d", 4096, 4096, 4096, 1, precision.FP16, precision.Matrix)
	c := d.CostOn(g)
	vec, mat, mem := c.Activity(c.Rate(1, 0, 0, 0), 1)
	for _, u := range []float64{vec, mat, mem} {
		if u < 0 || u > 1 {
			t.Errorf("activity out of [0,1]: %g %g %g", vec, mat, mem)
		}
	}
	if mat <= 0 {
		t.Error("matrix GEMM should show matrix activity")
	}
	for _, r := range []float64{0, math.Inf(1)} {
		if vec, mat, mem := c.Activity(r, 1); vec != 0 || mat != 0 || mem != 0 {
			t.Errorf("activity at rate %g = %g %g %g, want zeros", r, vec, mat, mem)
		}
	}
}

// Property: rate is monotone non-increasing in every contention input.
func TestQuickRateMonotone(t *testing.T) {
	g := hw.H100()
	d := GEMM("d", 2048, 2048, 2048, 1, precision.FP16, precision.Matrix)
	f := func(sm1, sm2, hbm1, hbm2, ser1, ser2 uint8) bool {
		s1, s2 := float64(sm1%64), float64(sm2%64)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		h1, h2 := float64(hbm1)*1e10, float64(hbm2)*1e10
		if h1 > h2 {
			h1, h2 = h2, h1
		}
		e1, e2 := float64(ser1%90)/100, float64(ser2%90)/100
		if e1 > e2 {
			e1, e2 = e2, e1
		}
		c := d.CostOn(g)
		return c.Rate(1, s2, h2, e2) <= c.Rate(1, s1, h1, e1)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: GEMM work formulas scale linearly in each dimension.
func TestQuickGEMMLinearity(t *testing.T) {
	f := func(m, n, k uint8) bool {
		mm, nn, kk := float64(m%64+1), float64(n%64+1), float64(k%64+1)
		a := GEMM("a", mm, nn, kk, 1, precision.FP16, precision.Matrix)
		b := GEMM("b", 2*mm, nn, kk, 1, precision.FP16, precision.Matrix)
		return math.Abs(b.FLOPs-2*a.FLOPs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPreparedCostBitIdentical pins the prepared cost to the definition
// it replaces: a fused descriptor's time is its parts' times added in
// fusion order, bit for bit, whether its repeated parts are stored once
// (a layer stack) or it has too many distinct parts to deduplicate. A
// descriptor prepared for one GPU and rated on another falls back to
// that GPU's constants.
func TestPreparedCostBitIdentical(t *testing.T) {
	layer := []Desc{
		GEMM("qkv", 2048, 6144, 2048, 1, precision.FP16, precision.Matrix),
		Norm("ln", 4e6, precision.FP16),
		Elementwise("gelu", 8e6, 8, 0, precision.FP16),
		GEMM("fp32", 512, 512, 512, 1, precision.FP32, precision.Matrix), // no FP32 matrix peak on some GPUs
	}
	var stack, varied []Desc
	for l := 0; l < 6; l++ {
		stack = append(stack, layer...)
	}
	for i := 0; i < maxDistinctParts+8; i++ {
		varied = append(varied, GEMM("g", float64(64+i), 128, 256, 1, precision.BF16, precision.Matrix))
	}
	contention := [][4]float64{{1, 0, 0, 0}, {0.63, 24, 3e11, 0.3}, {0, 200, 5e12, 0.99}}
	for _, g := range []*hw.GPUSpec{hw.H100(), hw.MI250()} {
		for name, parts := range map[string][]Desc{"stack": stack, "varied": varied} {
			fused := Fuse(name, parts...)
			for _, prepared := range []Desc{Prepare(fused, g), Prepare(fused, hw.A100())} {
				for _, c := range contention {
					want := 0.0
					for _, p := range parts {
						want += p.CostOn(g).Time(c[0], c[1], c[2], c[3])
					}
					got := prepared.CostOn(g).Time(c[0], c[1], c[2], c[3])
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s on %s %v: time %v, sum of parts %v", name, g.Name, c, got, want)
					}
				}
			}
		}
	}
}
