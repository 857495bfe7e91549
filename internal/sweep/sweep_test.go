package sweep

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"overlapsim/internal/core"
)

// testSpec is a small but multi-axis grid of real catalog entries.
func testSpec() *Spec {
	return &Spec{
		Name:         "test",
		GPUs:         []string{"H100", "MI250"},
		Models:       []string{"GPT-3 XL"},
		Parallelisms: []string{"fsdp", "pp"},
		Formats:      []string{"fp16"},
		Batches:      []int{8},
	}
}

func TestSpecExpansionCount(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want int
	}{
		{"minimal", Spec{GPUs: []string{"H100"}, Models: []string{"GPT-3 XL"}}, 1},
		{"two axes", *testSpec(), 4},
		{"full grid", Spec{
			GPUs:         []string{"A100", "H100"},
			GPUCounts:    []int{4, 8},
			Models:       []string{"GPT-3 XL", "GPT-3 2.7B"},
			Parallelisms: []string{"fsdp", "pp", "ddp"},
			Batches:      []int{8, 16},
			Formats:      []string{"fp16", "bf16"},
			PowerCapsW:   []float64{0, 300},
			MatrixUnits:  []bool{true, false},
		}, 2 * 2 * 2 * 3 * 2 * 2 * 2 * 2},
	}
	for _, tc := range cases {
		if got := tc.spec.Size(); got != tc.want {
			t.Errorf("%s: Size() = %d, want %d", tc.name, got, tc.want)
		}
		exps, cfgs, err := tc.spec.Expand()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(exps) != tc.want || len(cfgs) != tc.want {
			t.Errorf("%s: expanded to %d experiments / %d configs, want %d",
				tc.name, len(exps), len(cfgs), tc.want)
		}
	}
}

// The TP-degree axis multiplies the grid and threads through to the
// configs; strategy names resolve against the registry, so "tp" expands
// without sweep (or core) naming it.
func TestSpecExpansionTPDegrees(t *testing.T) {
	spec := Spec{
		GPUs:         []string{"H100"},
		GPUCounts:    []int{8},
		Models:       []string{"GPT-3 XL"},
		Parallelisms: []string{"tp"},
		TPDegrees:    []int{2, 4, 8},
		Batches:      []int{8},
	}
	if got := spec.Size(); got != 3 {
		t.Fatalf("Size() = %d, want 3", got)
	}
	exps, cfgs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range exps {
		if cfgs[i].TPDegree != e.TPDegree || cfgs[i].TPDegree != []int{2, 4, 8}[i] {
			t.Errorf("point %d: degree %d / %d", i, e.TPDegree, cfgs[i].TPDegree)
		}
		if cfgs[i].Parallelism != "tp" {
			t.Errorf("point %d: parallelism %q", i, cfgs[i].Parallelism)
		}
	}
	bad := spec
	bad.TPDegrees = []int{-2}
	if _, _, err := bad.Expand(); err == nil {
		t.Error("negative TP degree accepted")
	}

	// The axis is inert for strategies that ignore the knob: a mixed
	// fsdp+tp spec expands one fsdp point, not one per degree.
	mixed := spec
	mixed.Parallelisms = []string{"fsdp", "tp"}
	exps, cfgs, err = mixed.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 1+3 {
		t.Fatalf("mixed spec expanded to %d points, want 4", len(exps))
	}
	var fsdpPts, tpPts int
	for i := range cfgs {
		switch cfgs[i].Parallelism {
		case "fsdp":
			fsdpPts++
			if cfgs[i].TPDegree != 0 {
				t.Errorf("fsdp point carries TP degree %d", cfgs[i].TPDegree)
			}
		case "tp":
			tpPts++
		}
	}
	if fsdpPts != 1 || tpPts != 3 {
		t.Errorf("mixed spec: %d fsdp / %d tp points, want 1 / 3", fsdpPts, tpPts)
	}
	if mixed.Size() != len(exps) {
		t.Errorf("Size() = %d, want the exact expansion count %d", mixed.Size(), len(exps))
	}
}

// Overlapping axis values (and knobs that canonicalize away) must
// collapse: the expansion is deduplicated by canonical fingerprint, so a
// dup-axis spec runs exactly its unique configurations.
func TestSpecExpansionDedupesByFingerprint(t *testing.T) {
	spec := Spec{
		GPUs:       []string{"H100", "H100", "A100"},
		Models:     []string{"GPT-3 XL"},
		Batches:    []int{8, 8},
		PowerCapsW: []float64{0, 300, 0},
	}
	// 3 GPUs x 2 batches x 3 caps = 18 cartesian points, 4 unique:
	// {H100, A100} x bs=8 x {uncapped, 300 W}.
	if got := spec.Size(); got != 18 {
		t.Fatalf("Size() = %d, want the pre-dedup bound 18", got)
	}
	exps, cfgs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 4 || len(cfgs) != 4 {
		t.Fatalf("expanded to %d experiments / %d configs, want 4 unique", len(exps), len(cfgs))
	}
	keys := make(map[string]int)
	for i, cfg := range cfgs {
		key, err := cfg.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := keys[key]; dup {
			t.Errorf("points %d and %d share fingerprint %s", prev, i, key)
		}
		keys[key] = i
	}
	// First-coordinate-wins ordering: the deduped grid stays row-major.
	wantOrder := []struct {
		gpu string
		cap float64
	}{{"H100", 0}, {"H100", 300}, {"A100", 0}, {"A100", 300}}
	for i, w := range wantOrder {
		if exps[i].GPU != w.gpu || exps[i].PowerCapW != w.cap {
			t.Errorf("point %d = %s cap %g, want %s cap %g",
				i, exps[i].GPU, exps[i].PowerCapW, w.gpu, w.cap)
		}
	}
}

func TestSpecExpansionErrors(t *testing.T) {
	cases := map[string]Spec{
		"no gpus":         {Models: []string{"GPT-3 XL"}},
		"no models":       {GPUs: []string{"H100"}},
		"bad gpu":         {GPUs: []string{"B200"}, Models: []string{"GPT-3 XL"}},
		"bad model":       {GPUs: []string{"H100"}, Models: []string{"GPT-5"}},
		"bad par":         {GPUs: []string{"H100"}, Models: []string{"GPT-3 XL"}, Parallelisms: []string{"tensor"}},
		"bad format":      {GPUs: []string{"H100"}, Models: []string{"GPT-3 XL"}, Formats: []string{"fp8"}},
		"bad batch":       {GPUs: []string{"H100"}, Models: []string{"GPT-3 XL"}, Batches: []int{-1}},
		"bad cap":         {GPUs: []string{"H100"}, Models: []string{"GPT-3 XL"}, PowerCapsW: []float64{-5}},
		"bad gpus n":      {GPUs: []string{"H100"}, Models: []string{"GPT-3 XL"}, GPUCounts: []int{-2}},
		"bad freqcap":     {GPUs: []string{"H100"}, Models: []string{"GPT-3 XL"}, Base: Experiment{FreqCap: 1.5}},
		"bad nodes":       {GPUs: []string{"H100"}, Models: []string{"GPT-3 XL"}, Nodes: []int{-1}},
		"bad tp":          {GPUs: []string{"H100"}, Models: []string{"GPT-3 XL"}, Base: Experiment{TPDegree: -1}},
		"bad micro batch": {GPUs: []string{"H100"}, Models: []string{"GPT-3 XL"}, Base: Experiment{Parallelism: "pp", MicroBatch: -3}},
		"bad iterations":  {GPUs: []string{"H100"}, Models: []string{"GPT-3 XL"}, Base: Experiment{Iterations: -1}},
		"bad grad accum":  {GPUs: []string{"H100"}, Models: []string{"GPT-3 XL"}, Base: Experiment{GradAccumSteps: -2}},
	}
	for name, spec := range cases {
		if _, _, err := spec.Expand(); err == nil {
			t.Errorf("%s: expansion succeeded, want error", name)
		}
	}
}

// Size must saturate rather than wrap, so an adversarial spec cannot
// sneak a huge grid past a size limit via integer overflow.
func TestSpecSizeSaturates(t *testing.T) {
	axis := make([]string, 1<<16)
	batches := make([]int, 1<<16)
	caps := make([]float64, 1<<16)
	counts := make([]int, 1<<16)
	s := Spec{GPUs: axis, Models: axis, Batches: batches, PowerCapsW: caps, GPUCounts: counts}
	if got := s.Size(); got != math.MaxInt {
		t.Errorf("Size() = %d, want saturation at MaxInt", got)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec(strings.NewReader(`{"gpus":["H100"],"models":["GPT-3 XL"],"batchez":[8]}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestRunnerCacheHitMiss(t *testing.T) {
	_, cfgs, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	cache := NewMemCache()
	r := &Runner{Workers: 2, Cache: cache}

	cold, err := r.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 || cold.CacheMisses != len(cfgs) {
		t.Errorf("cold run: %d hits / %d misses, want 0 / %d",
			cold.CacheHits, cold.CacheMisses, len(cfgs))
	}
	if cache.Len() != len(cfgs) {
		t.Errorf("cache holds %d entries, want %d", cache.Len(), len(cfgs))
	}

	warm, err := r.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != len(cfgs) || warm.CacheMisses != 0 {
		t.Errorf("warm run: %d hits / %d misses, want %d / 0",
			warm.CacheHits, warm.CacheMisses, len(cfgs))
	}
	for i := range warm.Points {
		if !warm.Points[i].CacheHit {
			t.Errorf("point %d not served from cache", i)
		}
		if warm.Points[i].Res == nil {
			t.Fatalf("point %d has no result", i)
		}
		if got, want := warm.Points[i].Res.Overlapped.Mean.E2E, cold.Points[i].Res.Overlapped.Mean.E2E; got != want {
			t.Errorf("point %d cached E2E %g differs from computed %g", i, got, want)
		}
	}
}

func TestDirCachePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	_, cfgs, err := (&Spec{GPUs: []string{"H100"}, Models: []string{"GPT-3 XL"}}).Expand()
	if err != nil {
		t.Fatal(err)
	}

	c1, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Cache: c1}
	if _, err := r.Run(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}

	// A fresh instance over the same directory — as a separate process
	// would see it — serves every point from disk.
	c2, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := (&Runner{Cache: c2}).Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != len(cfgs) {
		t.Errorf("warm run hit %d/%d points", warm.CacheHits, len(cfgs))
	}
}

func TestDirCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Error("corrupt entry served as a hit")
	}
	if _, ok := c.Get("../../etc/passwd"); ok {
		t.Error("traversal key served as a hit")
	}
	if err := c.Put("../escape", &core.Result{}); err == nil {
		t.Error("traversal key accepted for Put")
	}
}

// One bad point must not abort the sweep: the worker pool collects the
// error and every other point still completes.
func TestRunnerFailSoftErrorAggregation(t *testing.T) {
	_, good, err := (&Spec{GPUs: []string{"H100"}, Models: []string{"GPT-3 XL"}, Parallelisms: []string{"fsdp", "pp"}}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	bad := good[0]
	bad.Parallelism = "warp" // not registered; rejected by core.RunMode
	cfgs := []core.Config{good[0], bad, good[1]}

	res, err := (&Runner{Workers: 2, Cache: NewMemCache()}).Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}
	if res.Points[1].Err == nil || res.Points[1].Res != nil {
		t.Error("bad point not recorded as failed")
	}
	if res.Points[0].Res == nil || res.Points[2].Res == nil {
		t.Error("good points did not complete alongside the failure")
	}
	agg := res.Err()
	if agg == nil || !strings.Contains(agg.Error(), "1/3 points failed") {
		t.Errorf("aggregate error = %v", agg)
	}
}

// Points come back in input order however the workers interleave.
func TestRunnerPreservesOrder(t *testing.T) {
	cfgs := stressGrid(3) // batches 8, 16, 24
	res, err := (&Runner{Workers: 3}).Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(cfgs) {
		t.Fatalf("got %d points for %d configs", len(res.Points), len(cfgs))
	}
	for i, p := range res.Points {
		if p.Index != i {
			t.Errorf("point %d has index %d", i, p.Index)
		}
		if p.Config.Batch != cfgs[i].Batch {
			t.Errorf("point %d batch %d, want %d", i, p.Config.Batch, cfgs[i].Batch)
		}
		if p.Res == nil {
			t.Errorf("point %d missing result: %v", i, p.Err)
		}
	}
}

// OOM is an expected outcome (the paper's skipped configurations), kept
// distinct from failures.
func TestRunnerClassifiesOOM(t *testing.T) {
	exp := Experiment{GPU: "A100", Model: "GPT-3 13B", Parallelism: "ddp"}
	cfg, err := exp.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Runner{}).Run(context.Background(), []core.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.OOMs != 1 || res.Failures != 0 {
		t.Fatalf("OOMs=%d failures=%d, want 1/0", res.OOMs, res.Failures)
	}
	if res.Points[0].OOM == nil {
		t.Error("OOM detail missing")
	}
	if res.Err() != nil {
		t.Errorf("OOM counted as failure: %v", res.Err())
	}
}

// Cancelling mid-sweep stops dispatch, marks undispatched points with
// the context error, and reports the cancellation.
func TestRunnerCancellation(t *testing.T) {
	_, cfgs, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{Workers: 1, Cache: NewMemCache()}
	r.OnPoint = func(Point) { cancel() } // cancel after the first point lands
	res, err := r.Run(ctx, cfgs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	done, cancelled := 0, 0
	for _, p := range res.Points {
		switch {
		case p.Res != nil:
			done++
		case errors.Is(p.Err, context.Canceled):
			cancelled++
		}
	}
	if done == 0 || cancelled == 0 || done+cancelled != len(cfgs) {
		t.Errorf("done=%d cancelled=%d of %d", done, cancelled, len(cfgs))
	}
}
