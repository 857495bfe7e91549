package overlapsim_bench

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"reflect"
	"testing"

	"overlapsim/internal/core"
	"overlapsim/internal/exec"
	"overlapsim/internal/fsdp"
	"overlapsim/internal/gpu"
	"overlapsim/internal/hw"
	"overlapsim/internal/model"
	"overlapsim/internal/precision"
	"overlapsim/internal/sim"
	"overlapsim/internal/strategy"
	"overlapsim/internal/sweep"
)

// declaredFSDPConfigs are the FSDP shapes whose declared symmetry the
// detector must confirm: every FSDP golden config, the FSDP points of
// the benchmark's paper grid, and the 512-rank core-scale shape.
func declaredFSDPConfigs(t *testing.T) []core.Config {
	t.Helper()
	f, err := os.Open("perfbench/inputs/paper_grid.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := sweep.ParseSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	_, grid, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var out []core.Config
	for _, cfg := range append(goldenConfigs(), grid...) {
		if cfg.Parallelism.Canonical() == "fsdp" {
			out = append(out, cfg)
		}
	}
	return append(out, core.Config{
		System:      hw.NewMultiNode(hw.H100(), 8, 64),
		Model:       model.GPT3XL(),
		Parallelism: "fsdp",
		Batch:       512,
		Format:      precision.FP16,
		MatrixUnits: true,
		Iterations:  1,
	})
}

// runDigest runs a plan and hashes its schedule and power telemetry.
func runDigest(t *testing.T, plan *exec.Plan) string {
	t.Helper()
	if err := plan.Run(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	hashPlan(h, &buf, plan)
	return hex.EncodeToString(h.Sum(nil))
}

// requireDeclaredMatchesOracle holds a declared FSDP plan to the
// detector: an identically built plan, its mirrors cleared, must detect
// the declared classes and record the same mirror on every task; and
// the declared collapse must reproduce that plan's full run bit for bit
// (schedule, power telemetry and measurements).
func requireDeclaredMatchesOracle(t *testing.T, build func() (*exec.Plan, error)) {
	t.Helper()
	declared, err := build()
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := build()
	if err != nil {
		t.Fatal(err)
	}
	classes := declared.DeclaredClasses()
	if classes == nil {
		t.Fatal("FSDP plan declared no classes")
	}
	for _, task := range oracle.Engine.Tasks() {
		task.SetMirror(nil)
	}
	if detected := oracle.SymmetryClasses(); !reflect.DeepEqual(classes, detected) {
		t.Fatalf("declared classes %v, detected %v", classes, detected)
	}
	index := func(plan *exec.Plan) map[*sim.Task]int {
		idx := make(map[*sim.Task]int, len(plan.Engine.Tasks()))
		for i, task := range plan.Engine.Tasks() {
			idx[task] = i
		}
		return idx
	}
	di, oi := index(declared), index(oracle)
	ot := oracle.Engine.Tasks()
	for i, task := range declared.Engine.Tasks() {
		dm, om := task.Mirror(), ot[i].Mirror()
		if (dm == nil) != (om == nil) || dm != nil && di[dm] != oi[om] {
			t.Fatalf("task %s: declared mirror %v, detected %v", task.Name(), dm, om)
		}
	}

	oracle.NoCollapse = true
	if a, b := runDigest(t, declared), runDigest(t, oracle); a != b {
		t.Fatalf("declared collapse diverged from the full run: %s vs %s", a, b)
	}
	if declared.EngineStats().GhostTasks == 0 {
		t.Fatal("declared plan did not collapse")
	}
	got, err := declared.MeasuredIterations()
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.MeasuredIterations()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("measurements diverged:\ndeclared %+v\nfull     %+v", got, want)
	}
}

// TestFSDPDeclaredMatchesDetector: on every FSDP shape the paper, the
// goldens and the benchmark run, in both modes, the declared partition
// and mirrors equal the detector's and the declared collapse equals the
// full run.
func TestFSDPDeclaredMatchesDetector(t *testing.T) {
	for _, cfg := range declaredFSDPConfigs(t) {
		for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
			if _, err := core.BuildPlan(cfg, mode); err != nil {
				continue // infeasible (OOM) points build no plan
			}
			t.Run(goldenLabel(cfg)+"/"+mode.String(), func(t *testing.T) {
				requireDeclaredMatchesOracle(t, func() (*exec.Plan, error) { return core.BuildPlan(cfg, mode) })
			})
		}
	}
}

// TestOnlyFSDPDeclares: DDP, TP, pipeline and hand-assembled plans
// declare nothing, so their collapse still goes through DetectClasses.
func TestOnlyFSDPDeclares(t *testing.T) {
	for _, par := range []core.Parallelism{"ddp", "tp", "pipeline"} {
		plan, err := core.BuildPlan(symTestConfig(par), exec.Overlapped)
		if err != nil {
			t.Fatal(err)
		}
		if c := plan.DeclaredClasses(); c != nil {
			t.Errorf("%s declared %v", par, c)
		}
	}
	if c := (&exec.Plan{Engine: sim.NewEngine(nil)}).DeclaredClasses(); c != nil {
		t.Errorf("hand-assembled plan declared %v", c)
	}
}

// TestSymmetryClassesKeepsDeclaredResult: the detector rewrites mirrors
// as a side effect; called on a declared FSDP plan before it runs, it
// must leave the declared collapse bit-identical.
func TestSymmetryClassesKeepsDeclaredResult(t *testing.T) {
	cfg := symTestConfig("fsdp")
	for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
		plain, err := core.BuildPlan(cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		probed, err := core.BuildPlan(cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		probed.SymmetryClasses()
		if probed.DeclaredClasses() == nil {
			t.Fatal("detection broke the declaration")
		}
		if a, b := runDigest(t, plain), runDigest(t, probed); a != b {
			t.Fatalf("%v: SymmetryClasses changed the result: %s vs %s", mode, a, b)
		}
		if a, b := plain.EngineStats(), probed.EngineStats(); a != b {
			t.Fatalf("%v: engine stats diverged:\n%+v\n%+v", mode, a, b)
		}
	}
}

// FuzzFSDPDeclared holds the declaration to the detector over FSDP
// shapes the grids do not reach: 3–8 ranks per node on 1–3 nodes, 1–6
// layers, 1–3 accumulation steps, prefetch depth 1–4, either mode, with
// a warm-up iteration so the iteration barrier is built too.
func FuzzFSDPDeclared(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(3), uint8(0), uint8(1), false)
	f.Add(uint8(5), uint8(1), uint8(0), uint8(1), uint8(0), true)
	f.Add(uint8(0), uint8(2), uint8(5), uint8(2), uint8(3), false)
	f.Fuzz(func(t *testing.T, perNode, nodes, layers, accum, prefetch uint8, sequential bool) {
		ranks, n := 3+int(perNode)%6, 1+int(nodes)%3
		m := model.Config{Name: "tiny", Arch: model.GPT3, NominalParams: 1e8,
			Layers: 1 + int(layers)%6, Heads: 4, Hidden: 256, FFN: 1024, Vocab: 2048, SeqLen: 128}
		mode := exec.Overlapped
		if sequential {
			mode = exec.Sequential
		}
		requireDeclaredMatchesOracle(t, func() (*exec.Plan, error) {
			cl, err := gpu.New(gpu.Config{System: hw.NewMultiNode(hw.H100(), ranks, n)})
			if err != nil {
				return nil, err
			}
			return fsdp.Build(cl, strategy.Params{
				Model: m, Batch: ranks * n, Format: precision.FP16, MatrixUnits: true, Checkpoint: true,
				GradAccumSteps: 1 + int(accum)%3, PrefetchDepth: 1 + int(prefetch)%4,
				Iterations: 1, Warmup: 1, Mode: mode,
			})
		})
	})
}
