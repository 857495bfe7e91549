package overlapsim_bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
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
	return append(onlyFSDP(append(goldenConfigs(), grid...)), coreScaleFSDP())
}

// onlyFSDP keeps the FSDP configs.
func onlyFSDP(cfgs []core.Config) []core.Config {
	var out []core.Config
	for _, cfg := range cfgs {
		if cfg.Parallelism.Canonical() == "fsdp" {
			out = append(out, cfg)
		}
	}
	return out
}

// coreScaleFSDP is the benchmark's core-scale shape: one FSDP GPT-3 XL
// iteration on 64 nodes of 8 H100s.
func coreScaleFSDP() core.Config {
	return core.Config{
		System:      hw.NewMultiNode(hw.H100(), 8, 64),
		Model:       model.GPT3XL(),
		Parallelism: "fsdp",
		Batch:       512,
		Format:      precision.FP16,
		MatrixUnits: true,
		Iterations:  1,
	}
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
// (schedule, power telemetry and measurements). Each plan's measurement
// must also equal the full extraction (requireMeasurementMatchesOracle).
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
	requireMeasurementMatchesOracle(t, declared)
	requireMeasurementMatchesOracle(t, oracle)
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
// a warm-up iteration so the iteration barrier is built too. It also
// holds the ledger collapse to Collapse on each shape.
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
		build := func() (*exec.Plan, error) {
			cl, err := gpu.New(gpu.Config{System: hw.NewMultiNode(hw.H100(), ranks, n)})
			if err != nil {
				return nil, err
			}
			return fsdp.Build(cl, strategy.Params{
				Model: m, Batch: ranks * n, Format: precision.FP16, MatrixUnits: true, Checkpoint: true,
				GradAccumSteps: 1 + int(accum)%3, PrefetchDepth: 1 + int(prefetch)%4,
				Iterations: 1, Warmup: 1, Mode: mode,
			})
		}
		requireDeclaredMatchesOracle(t, build)
		requireLedgerMatchesCollapse(t, build)
	})
}

// taskField resolves an unexported sim.Task field for taskState.
func taskField(name string) []int {
	f, ok := reflect.TypeFor[sim.Task]().FieldByName(name)
	if !ok {
		panic("sim.Task has no field " + name)
	}
	return f.Index
}

var (
	fieldSt, fieldDeps, fieldRemaining = taskField("st"), taskField("deps"), taskField("remaining")
	fieldGhost, fieldSuccs, fieldSeq   = taskField("ghost"), taskField("succs"), taskField("seq")
)

// taskState is what a collapse writes on a task: its lifecycle state,
// in-degree, residual work (as bits), ghost flag and successor list (as
// creation indices). No exported accessor shows the engine's
// bookkeeping before a run, so it is read through reflect.
type taskState struct {
	st        uint64
	deps      int64
	remaining uint64
	ghost     bool
	succs     []int64
}

func stateOf(task *sim.Task) taskState {
	v := reflect.ValueOf(task).Elem()
	st := taskState{
		st:        v.FieldByIndex(fieldSt).Uint(),
		deps:      v.FieldByIndex(fieldDeps).Int(),
		remaining: math.Float64bits(v.FieldByIndex(fieldRemaining).Float()),
		ghost:     v.FieldByIndex(fieldGhost).Bool(),
	}
	succs := v.FieldByIndex(fieldSuccs)
	for i := 0; i < succs.Len(); i++ {
		st.succs = append(st.succs, succs.Index(i).Elem().FieldByIndex(fieldSeq).Int())
	}
	return st
}

// requireLedgerMatchesCollapse holds the declared collapse to the
// generic one: of two identical builds, one collapses its declared
// classes through the ghost ledger and the other through Collapse's
// creation-order passes. Every task's state, in-degree, residual work,
// ghost flag and successor list — the mirrors' included — and the
// engine stats must agree bit for bit, before the run and after it, and
// so must every task's times.
func requireLedgerMatchesCollapse(t *testing.T, build func() (*exec.Plan, error)) {
	t.Helper()
	ledger, err := build()
	if err != nil {
		t.Fatal(err)
	}
	generic, err := build()
	if err != nil {
		t.Fatal(err)
	}
	classes := ledger.DeclaredClasses()
	if classes == nil || !reflect.DeepEqual(classes, generic.DeclaredClasses()) {
		t.Fatal("builds declared different classes, or none")
	}
	var class sim.Class
	for _, c := range classes {
		if len(c.Members) > 1 {
			class = c
		}
	}
	n, ok := ledger.Engine.CollapseDeclared(class)
	if !ok {
		t.Fatal("the ghost ledger could not collapse a declared plan")
	}
	if m := generic.Engine.Collapse(classes); n != m || n == 0 {
		t.Fatalf("ledger ghosted %d tasks, Collapse %d", n, m)
	}
	compare := func(when string) {
		t.Helper()
		lt, gt := ledger.Engine.Tasks(), generic.Engine.Tasks()
		for i := range lt {
			if a, b := stateOf(lt[i]), stateOf(gt[i]); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: task %s: ledger %+v, Collapse %+v", when, lt[i].Name(), a, b)
			}
			if lt[i].Done() != gt[i].Done() ||
				math.Float64bits(lt[i].Start()) != math.Float64bits(gt[i].Start()) ||
				math.Float64bits(lt[i].End()) != math.Float64bits(gt[i].End()) {
				t.Fatalf("%s: task %s times diverged", when, lt[i].Name())
			}
		}
		if a, b := ledger.EngineStats(), generic.EngineStats(); a != b {
			t.Fatalf("%s: stats diverged:\nledger   %+v\nCollapse %+v", when, a, b)
		}
	}
	compare("collapsed")
	if err := ledger.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if err := generic.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	compare("ran")
}

// TestLedgerMatchesCollapse: on every FSDP golden config and the
// core-scale shape, in both modes, the ledger collapse leaves the engine
// as Collapse does.
func TestLedgerMatchesCollapse(t *testing.T) {
	for _, cfg := range append(onlyFSDP(goldenConfigs()), coreScaleFSDP()) {
		for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
			if _, err := core.BuildPlan(cfg, mode); err != nil {
				continue // infeasible (OOM) points build no plan
			}
			t.Run(goldenLabel(cfg)+"/"+mode.String(), func(t *testing.T) {
				requireLedgerMatchesCollapse(t, func() (*exec.Plan, error) { return core.BuildPlan(cfg, mode) })
			})
		}
	}
}

// TestCancelledCollapseReportsMirrors cancels a collapsed 4×8 FSDP run
// from an observer midway. A ghost answers Done, Start and End from its
// mirror, so no ghost is done whose mirror is not, the engine counts
// retired exactly the tasks that answer Done, measurement equals the
// full extraction, and the measured timeline gives every ghost rank its
// representative's intervals.
func TestCancelledCollapseReportsMirrors(t *testing.T) {
	cfg := core.Config{
		System:      hw.NewMultiNode(hw.H100(), 8, 4),
		Model:       model.GPT3XL(),
		Parallelism: "fsdp",
		Batch:       32,
		Format:      precision.FP16,
		MatrixUnits: true,
		Iterations:  1,
	}
	for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
		plan, err := core.BuildPlan(cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		segments := 0
		plan.Engine.AddObserver(sim.ObserverFunc(func(t0, t1 float64, running []*sim.Task) {
			if segments++; segments == 40 {
				cancel()
			}
		}))
		if err := plan.RunContext(ctx); err != context.Canceled {
			t.Fatalf("%v: RunContext = %v, want context.Canceled", mode, err)
		}
		cancel()
		if plan.EngineStats().GhostTasks == 0 {
			t.Fatalf("%v: plan did not collapse", mode)
		}
		ghosts, done, pending := 0, 0, 0
		for _, task := range plan.Engine.Tasks() {
			m := task.Mirror()
			if m == nil {
				continue
			}
			ghosts++
			if task.Done() != m.Done() ||
				math.Float64bits(task.Start()) != math.Float64bits(m.Start()) ||
				math.Float64bits(task.End()) != math.Float64bits(m.End()) {
				t.Fatalf("%v: ghost %s done=%v [%g, %g], mirror %s done=%v [%g, %g]", mode,
					task.Name(), task.Done(), task.Start(), task.End(), m.Name(), m.Done(), m.Start(), m.End())
			}
			if task.Done() {
				done++
			} else {
				pending++
			}
		}
		if done == 0 || pending == 0 {
			t.Fatalf("%v: %d ghosts done, %d pending: cancel did not land mid-run", mode, done, pending)
		}
		answered := 0
		for _, task := range plan.Engine.Tasks() {
			if task.Done() {
				answered++
			}
		}
		if got := plan.EngineStats().TasksRetired; got != answered {
			t.Fatalf("%v: %d tasks retired, %d answer Done", mode, got, answered)
		}
		requireMeasurementMatchesOracle(t, plan)
		tl, err := plan.MeasuredTimeline()
		if err != nil {
			t.Fatal(err)
		}
		rep := tl.Intervals(1)
		for d := 2; d < cfg.System.TotalGPUs(); d++ {
			ivs := tl.Intervals(d)
			if len(ivs) != len(rep) {
				t.Fatalf("%v: gpu %d has %d intervals, its representative %d", mode, d, len(ivs), len(rep))
			}
			for i := range ivs {
				if ivs[i].Name != rep[i].Name || ivs[i].Start != rep[i].Start || ivs[i].End != rep[i].End {
					t.Fatalf("%v: gpu %d interval %d %+v, representative %+v", mode, d, i, ivs[i], rep[i])
				}
			}
		}
	}
}
