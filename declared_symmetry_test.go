package overlapsim_bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"reflect"
	"slices"
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

// requireDeclaredMatchesOracle holds a committed FSDP plan to the
// detector and to the full run. build(false) makes the committed plan
// and build(true) the FullGraph reference, which wires every edge and
// declares nothing: the reference must detect the declared classes and
// record the same mirror on every task; and the committed plan's
// collapse must reproduce the reference's full run bit for bit
// (schedule with names, power telemetry and measurements). Each plan's
// measurement must also equal the full extraction
// (requireMeasurementMatchesOracle).
func requireDeclaredMatchesOracle(t *testing.T, build func(full bool) (*exec.Plan, error)) {
	t.Helper()
	declared, err := build(false)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := build(true)
	if err != nil {
		t.Fatal(err)
	}
	classes := declared.DeclaredClasses()
	if classes == nil {
		t.Fatal("FSDP plan declared no classes")
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

	if a, b := runDigest(t, declared), runDigest(t, oracle); a != b {
		t.Fatalf("declared collapse diverged from the full run: %s vs %s", a, b)
	}
	if declared.EngineStats().GhostTasks == 0 {
		t.Fatal("declared plan did not collapse")
	}
	if ghosts := oracle.EngineStats().GhostTasks; ghosts != 0 {
		t.Fatalf("FullGraph plan ghosted %d tasks", ghosts)
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

// buildFSDP returns the build function the differential helpers take:
// the committed plan of cfg, or its FullGraph reference.
func buildFSDP(cfg core.Config, mode exec.Mode) func(full bool) (*exec.Plan, error) {
	return func(full bool) (*exec.Plan, error) {
		if full {
			return core.BuildFullGraph(cfg, mode)
		}
		return core.BuildPlan(cfg, mode)
	}
}

// TestFSDPDeclaredMatchesDetector: on every FSDP shape the paper, the
// goldens and the benchmark run, in both modes, the declared partition
// and mirrors equal the detector's on the full graph, and the committed
// plan's collapse equals the full graph's full run.
func TestFSDPDeclaredMatchesDetector(t *testing.T) {
	for _, cfg := range declaredFSDPConfigs(t) {
		for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
			if _, err := core.BuildPlan(cfg, mode); err != nil {
				continue // infeasible (OOM) points build no plan
			}
			t.Run(goldenLabel(cfg)+"/"+mode.String(), func(t *testing.T) {
				requireDeclaredMatchesOracle(t, buildFSDP(cfg, mode))
			})
		}
	}
}

// TestCommittedCensus pins what the 512-rank core-scale FSDP plan wires
// in each mode. The committed build makes every task and stream the full
// graph makes, but only the edges the collapse leaves: none into or out
// of the 510 ghost ranks.
func TestCommittedCensus(t *testing.T) {
	cfg := coreScaleFSDP()
	cases := []struct {
		mode                exec.Mode
		streams, edges, all int
	}{
		{exec.Overlapped, 514, 692, 177152},
		{exec.Sequential, 660, 1018, 260608},
	}
	for _, tc := range cases {
		committed, err := core.BuildPlan(cfg, tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		full, err := core.BuildFullGraph(cfg, tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Census{Tasks: 53396, Edges: tc.edges, Streams: tc.streams}
		if got := committed.Engine.Census(); got != want {
			t.Errorf("%v committed census %+v, want %+v", tc.mode, got, want)
		}
		want.Edges = tc.all
		if got := full.Engine.Census(); got != want {
			t.Errorf("%v full-graph census %+v, want %+v", tc.mode, got, want)
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

// TestSymmetryClassesKeepsDeclaredResult: on a committed FSDP plan
// SymmetryClasses returns the declared partition without running the
// detector, which has no ghost edges to pair, so called before the plan
// runs it must leave the collapse bit-identical.
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
		if got, want := probed.SymmetryClasses(), probed.DeclaredClasses(); want == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: SymmetryClasses %v, declared %v", mode, got, want)
		}
		if a, b := runDigest(t, plain), runDigest(t, probed); a != b {
			t.Fatalf("%v: SymmetryClasses changed the result: %s vs %s", mode, a, b)
		}
		if a, b := plain.EngineStats(), probed.EngineStats(); a != b {
			t.Fatalf("%v: engine stats diverged:\n%+v\n%+v", mode, a, b)
		}
	}
}

// FuzzFSDPDeclared holds the committed build to the full graph over
// FSDP shapes the grids do not reach: 3–8 ranks per node on 1–3 nodes,
// 1–6 layers, 1–3 accumulation steps, prefetch depth 1–4, either mode,
// with a warm-up iteration so the iteration barrier is built too. On
// each shape the detector must confirm the declaration on the full
// graph, the committed collapse must equal the full run, and the ledger
// collapse must leave the engine as Collapse leaves the full graph.
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
		build := func(full bool) (*exec.Plan, error) {
			cl, err := gpu.New(gpu.Config{System: hw.NewMultiNode(hw.H100(), ranks, n)})
			if err != nil {
				return nil, err
			}
			return fsdp.Build(cl, strategy.Params{
				Model: m, Batch: ranks * n, Format: precision.FP16, MatrixUnits: true, Checkpoint: true,
				GradAccumSteps: 1 + int(accum)%3, PrefetchDepth: 1 + int(prefetch)%4,
				Iterations: 1, Warmup: 1, Mode: mode, FullGraph: full,
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
	fieldSt, fieldRemaining = taskField("st"), taskField("remaining")
	fieldGhost, fieldSuccs  = taskField("ghost"), taskField("succs")
	fieldSeq                = taskField("seq")
)

// taskState is what a collapse writes on a task: its lifecycle state,
// residual work (as bits) and ghost flag, and, on a task that is not a
// ghost, the distinct successors that are not ghosts (as sorted
// creation indices). No exported accessor shows the engine's
// bookkeeping before a run, so it is read through reflect. Edges into
// ghosts are never walked, and an edge repeated from one task is
// released at one instant, so neither shows in a schedule; the full
// graph holds both and a committed build neither.
type taskState struct {
	st        uint64
	remaining uint64
	ghost     bool
	succs     []int64
}

func stateOf(task *sim.Task) taskState {
	v := reflect.ValueOf(task).Elem()
	st := taskState{
		st:        v.FieldByIndex(fieldSt).Uint(),
		remaining: math.Float64bits(v.FieldByIndex(fieldRemaining).Float()),
		ghost:     v.FieldByIndex(fieldGhost).Bool(),
	}
	if st.ghost {
		return st
	}
	succs := v.FieldByIndex(fieldSuccs)
	for i := 0; i < succs.Len(); i++ {
		s := succs.Index(i).Elem()
		if !s.FieldByIndex(fieldGhost).Bool() {
			st.succs = append(st.succs, s.FieldByIndex(fieldSeq).Int())
		}
	}
	slices.Sort(st.succs)
	st.succs = slices.Compact(st.succs)
	return st
}

// requireLedgerMatchesCollapse holds the ledger collapse of a committed
// build (build(false)) to Collapse's passes over the FullGraph build
// (build(true)) of the same plan, whose mirrors come from the detector,
// which must find the declared partition: every task's state, residual
// work and ghost flag, every live task's distinct live successors, and
// the engine stats must agree bit for bit, before the run and after it,
// and so must every task's times.
func requireLedgerMatchesCollapse(t *testing.T, build func(full bool) (*exec.Plan, error)) {
	t.Helper()
	ledger, err := build(false)
	if err != nil {
		t.Fatal(err)
	}
	generic, err := build(true)
	if err != nil {
		t.Fatal(err)
	}
	classes := ledger.DeclaredClasses()
	if classes == nil {
		t.Fatal("the committed build declared no classes")
	}
	var class sim.Class
	for _, c := range classes {
		if len(c.Members) > 1 {
			class = c
		}
	}
	if detected := generic.SymmetryClasses(); !reflect.DeepEqual(classes, detected) {
		t.Fatalf("declared classes %v, detected %v", classes, detected)
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
// core-scale shape, in both modes, the ledger collapse of the committed
// build leaves the engine as Collapse leaves the full graph.
func TestLedgerMatchesCollapse(t *testing.T) {
	for _, cfg := range append(onlyFSDP(goldenConfigs()), coreScaleFSDP()) {
		for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
			if _, err := core.BuildPlan(cfg, mode); err != nil {
				continue // infeasible (OOM) points build no plan
			}
			t.Run(goldenLabel(cfg)+"/"+mode.String(), func(t *testing.T) {
				requireLedgerMatchesCollapse(t, buildFSDP(cfg, mode))
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
