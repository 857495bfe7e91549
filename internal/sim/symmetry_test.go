package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// intEq is the payload comparator the sim-level tests use: payloads are
// plain ints (template indices), equal across symmetric ranks.
func intEq(a, b any) bool { return a == b }

// flatRate runs every task at a rate derived purely from its payload, so
// a collapsed run and a full run rate identical tasks identically.
func flatRate(now float64, running []*Task) {
	for _, t := range running {
		t.SetRate(float64(t.Payload().(int)%3) + 0.5)
	}
}

// symDAG builds ranks identical single-stream schedules plus one shared
// source and one shared sink on an extra device — the shape the strategy
// builders produce (per-rank compute chains hanging off shared
// collectives). Returns the engine and all tasks by [rank][slot].
func symDAG(ranks, slots int, perturb func(rank, slot int, work float64) float64) (*Engine, [][]*Task) {
	e := NewEngine(PlatformFunc(flatRate))
	shared := e.NewStream("shared", ranks)
	src := e.NewTask("src", KindCompute, 1, 100, shared)
	tasks := make([][]*Task, ranks)
	for r := 0; r < ranks; r++ {
		s := e.NewStream(fmt.Sprintf("rank%d", r), r)
		tasks[r] = make([]*Task, slots)
		for i := 0; i < slots; i++ {
			work := float64(i%5) + 0.5
			if perturb != nil {
				work = perturb(r, i, work)
			}
			t := e.NewTask(fmt.Sprintf("r%d.%d", r, i), KindCompute, work, i, s)
			if i == 0 {
				t.After(src)
			} else {
				t.After(tasks[r][i-1])
				if i >= 2 {
					t.After(tasks[r][i-2]) // redundant edge: preds alignment must still pair
				}
			}
			tasks[r][i] = t
		}
	}
	sink := e.NewTask("sink", KindCompute, 1, 101, shared)
	for r := 0; r < ranks; r++ {
		sink.After(tasks[r][slots-1])
	}
	return e, tasks
}

func classShape(classes []Class) []int {
	var out []int
	for _, c := range classes {
		out = append(out, len(c.Members))
	}
	return out
}

func TestDetectClasses(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *Engine
		want    []int // class sizes in detection order
		collaps int   // classes with >1 member
	}{
		{
			name: "identical ranks merge",
			build: func() *Engine {
				e, _ := symDAG(4, 6, nil)
				return e
			},
			// devices 0..3 are one class, the shared device its own.
			want:    []int{4, 1},
			collaps: 1,
		},
		{
			name: "perturbed rank splits",
			build: func() *Engine {
				e, _ := symDAG(4, 6, func(rank, slot int, w float64) float64 {
					if rank == 2 && slot == 3 {
						return w * 2
					}
					return w
				})
				return e
			},
			want:    []int{3, 1, 1},
			collaps: 1,
		},
		{
			name: "all distinct",
			build: func() *Engine {
				e, _ := symDAG(3, 4, func(rank, slot int, w float64) float64 {
					return w + float64(rank)
				})
				return e
			},
			want:    []int{1, 1, 1, 1},
			collaps: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.build()
			classes := e.DetectClasses(intEq)
			got := classShape(classes)
			if len(got) != len(tc.want) {
				t.Fatalf("classes %v, want sizes %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("classes %v, want sizes %v", got, tc.want)
				}
			}
			multi := 0
			for _, c := range classes {
				if len(c.Members) > 1 {
					multi++
				}
			}
			if multi != tc.collaps {
				t.Fatalf("collapsible classes = %d, want %d", multi, tc.collaps)
			}
		})
	}
}

func TestDetectClassesVetoes(t *testing.T) {
	t.Run("rendezvous task", func(t *testing.T) {
		e := NewEngine(PlatformFunc(flatRate))
		s0 := e.NewStream("a", 0)
		s1 := e.NewStream("b", 1)
		e.NewTask("x", KindCompute, 1, 0, s0)
		e.NewTask("y", KindCompute, 1, 0, s1)
		e.NewTask("rv", KindComm, 1, 1, s0, s1) // touches both devices
		for _, c := range e.DetectClasses(intEq) {
			if len(c.Members) > 1 {
				t.Fatalf("rendezvous devices merged: %v", c.Members)
			}
		}
	})
	t.Run("onDone callback", func(t *testing.T) {
		e := NewEngine(PlatformFunc(flatRate))
		s0 := e.NewStream("a", 0)
		s1 := e.NewStream("b", 1)
		e.NewTask("x", KindCompute, 1, 0, s0).OnDone(func(now float64) {})
		e.NewTask("y", KindCompute, 1, 0, s1)
		for _, c := range e.DetectClasses(intEq) {
			if len(c.Members) > 1 {
				t.Fatalf("device with completion callback merged: %v", c.Members)
			}
		}
	})
	t.Run("nil eq", func(t *testing.T) {
		e, _ := symDAG(2, 2, nil)
		if got := e.DetectClasses(nil); got != nil {
			t.Fatalf("DetectClasses(nil) = %v, want nil", got)
		}
	})
	t.Run("already ran", func(t *testing.T) {
		e, _ := symDAG(2, 2, nil)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got := e.DetectClasses(intEq); got != nil {
			t.Fatalf("DetectClasses after run = %v, want nil", got)
		}
	})
}

// TestCollapseBitIdentical is the sim-level differential: a collapsed
// run must reproduce the full run's every task time bit for bit,
// including the reconstructed ghosts.
func TestCollapseBitIdentical(t *testing.T) {
	const ranks, slots = 6, 9
	ref, refTasks := symDAG(ranks, slots, nil)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	e, tasks := symDAG(ranks, slots, nil)
	classes := e.DetectClasses(intEq)
	ghosts := e.Collapse(classes)
	if want := (ranks - 1) * slots; ghosts != want {
		t.Fatalf("Collapse ghosted %d tasks, want %d", ghosts, want)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		for i := 0; i < slots; i++ {
			g, f := tasks[r][i], refTasks[r][i]
			if !g.Done() {
				t.Fatalf("task r%d.%d not reconstructed", r, i)
			}
			if math.Float64bits(g.Start()) != math.Float64bits(f.Start()) ||
				math.Float64bits(g.End()) != math.Float64bits(f.End()) {
				t.Fatalf("task r%d.%d diverged: collapsed [%g,%g] vs full [%g,%g]",
					r, i, g.Start(), g.End(), f.Start(), f.End())
			}
		}
	}
	st := e.Stats()
	if st.CollapsedClasses != 1 || st.GhostTasks != ghosts {
		t.Fatalf("stats = %d classes / %d ghosts, want 1 / %d",
			st.CollapsedClasses, st.GhostTasks, ghosts)
	}
}

// TestCollapseGhostEdgeTransfer pins the dependency bookkeeping: the
// shared sink depends on every rank's last task, so collapsing must
// transfer the ghost ranks' edges onto the representative — otherwise
// the sink either deadlocks (deps never decremented) or starts early
// (decremented at mark time instead of at the mirror's finish).
func TestCollapseGhostEdgeTransfer(t *testing.T) {
	e, tasks := symDAG(4, 3, nil)
	classes := e.DetectClasses(intEq)
	if e.Collapse(classes) == 0 {
		t.Fatal("nothing collapsed")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ref, refTasks := symDAG(4, 3, nil)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	// The engines enqueue src first and sink last; compare sink times via
	// the tasks slice bounds.
	last := tasks[3][2]
	refLast := refTasks[3][2]
	if math.Float64bits(last.End()) != math.Float64bits(refLast.End()) {
		t.Fatalf("ghost end %g != reference %g", last.End(), refLast.End())
	}
	if e.Now() != ref.Now() {
		t.Fatalf("terminal time diverged: %g vs %g", e.Now(), ref.Now())
	}
}

// requireSameSchedule fails unless two engines built from one recipe,
// one run in full and one collapsed, report every task's start and end
// and the final clock bit for bit.
func requireSameSchedule(t *testing.T, full, collapsed *Engine) {
	t.Helper()
	if len(full.tasks) != len(collapsed.tasks) {
		t.Fatalf("builds differ: %d vs %d tasks", len(full.tasks), len(collapsed.tasks))
	}
	for i, f := range full.tasks {
		c := collapsed.tasks[i]
		if !c.Done() {
			t.Fatalf("task %s unfinished after collapsed run", c.name)
		}
		if math.Float64bits(c.Start()) != math.Float64bits(f.Start()) ||
			math.Float64bits(c.End()) != math.Float64bits(f.End()) {
			t.Fatalf("task %s diverged: collapsed [%g,%g] vs full [%g,%g]",
				c.name, c.Start(), c.End(), f.Start(), f.End())
		}
	}
	if math.Float64bits(collapsed.Now()) != math.Float64bits(full.Now()) {
		t.Fatalf("terminal time diverged: %g vs %g", collapsed.Now(), full.Now())
	}
}

// TestCollapseAppendsUngatedSuccessor: a live task on a singleton device
// waits on one ghost only. The ghost's mirror does not gate it yet, so
// Collapse appends it to the mirror's successors and leaves its
// in-degree alone; the mirror's finish releases it.
func TestCollapseAppendsUngatedSuccessor(t *testing.T) {
	const ranks, slots = 4, 5
	build := func() (*Engine, [][]*Task, *Task) {
		e, tasks := symDAG(ranks, slots, nil)
		solo := e.NewTask("solo", KindCompute, 2, 7, e.NewStream("solo", ranks+1))
		solo.After(tasks[2][slots-2])
		return e, tasks, solo
	}
	full, _, _ := build()
	if err := full.Run(); err != nil {
		t.Fatal(err)
	}
	e, tasks, solo := build()
	if e.Collapse(e.DetectClasses(intEq)) != (ranks-1)*slots {
		t.Fatalf("ghosts = %d, want %d", e.Stats().GhostTasks, (ranks-1)*slots)
	}
	mirror := tasks[0][slots-2]
	if tasks[2][slots-2].mirror != mirror {
		t.Fatal("rank 2 not mirrored by rank 0")
	}
	if !slices.Contains(mirror.succs, solo) || solo.deps != 1 {
		t.Fatalf("solo: held by mirror %v, in-degree %d; want appended, 1",
			slices.Contains(mirror.succs, solo), solo.deps)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	requireSameSchedule(t, full, e)
}

// TestCollapsePreSubtractsHeldSuccessor: the shared sink waits on every
// rank's last task. The mirror already gates it, so Collapse adds no
// entry for the ghosts' edges and takes them off the sink's in-degree at
// once; the mirror's own entry keeps the sink gated until it finishes.
func TestCollapsePreSubtractsHeldSuccessor(t *testing.T) {
	const ranks, slots = 5, 4
	full, _ := symDAG(ranks, slots, nil)
	if err := full.Run(); err != nil {
		t.Fatal(err)
	}
	e, tasks := symDAG(ranks, slots, nil)
	sink := e.tasks[len(e.tasks)-1]
	if sink.deps != ranks {
		t.Fatalf("sink in-degree %d, want %d", sink.deps, ranks)
	}
	if e.Collapse(e.DetectClasses(intEq)) == 0 {
		t.Fatal("nothing collapsed")
	}
	mirror := tasks[0][slots-1]
	held := 0
	for _, s := range mirror.succs {
		if s == sink {
			held++
		}
	}
	if held != 1 || sink.deps != 1 {
		t.Fatalf("sink held %d times by the mirror, in-degree %d; want 1, 1", held, sink.deps)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	requireSameSchedule(t, full, e)
}

// TestCollapseWithoutMirrors: a hand-made class whose members carry no
// mirror mapping is skipped whole — nothing is ghosted, the stats say
// so, and the run is the full one.
func TestCollapseWithoutMirrors(t *testing.T) {
	full, _ := symDAG(4, 3, nil)
	if err := full.Run(); err != nil {
		t.Fatal(err)
	}
	e, _ := symDAG(4, 3, nil)
	if got := e.Collapse([]Class{{Members: []int{0, 1, 2, 3}}}); got != 0 {
		t.Fatalf("Collapse ghosted %d tasks without mirrors", got)
	}
	if st := e.Stats(); st.GhostTasks != 0 || st.CollapsedClasses != 0 {
		t.Fatalf("stats = %d classes / %d ghosts, want 0 / 0", st.CollapsedClasses, st.GhostTasks)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	requireSameSchedule(t, full, e)
}

// TestCollapseRejectsForeignMirror: mirrors have two producers, a
// builder's declaration and DetectClasses, so Collapse checks that each
// ghost's mirror lies on its class's representative device. A hand-set
// mirror pointing at another ghost must reject the class, leaving the
// run bit-identical to the full one.
func TestCollapseRejectsForeignMirror(t *testing.T) {
	full, _ := symDAG(4, 6, nil)
	if err := full.Run(); err != nil {
		t.Fatal(err)
	}
	e, tasks := symDAG(4, 6, nil)
	classes := e.DetectClasses(intEq)
	tasks[2][3].SetMirror(tasks[3][3])
	if got := e.Collapse(classes); got != 0 {
		t.Fatalf("Collapse ghosted %d tasks through a foreign mirror", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	requireSameSchedule(t, full, e)
}

// TestCensus: the census counts every task, every edge After records
// (duplicates included, nil and finished dependencies not), every
// completion callback and every stream, and a collapse leaves it alone.
func TestCensus(t *testing.T) {
	e, tasks := symDAG(4, 6, nil)
	// symDAG: a source and a sink on a shared stream plus 4 ranks × 6
	// slots; each slot waits for the source or its predecessor, slots
	// from the third on also for the one before that, and the sink
	// waits for every rank's last slot.
	want := Census{Tasks: 2 + 4*6, Edges: 4*(6+4) + 4, Streams: 5}
	if got := e.Census(); got != want {
		t.Fatalf("census %+v, want %+v", got, want)
	}
	tasks[1][2].After(nil, tasks[0][0], tasks[0][0]).OnDone(func(float64) {})
	want.Edges += 2
	want.Callbacks++
	if got := e.Census(); got != want {
		t.Fatalf("census %+v, want %+v", got, want)
	}
	e.Collapse(e.DetectClasses(intEq))
	if got := e.Census(); got != want {
		t.Fatalf("census after collapse %+v, want %+v", got, want)
	}
}

// TestGatesMatchesAfter: Gates builds the same successor lists,
// in-degrees and census as After called on each gated task in order.
func TestGatesMatchesAfter(t *testing.T) {
	build := func(gates bool) (*Engine, *Task, []*Task) {
		e := NewEngine(nil)
		src := e.NewTask("src", KindComm, 1, nil, e.NewStream("comm", 0))
		var ts []*Task
		for r := 0; r < 5; r++ {
			ts = append(ts, e.NewTask(name(r), KindCompute, 1, nil, e.NewStream(name(r), r+1)))
		}
		ts[1].After(src) // src already gates a task before the fan-in
		if gates {
			src.Gates(ts)
		} else {
			for _, task := range ts {
				task.After(src)
			}
		}
		return e, src, ts
	}
	ea, a, ta := build(false)
	eb, b, tb := build(true)
	if ea.Census() != eb.Census() || len(a.succs) != len(b.succs) {
		t.Fatalf("census %+v vs %+v, %d vs %d successors", ea.Census(), eb.Census(), len(a.succs), len(b.succs))
	}
	for i := range a.succs {
		if a.succs[i].seq != b.succs[i].seq {
			t.Fatalf("successor %d: %s vs %s", i, a.succs[i].name, b.succs[i].name)
		}
	}
	for i := range ta {
		if ta[i].deps != tb[i].deps {
			t.Fatalf("task %d in-degree %d vs %d", i, ta[i].deps, tb[i].deps)
		}
	}
}

// declaredDAG is symDAG's shape built the way a declaring builder builds
// it: slot by slot, each slot fanned out over the ranks with rank 0's
// task the mirror of the others' (Replicate), and the sink's in-edges
// from the last slot noted (NoteEdges). Returns the engine and the
// fan-outs by [slot][rank].
func declaredDAG(ranks, slots int) (*Engine, [][]*Task) {
	e := NewEngine(PlatformFunc(flatRate))
	shared := e.NewStream("shared", ranks)
	src := e.NewTask("src", KindCompute, 1, 100, shared)
	streams := make([]*Stream, ranks)
	for r := range streams {
		streams[r] = e.NewStream(name(r), r)
	}
	fans := make([][]*Task, slots)
	for i := range fans {
		fans[i] = make([]*Task, ranks)
		for r := range fans[i] {
			t := e.NewTask(fmt.Sprintf("r%d.%d", r, i), KindCompute, float64(i%5)+0.5, i, streams[r])
			if i == 0 {
				t.After(src)
			} else {
				t.After(fans[i-1][r])
			}
			fans[i][r] = t
		}
		e.Replicate(fans[i][0], fans[i][1:])
	}
	sink := e.NewTask("sink", KindCompute, 1, 101, shared)
	last := fans[slots-1]
	sink.After(last...)
	e.NoteEdges(sink, last...)
	return e, fans
}

// TestCollapseDeclaredMatchesCollapse: the ledger collapse leaves every
// task's state, in-degree, residual work, ghost flag and successors as
// Collapse does, records one range per fan-out, and runs the full
// schedule bit for bit.
func TestCollapseDeclaredMatchesCollapse(t *testing.T) {
	const ranks, slots = 5, 4
	classes := []Class{{Members: []int{0, 1, 2, 3, 4}}, {Members: []int{ranks}}}
	full, _ := declaredDAG(ranks, slots)
	if err := full.Run(); err != nil {
		t.Fatal(err)
	}
	e, _ := declaredDAG(ranks, slots)
	if len(e.ledger.spans) != slots || len(e.ledger.dups) != 1 || e.ledger.dups[0].dups != ranks-1 {
		t.Fatalf("ledger holds %d ranges and %d tallies, want %d and 1", len(e.ledger.spans), len(e.ledger.dups), slots)
	}
	g, _ := declaredDAG(ranks, slots)
	n, ok := e.CollapseDeclared(classes[0])
	if !ok || n != (ranks-1)*slots {
		t.Fatalf("CollapseDeclared = %d, %v; want %d, true", n, ok, (ranks-1)*slots)
	}
	if m := g.Collapse(classes); m != n {
		t.Fatalf("Collapse ghosted %d, the ledger %d", m, n)
	}
	for i, a := range e.tasks {
		b := g.tasks[i]
		if a.st != b.st || a.deps != b.deps || a.ghost != b.ghost ||
			math.Float64bits(a.remaining) != math.Float64bits(b.remaining) ||
			len(a.succs) != len(b.succs) {
			t.Fatalf("task %s: ledger %v/%d/%v/%g/%d, Collapse %v/%d/%v/%g/%d", a.name,
				a.st, a.deps, a.ghost, a.remaining, len(a.succs), b.st, b.deps, b.ghost, b.remaining, len(b.succs))
		}
		for j := range a.succs {
			if a.succs[j].seq != b.succs[j].seq {
				t.Fatalf("task %s successor %d: %s vs %s", a.name, j, a.succs[j].name, b.succs[j].name)
			}
		}
	}
	if e.Stats() != g.Stats() {
		t.Fatalf("stats diverged:\n%+v\n%+v", e.Stats(), g.Stats())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	requireSameSchedule(t, full, e)
}

// TestLedgerVoids: whatever the ledger cannot vouch for makes
// CollapseDeclared decline without touching the engine, and Collapse,
// which the caller then calls, still reproduces the full run.
func TestLedgerVoids(t *testing.T) {
	const ranks, slots = 4, 3
	classes := []Class{{Members: []int{0, 1, 2, 3}}, {Members: []int{ranks}}}
	cases := []struct {
		name   string
		mutate func(e *Engine, fans [][]*Task)
		class  Class
	}{
		{"mirror written by SetMirror", func(e *Engine, fans [][]*Task) {
			fans[1][2].SetMirror(fans[1][0])
		}, classes[0]},
		{"mirrors rewritten by DetectClasses", func(e *Engine, fans [][]*Task) {
			e.DetectClasses(intEq)
		}, classes[0]},
		{"edge from a replica its mirror does not duplicate", func(e *Engine, fans [][]*Task) {
			solo := e.NewTask("solo", KindCompute, 2, 7, e.NewStream("solo", ranks+1))
			solo.After(fans[1][2])
			e.NoteEdges(solo, fans[1][2])
		}, classes[0]},
		{"mirrors off the representative", nil, Class{Members: []int{1, 0, 2, 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full, fans := declaredDAG(ranks, slots)
			if tc.mutate != nil {
				tc.mutate(full, fans)
			}
			if err := full.Run(); err != nil {
				t.Fatal(err)
			}
			e, fans := declaredDAG(ranks, slots)
			if tc.mutate != nil {
				tc.mutate(e, fans)
			}
			before := e.Stats()
			if n, ok := e.CollapseDeclared(tc.class); ok || n != 0 {
				t.Fatalf("CollapseDeclared = %d, %v; want 0, false", n, ok)
			}
			if e.Stats() != before || fans[1][2].ghost {
				t.Fatal("a declined CollapseDeclared changed the engine")
			}
			e.Collapse([]Class{tc.class})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			requireSameSchedule(t, full, e)
		})
	}
	t.Run("after a run", func(t *testing.T) {
		e, _ := declaredDAG(ranks, slots)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if _, ok := e.CollapseDeclared(classes[0]); ok {
			t.Fatal("CollapseDeclared collapsed a finished engine")
		}
	})
}
