package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"
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
	// A vetoed device ahead of two identical ones: the pair must merge
	// with each other, never into the vetoed device's class, which
	// pairs with them task for task but for its callback.
	t.Run("vetoed device before a mergeable pair", func(t *testing.T) {
		e := NewEngine(PlatformFunc(flatRate))
		tasks := make([][]*Task, 3)
		for d := range tasks {
			s := e.NewStream(name(d), d)
			first := e.NewTask("x", KindCompute, 1, 0, s)
			tasks[d] = []*Task{first, e.NewTask("y", KindCompute, 2, 1, s).After(first)}
		}
		tasks[0][1].OnDone(func(float64) {})
		got := e.DetectClasses(intEq)
		want := [][]int{{0}, {1, 2}}
		if !slices.EqualFunc(got, want, func(c Class, m []int) bool { return slices.Equal(c.Members, m) }) {
			t.Fatalf("classes %v, want %v", got, want)
		}
		for i, tb := range tasks[2] {
			if tb.Mirror() != tasks[1][i] {
				t.Fatalf("device 2 task %d mirrors %v, want device 1's", i, tb.Mirror())
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
	tasks[2][3].mirror = tasks[3][3]
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
// it: slot by slot, each slot's rank-0 task fanned out to the other
// ranks as its replicas (NewReplicas), and a sink waiting for every
// rank's last slot. A committed build wires what the collapse
// leaves: no edge into or out of a replica, and the sink's one edge
// from the replicas' mirror. Returns the engine and the fan-outs by
// [slot][rank].
func declaredDAG(ranks, slots int, committed bool) (*Engine, [][]*Task) {
	e := NewEngine(PlatformFunc(flatRate))
	shared := e.NewStream("shared", ranks)
	src := e.NewTask("src", KindCompute, 1, 100, shared)
	streams := make([]*Stream, ranks)
	for r := range streams {
		streams[r] = e.NewStream(name(r), r)
	}
	fans := make([][]*Task, slots)
	for i := range fans {
		rep := e.NewTask(fmt.Sprintf("s%d", i), KindCompute, float64(i%5)+0.5, i, streams[0]).NameByDevice()
		fans[i] = append([]*Task{rep}, e.NewReplicas(rep, streams[1:])...)
		for r, t := range fans[i] {
			if committed && r > 0 {
				continue
			}
			if i == 0 {
				t.After(src)
			} else {
				t.After(fans[i-1][r])
			}
		}
	}
	sink := e.NewTask("sink", KindCompute, 1, 101, shared)
	if committed {
		sink.After(fans[slots-1][0])
	} else {
		sink.After(fans[slots-1]...)
	}
	return e, fans
}

// TestCollapseDeclaredMatchesCollapse: the ledger collapse of a
// committed build leaves every task's state, residual work and ghost
// flag, and every live task's in-degree and live successors, as
// Collapse leaves the build that wires every edge; it records one range
// per fan-out, and runs the full schedule bit for bit.
func TestCollapseDeclaredMatchesCollapse(t *testing.T) {
	const ranks, slots = 5, 4
	classes := []Class{{Members: []int{0, 1, 2, 3, 4}}, {Members: []int{ranks}}}
	full, _ := declaredDAG(ranks, slots, false)
	if err := full.Run(); err != nil {
		t.Fatal(err)
	}
	e, _ := declaredDAG(ranks, slots, true)
	if len(e.ledger.spans) != slots {
		t.Fatalf("ledger holds %d ranges, want %d", len(e.ledger.spans), slots)
	}
	g, _ := declaredDAG(ranks, slots, false)
	n, ok := e.CollapseDeclared(classes[0])
	if !ok || n != (ranks-1)*slots {
		t.Fatalf("CollapseDeclared = %d, %v; want %d, true", n, ok, (ranks-1)*slots)
	}
	if m := g.Collapse(classes); m != n {
		t.Fatalf("Collapse ghosted %d, the ledger %d", m, n)
	}
	// live lists a task's successors that are not ghosts: an edge into a
	// ghost is never walked, and a committed build does not wire it.
	live := func(task *Task) []int {
		var out []int
		for _, s := range task.succs {
			if !s.ghost {
				out = append(out, s.seq)
			}
		}
		return out
	}
	for i, a := range e.tasks {
		b := g.tasks[i]
		if a.st != b.st || a.ghost != b.ghost ||
			math.Float64bits(a.remaining) != math.Float64bits(b.remaining) {
			t.Fatalf("task %s: ledger %v/%v/%g, Collapse %v/%v/%g", a.name,
				a.st, a.ghost, a.remaining, b.st, b.ghost, b.remaining)
		}
		if a.ghost {
			if a.deps != 0 || len(a.succs) != 0 {
				t.Fatalf("ghost %s has %d in-edges and %d successors", a.name, a.deps, len(a.succs))
			}
			continue
		}
		if a.deps != b.deps || !slices.Equal(live(a), live(b)) {
			t.Fatalf("task %s: ledger %d deps %v, Collapse %d deps %v", a.name, a.deps, live(a), b.deps, live(b))
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
		{"mirrors rewritten by DetectClasses", func(e *Engine, fans [][]*Task) {
			e.DetectClasses(intEq)
		}, classes[0]},
		{"mirrors off the representative", nil, Class{Members: []int{1, 0, 2, 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full, fans := declaredDAG(ranks, slots, false)
			if tc.mutate != nil {
				tc.mutate(full, fans)
			}
			if err := full.Run(); err != nil {
				t.Fatal(err)
			}
			e, fans := declaredDAG(ranks, slots, false)
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
		e, _ := declaredDAG(ranks, slots, true)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if _, ok := e.CollapseDeclared(classes[0]); ok {
			t.Fatal("CollapseDeclared collapsed a finished engine")
		}
	})
}

// replicate is the task-by-task reference for NewReplicas: it writes rep
// as the mirror of every task of replicas, made one by one, and records
// where they sit in creation order in the engine's ghost ledger, one
// range per run of consecutive tasks.
func replicate(e *Engine, rep *Task, replicas []*Task) {
	l := &e.ledger
	for _, t := range replicas {
		t.mirror = rep
		if n := len(l.spans); n > 0 && int(l.spans[n-1].to) == t.seq {
			l.spans[n-1].to++
		} else {
			l.spans = append(l.spans, span{int32(t.seq), int32(t.seq + 1)})
		}
	}
}

// replicaFans builds fans fan-outs over ranks streams the way a declaring
// builder does: each slot's rank-0 task by NewTask and NameByDevice, then
// its replicas on ranks 1..ranks-1, either in one NewReplicas call
// (bulk) or by NewTask, NameByDevice and replicate, and after it a task
// on a stream of its own. The streams start out of the dirty set, so
// the dirty set records each stream's first enqueue. reserve is the
// engine's Reserve hint; 0 leaves the slabs to grow chunk by chunk. Each
// rank-0 task waits for the previous one, so the fan-outs run in order.
func replicaFans(ranks, fans, reserve int, bulk bool) (*Engine, [][]*Task) {
	e := NewEngine(PlatformFunc(flatRate))
	e.Reserve(reserve)
	streams := make([]*Stream, ranks)
	for r := range streams {
		streams[r] = e.NewStream(name(r), r)
	}
	solo := e.NewStream("solo", ranks)
	e.admit() // no task yet: empties the dirty set
	out := make([][]*Task, fans)
	for i := range out {
		rep := e.NewTask(fmt.Sprintf("f%d", i), KindCompute, float64(i%4)+0.5, i, streams[0]).NameByDevice()
		if i > 0 {
			rep.After(out[i-1][0])
		}
		out[i] = append(out[i], rep)
		if bulk {
			out[i] = append(out[i], e.NewReplicas(rep, streams[1:])...)
		} else {
			for _, s := range streams[1:] {
				out[i] = append(out[i], e.NewTask(rep.name, rep.kind, rep.work, rep.payload, s).NameByDevice())
			}
			replicate(e, rep, out[i][1:])
		}
		e.NewTask(fmt.Sprintf("solo%d", i), KindHost, 1, 3, solo)
	}
	return e, out
}

// TestNewReplicasMatchesTaskByTask: the replicas NewReplicas makes in
// one call leave the engine, field for field, as NewTask, NameByDevice
// and replicate leave it task by task: names, kinds, work, payloads,
// creation order, streams, mirrors, stream queues, the dirty set, the
// ghost ledger's ranges, Census and Stats. Without a Reserve hint a
// fan-out of 300 replicas crosses a task slab boundary. ReplicasOf
// returns the run each call made, and nothing once the ledger is void;
// both builds collapse through the ledger and run the same schedule.
func TestNewReplicasMatchesTaskByTask(t *testing.T) {
	const ranks, fans = 301, 4
	for _, reserve := range []int{0, ranks*fans + fans} {
		t.Run(fmt.Sprintf("reserve=%d", reserve), func(t *testing.T) {
			ref, _ := replicaFans(ranks, fans, reserve, false)
			e, out := replicaFans(ranks, fans, reserve, true)
			seqs := func(ts []*Task) []int {
				var s []int
				for _, x := range ts {
					s = append(s, x.seq)
				}
				return s
			}
			crossed := false
			for i, a := range e.tasks {
				b := ref.tasks[i]
				if a.Name() != b.Name() || a.kind != b.kind || a.payload != b.payload || a.seq != b.seq || a.Seq() != i ||
					math.Float64bits(a.work) != math.Float64bits(b.work) ||
					math.Float64bits(a.remaining) != math.Float64bits(b.remaining) ||
					a.atDevice != b.atDevice || a.deps != b.deps || a.st != b.st || a.eng != e {
					t.Fatalf("task %d: %s/%v/%v/%g bulk, %s/%v/%v/%g task by task", i,
						a.Name(), a.kind, a.payload, a.work, b.Name(), b.kind, b.payload, b.work)
				}
				if (a.mirror == nil) != (b.mirror == nil) || a.mirror != nil && a.mirror.seq != b.mirror.seq {
					t.Fatalf("task %s: mirrors differ", a.Name())
				}
				if len(a.streams) != 1 || a.streams[0].seq != b.streams[0].seq {
					t.Fatalf("task %s: streams differ", a.Name())
				}
				if i > 0 && uintptr(unsafe.Pointer(a))-uintptr(unsafe.Pointer(e.tasks[i-1])) != uintptr(taskBytes) &&
					a.mirror != nil && a.mirror == e.tasks[i-1].mirror {
					crossed = true
				}
			}
			if len(e.tasks) != len(ref.tasks) {
				t.Fatalf("%d tasks bulk, %d task by task", len(e.tasks), len(ref.tasks))
			}
			if reserve == 0 && !crossed {
				t.Fatal("no fan-out crossed a task slab boundary")
			}
			for i, s := range e.streams {
				r := ref.streams[i]
				if !slices.Equal(seqs(s.queue), seqs(r.queue)) || s.head != r.head || s.dirty != r.dirty {
					t.Fatalf("stream %s: queue %v bulk, %v task by task", s.name, seqs(s.queue), seqs(r.queue))
				}
			}
			streamSeqs := func(ss []*Stream) []int {
				var s []int
				for _, x := range ss {
					s = append(s, x.seq)
				}
				return s
			}
			if !slices.Equal(streamSeqs(e.dirty), streamSeqs(ref.dirty)) {
				t.Fatalf("dirty set %v bulk, %v task by task", streamSeqs(e.dirty), streamSeqs(ref.dirty))
			}
			if !slices.Equal(e.ledger.spans, ref.ledger.spans) || len(e.ledger.spans) != fans {
				t.Fatalf("ledger %v bulk, %v task by task", e.ledger.spans, ref.ledger.spans)
			}
			if e.Census() != ref.Census() || e.Stats() != ref.Stats() {
				t.Fatalf("census %+v, stats %+v bulk;\ncensus %+v, stats %+v task by task",
					e.Census(), e.Stats(), ref.Census(), ref.Stats())
			}
			for i, f := range out {
				if got := e.ReplicasOf(f[0]); len(got) != ranks-1 || !slices.Equal(got, f[1:]) {
					t.Fatalf("ReplicasOf fan-out %d: %d tasks, not its replicas", i, len(got))
				}
				if e.ReplicasOf(f[1]) != nil || ref.ReplicasOf(ref.tasks[f[0].seq]) != nil {
					t.Fatalf("ReplicasOf fan-out %d names replicas NewReplicas did not make", i)
				}
			}
			classes := Class{Members: make([]int, ranks)}
			for r := range classes.Members {
				classes.Members[r] = r
			}
			for _, eng := range []*Engine{ref, e} {
				if n, ok := eng.CollapseDeclared(classes); !ok || n != (ranks-1)*fans {
					t.Fatalf("CollapseDeclared = %d, %v", n, ok)
				}
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
			}
			requireSameSchedule(t, ref, e)
			if e.Stats() != ref.Stats() {
				t.Fatalf("run stats diverged:\n%+v\n%+v", e.Stats(), ref.Stats())
			}
		})
	}
	t.Run("void ledger", func(t *testing.T) {
		e, out := replicaFans(3, 2, 0, true)
		e.DetectClasses(intEq)
		if got := e.ReplicasOf(out[0][0]); got != nil {
			t.Fatalf("ReplicasOf on a void ledger = %d tasks", len(got))
		}
	})
}
