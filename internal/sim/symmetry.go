package sim

import (
	"math"
	"slices"
)

// Rank-symmetry fast path.
//
// DDP/FSDP/TP training iterations are identical across ranks: every
// device executes the same kernel sequence with the same dependency
// shape, so the fluid engine computes the exact same start/end times for
// every rank of a class. A collapse simulates one representative device
// per class; every task of another member becomes a ghost that reports
// its mirror's start, end and completion — the representative's
// counterpart task. The reconstruction is bit-exact, not approximate:
// class members would have executed the identical float operations in
// the identical order, so the golden schedule digests are unchanged
// while the simulated work drops from O(ranks) to O(classes).
//
// A class and its mirrors come from one of two producers. A builder
// whose ranks are symmetric by construction declares them: it writes
// each fan-out's replica mirrors through Replicate, which also records
// where the replicas sit in creation order, tallies through NoteEdges
// the in-edges from replicas that their mirrors duplicate, and checks
// through Census that the engine holds nothing it did not make through
// its symmetric calls; FSDP plans do this. That ghost ledger lets
// CollapseDeclared collapse the class in O(fan-outs + collectives)
// without walking the tasks. DetectClasses proves symmetry structurally
// instead, trusting no builder's word, one device at a time against the
// representatives of the classes found so far: it serves the plans that
// declare nothing (DDP, TP, pipeline, hand-assembled plans) and the
// declared plans whose census check fails, its classes collapse through
// Collapse's creation-order passes, and both are the oracle the tests
// hold every declaration and every ledger collapse to.
//
// Detection is conservative by construction. Any device the proof cannot
// cover — multi-stream (rendezvous) tasks, completion callbacks, a
// dependency whose position cannot be paired — falls back to a singleton
// class and is simulated for real. A wrong answer is therefore
// impossible; the worst case is a missed speedup.

// Census counts what has been made on an engine: tasks, dependency
// edges, completion callbacks and streams. A builder that declares its
// symmetry tallies the same four counts over what its symmetric calls
// made; since everything it tallies is on the engine, equal counts mean
// the engine holds nothing else.
type Census struct {
	Tasks, Edges, Callbacks, Streams int
}

// Census reports the engine's counts. Edges counts every dependency
// After recorded, duplicates included; a collapse or a run does not
// change it.
func (e *Engine) Census() Census {
	return Census{Tasks: len(e.tasks), Edges: e.edges, Callbacks: e.callbacks, Streams: len(e.streams)}
}

// Class is one device symmetry class: Members lists the device indices
// in ascending order, and Members[0] is the representative that is
// actually simulated when the class is collapsed.
type Class struct {
	Members []int
}

// DetectClasses partitions the devices that own streams into symmetry
// classes. Two devices land in one class only when they carry the same
// streams with the same task queues — task kind, work, payload (compared
// via eq) and dependency structure all pairwise identical, with every
// dependency either shared (the same *Task, e.g. a collective) or the
// positional counterpart on the other device. Devices with rendezvous
// (multi-stream) tasks or completion callbacks are never merged.
//
// DetectClasses must run before the engine has executed or collapsed;
// on an engine that already did (or with a nil eq) it returns nil. The
// result also records, on every task of a non-representative member,
// which representative task mirrors it — Collapse consumes that mapping.
// It overwrites any mirror a builder declared on those tasks, and so
// voids the ghost ledger.
//
// The partition is the greedy first-match one: each mergeable device, in
// device order, is verified against the representative of every earlier
// class, in order of creation, and joins the first it pairs with. One
// creation-order pass indexes each task's structural slot and lays out a
// flat predecessor index, which one walk over the successor lists fills.
// A verification compares shapes first, then pairs the two devices'
// tasks positionally, and writes the mirrors only once the whole device
// pairs; it costs O(tasks + edges) of the device it proves.
func (e *Engine) DetectClasses(eq func(a, b any) bool) []Class {
	if e.ran || e.stGhosts > 0 || eq == nil || len(e.streams) == 0 {
		return nil
	}
	e.ledger.void = true // the proof rewrites mirrors
	maxDev := -1
	for _, s := range e.streams {
		maxDev = max(maxDev, s.device)
	}
	if maxDev < 0 {
		return nil
	}
	// Streams per device, in creation order: the order the builder made
	// them is the alignment the verification walks. A task's slot is its
	// index among its device's tasks with the device's queues laid end to
	// end in that order; next[s] is the slot of stream s's next task.
	devStreams := make([][]*Stream, maxDev+1)
	next := make([]int32, len(e.streams))
	slots := make([]int32, maxDev+1)
	for _, s := range e.streams {
		devStreams[s.device] = append(devStreams[s.device], s)
		next[s.seq] = slots[s.device]
		slots[s.device] += int32(len(s.queue))
	}

	// Position index: a single-stream task's (device, slot) is its
	// structural position, through which counterpart dependencies pair.
	// Multi-stream, callback and non-pending tasks get no position and
	// veto every device they touch. A stream's queue holds its tasks in
	// creation order, so a running count per stream yields the slot. The
	// same pass sizes each task's range of the flat predecessor index by
	// its in-degree — before a run or a collapse, After is its only
	// writer, once per edge — and sets end[i] to the range's start.
	nT := len(e.tasks)
	posDev := make([]int32, nT)
	posSlot := make([]int32, nT)
	end := make([]int32, nT)
	vetoed := make([]bool, maxDev+1)
	n := int32(0)
	for i, t := range e.tasks {
		end[i] = n
		n += int32(t.deps)
		if len(t.streams) > 1 || len(t.onDone) > 0 || t.st != statePending {
			for _, s := range t.streams {
				vetoed[s.device] = true
				next[s.seq]++
			}
			posDev[i] = -1
			continue
		}
		s := t.streams[0]
		posDev[i], posSlot[i] = int32(s.device), next[s.seq]
		next[s.seq]++
	}

	// One walk over the successor lists in creation order fills the
	// ranges, advancing end[i] from the range's start to its end.
	// Symmetric builders emit counterpart edges in the same global order
	// on every member device, so the predecessor lists of counterpart
	// tasks align positionally. The index stores seq numbers, not
	// pointers: tasks[i].seq == i makes them equivalent, and a
	// pointer-free slab is invisible to the garbage collector — at
	// cluster scale this index is the detector's largest allocation.
	flat := make([]int32, n)
	for _, t := range e.tasks {
		for _, s := range t.succs {
			flat[end[s.seq]] = int32(t.seq)
			end[s.seq]++
		}
	}
	preds := func(t *Task) []int32 { return flat[end[t.seq]-int32(t.deps) : end[t.seq]] }

	// pair proves tb on device b the structural twin of ta on device a;
	// verify has checked that the two devices' queues have one shape, so
	// equal slots are the same stream and queue position.
	pair := func(ta, tb *Task, a, b int32) bool {
		if ta.kind != tb.kind ||
			math.Float64bits(ta.work) != math.Float64bits(tb.work) ||
			ta.deps != tb.deps ||
			!eq(ta.payload, tb.payload) {
			return false
		}
		pa, pb := preds(ta), preds(tb)
		for i := range pa {
			da, db := pa[i], pb[i]
			if da == db {
				continue // shared dependency (collective, barrier)
			}
			if posDev[da] == a && posDev[db] == b && posSlot[da] == posSlot[db] {
				continue // positional counterpart on the peer device
			}
			return false
		}
		return true
	}

	// verify proves device b the twin of class representative a and
	// records the mirror mapping only once the whole device pairs.
	verify := func(a, b int) bool {
		sa, sb := devStreams[a], devStreams[b]
		if !slices.EqualFunc(sa, sb, func(x, y *Stream) bool { return len(x.queue) == len(y.queue) }) {
			return false
		}
		for si := range sa {
			qa, qb := sa[si].queue, sb[si].queue
			for qi := range qa {
				if !pair(qa[qi], qb[qi], int32(a), int32(b)) {
					return false
				}
			}
		}
		for si := range sa {
			qa, qb := sa[si].queue, sb[si].queue
			for qi := range qa {
				qb[qi].mirror = qa[qi]
			}
		}
		return true
	}

	// open lists the classes a later device may join: those whose
	// representative is not vetoed.
	var classes []Class
	var open []int
devices:
	for dev, ss := range devStreams {
		if len(ss) == 0 {
			continue
		}
		if !vetoed[dev] {
			for _, ci := range open {
				if verify(classes[ci].Members[0], dev) {
					classes[ci].Members = append(classes[ci].Members, dev)
					continue devices
				}
			}
			open = append(open, len(classes))
		}
		classes = append(classes, Class{Members: []int{dev}})
	}
	return classes
}

// Collapse merges the given multi-member classes (as returned by
// DetectClasses on this engine, or declared by the builder that wrote
// the mirrors): every task on a non-representative member becomes a
// ghost — marked complete up front, excluded from scheduling, reporting
// its mirror's times — and its outgoing dependency edges are
// transferred to its mirror, so successors outside the class see the
// exact dependency-count decrements at the exact times the full
// simulation would have produced.
//
// Collapse walks the tasks in creation order twice: a validity pass
// (every task of a non-representative member is a pending single-stream
// task with a pending mirror on its class's representative device, else
// its class is skipped entirely — mirrors have more than one writer),
// and a marking pass that ghosts the valid classes' tasks into a list
// sized by the first pass; a transfer pass then walks the ghosts'
// successor lists. Every ghost is marked before any edge moves, so
// edges between ghosts drop out. A transferred edge into a successor the
// mirror already gates does not add a duplicate entry: the successor's
// in-degree is decremented at collapse time instead, and the entry the
// mirror holds keeps it gated until the mirror — and so every member —
// finishes. Only edges into successors the mirror does not gate yet are
// appended. With no multi-member class Collapse makes no pass at all.
// CollapseDeclared reaches the same state from a builder's ledger
// without these passes.
//
// Collapse returns the number of ghost tasks created. Classes with
// fewer than two members are ignored, as is a class listing a device
// that it or an earlier class already lists.
func (e *Engine) Collapse(classes []Class) int {
	if e.ran {
		return 0
	}
	maxDev := -1
	for _, c := range classes {
		if len(c.Members) < 2 {
			continue
		}
		for _, m := range c.Members {
			maxDev = max(maxDev, m)
		}
	}
	if maxDev < 0 {
		return 0
	}
	// ghostOf maps each non-representative member to its class;
	// claimed marks every listed member, representatives included.
	ghostOf := make([]int32, maxDev+1)
	for i := range ghostOf {
		ghostOf[i] = -1
	}
	claimed := make([]bool, maxDev+1)
	valid := make([]bool, len(classes))
	for ci, c := range classes {
		if len(c.Members) < 2 {
			continue
		}
		valid[ci] = true
		for _, m := range c.Members {
			if m < 0 || claimed[m] {
				valid[ci] = false
				break
			}
			claimed[m] = true
		}
		if valid[ci] {
			for _, m := range c.Members[1:] {
				ghostOf[m] = int32(ci)
			}
		}
	}

	// Validity pass; it also counts each class's ghosts.
	count := make([]int, len(classes))
	for _, t := range e.tasks {
		for _, s := range t.streams {
			if s.device > maxDev {
				continue
			}
			if ci := ghostOf[s.device]; ci >= 0 {
				if m := t.mirror; m == nil || t.st != statePending || len(t.streams) > 1 ||
					m.st != statePending || m.streams[0].device != classes[ci].Members[0] {
					valid[ci] = false
				}
				count[ci]++
			}
		}
	}
	collapsed, total := 0, 0
	for ci, c := range classes {
		if valid[ci] {
			collapsed++
			total += count[ci]
			continue
		}
		for _, m := range c.Members[1:] {
			if m >= 0 && m <= maxDev && ghostOf[m] == int32(ci) {
				ghostOf[m] = -1
			}
		}
	}
	if collapsed == 0 {
		return 0
	}
	e.stCollapsed += int64(collapsed)

	// Marking pass. The validity pass admitted only single-stream tasks
	// on a valid class's members, so a task's first stream is its only
	// one.
	ghosts := make([]*Task, 0, total)
	for _, t := range e.tasks {
		if d := t.streams[0].device; d <= maxDev && ghostOf[d] >= 0 {
			t.ghostify()
			ghosts = append(ghosts, t)
		}
	}

	// Transfer pass.
	for _, g := range ghosts {
		m := g.mirror
		for _, succ := range g.succs {
			if succ.st == stateDone {
				continue
			}
			if slices.Contains(m.succs, succ) {
				succ.deps--
				continue
			}
			if m.succs == nil && m.eng != nil {
				m.succs = m.eng.succChunk()
			}
			m.succs = append(m.succs, succ)
		}
	}
	e.stGhosts += len(ghosts)
	return len(ghosts)
}

// ghostify marks t a ghost: complete up front, never scheduled, its
// times and completion its mirror's. Both fields share the task's first
// cache line. It also counts t among its mirror's twins, so the engine
// counts t retired when the mirror retires, the moment t answers Done.
func (t *Task) ghostify() {
	t.st = stateDone
	t.ghost = true
	t.mirror.twins++
}

// ledger is the ghost ledger of one declared class: where its replica
// tasks sit in creation order, and which tasks have in-edges from them
// that their mirrors duplicate (each such task keeps its count in
// Task.dups). It is what lets CollapseDeclared reach Collapse's state
// without walking the tasks. It holds one range per fan-out and one
// entry per tallied successor, never a list of the replicas.
type ledger struct {
	spans []span
	dups  []*Task
	// void is set once the ledger can no longer stand for the class: a
	// mirror was written outside Replicate, or NoteEdges met an edge
	// from a replica whose mirror did not gate the same successor.
	void bool
}

// span is a range [from, to) of creation indices.
type span struct{ from, to int32 }

// Replicate writes rep as the mirror of every task of replicas and
// records where they sit in creation order in the engine's ghost ledger,
// one range per run of consecutive tasks. A builder that declares its
// ranks symmetric calls it once per fan-out with the fan-out's replica
// tasks; a fan-out made task by task in device order is one range.
func (e *Engine) Replicate(rep *Task, replicas []*Task) {
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

// NoteEdges records in the ghost ledger that succ, a task without a
// mirror, gained an in-edge from each non-nil task of deps, all in one
// call. An edge from a replica — a task with a mirror — is duplicated by
// its mirror's edge when the mirror is among deps too: CollapseDeclared
// takes it off succ's in-degree, as Collapse's transfer pass would. An
// edge from a replica whose mirror is not among deps would need the
// transfer to add an entry to the mirror's successors, so it voids the
// ledger. A builder that declares its symmetry calls NoteEdges for every
// edge its symmetric calls make into a task no collapse would ghost.
func (e *Engine) NoteEdges(succ *Task, deps ...*Task) {
	l := &e.ledger
	if l.void || succ.mirror != nil {
		return
	}
	n := 0
	var m *Task // the last mirror found among deps
	for _, d := range deps {
		if d == nil || d.mirror == nil {
			continue
		}
		if d.mirror != m {
			if !slices.Contains(deps, d.mirror) {
				l.void = true
				return
			}
			m = d.mirror
		}
		n++
	}
	if n > 0 {
		if succ.dups == 0 {
			l.dups = append(l.dups, succ)
		}
		succ.dups += int32(n)
	}
}

// CollapseDeclared collapses a declared class through the ghost ledger
// and returns the number of ghost tasks, leaving the engine in the state
// Collapse would: the ledger's replicas become ghosts and each tallied
// successor loses the in-edges their mirrors duplicate. It reads
// neither the tasks outside the ledger nor any successor list, so it
// costs O(fan-outs + tallied successors) plus a write per ghost.
//
// The caller vouches that the ledger's ranges hold every task of the
// class's members but the first and that NoteEdges saw every edge out
// of them into a task outside them; exec.Plan holds its builder to that
// with a census. CollapseDeclared reports false and changes nothing when
// the ledger cannot stand for the class: it is void, a range's mirror is
// not on the class representative, or the engine has run or collapsed.
// The caller then calls Collapse.
func (e *Engine) CollapseDeclared(c Class) (int, bool) {
	l := &e.ledger
	if l.void || e.ran || e.stCollapsed > 0 {
		return 0, false
	}
	if len(c.Members) < 2 {
		return 0, true
	}
	for _, s := range l.spans {
		if m := e.tasks[s.from].mirror; m == nil || m.streams[0].device != c.Members[0] {
			return 0, false
		}
	}
	ghosts := 0
	for _, s := range l.spans {
		for _, t := range e.tasks[s.from:s.to] {
			t.ghostify()
		}
		ghosts += int(s.to - s.from)
	}
	for _, t := range l.dups {
		t.deps -= int(t.dups)
	}
	e.stCollapsed++
	e.stGhosts += ghosts
	return ghosts, true
}
