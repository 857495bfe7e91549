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
// every rank of a class. Collapse simulates one representative device
// per class and reconstructs the other members' timelines by copying the
// representative's task times after the run. The reconstruction is
// bit-exact, not approximate: class members would have executed the
// identical float operations in the identical order, so the golden
// schedule digests are unchanged while the simulated work drops from
// O(ranks) to O(classes).
//
// A class and its mirrors come from one of two producers. A builder
// whose ranks are symmetric by construction declares them: it writes
// each replica task's mirror as it fans the task out (SetMirror), and
// Census lets it check that the engine holds nothing it did not make
// through its symmetric calls; FSDP plans do this. DetectClasses proves
// symmetry structurally instead, trusting no builder's word: it serves
// the plans that declare nothing (DDP, TP, pipeline, hand-assembled
// plans) and the declared plans whose census check fails, and it is the
// oracle the tests hold every declaration to.
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
// It overwrites any mirror a builder declared on those tasks.
//
// DetectClasses is the path of plans whose builder declares no symmetry
// (DDP, TP, pipeline and hand-assembled plans) and of declared plans
// whose census no longer matches their builder's tally; tests compare
// every declaration against it.
//
// The proof walks the tasks in creation order — the order they sit in
// the slab — three times. The first pass records each task's structural
// position, mixes per-stream signatures and lays out the in-degree
// offsets; the second fills the predecessor index from the successor
// lists; the third checks every task of a candidate device against its
// positional counterpart on the first device of the candidate's
// signature bucket, writing the mirror as it goes. A device that fails
// that check drops its partial mirrors and falls back to a per-device
// verification against the bucket's later classes, so the partition is
// the greedy first-match one: each device joins the first class, in
// order of creation, whose representative it verifies against.
func (e *Engine) DetectClasses(eq func(a, b any) bool) []Class {
	if e.ran || len(e.ghosts) > 0 || eq == nil || len(e.streams) == 0 {
		return nil
	}
	maxDev := -1
	for _, s := range e.streams {
		if s.device > maxDev {
			maxDev = s.device
		}
	}
	if maxDev < 0 {
		return nil
	}
	// Streams per device, in creation order: the order the builder made
	// them is the alignment the verification walks. within is each
	// stream's index on its device.
	devStreams := make([][]*Stream, maxDev+1)
	within := make([]int32, len(e.streams))
	for _, s := range e.streams {
		within[s.seq] = int32(len(devStreams[s.device]))
		devStreams[s.device] = append(devStreams[s.device], s)
	}

	// Position index: for single-stream tasks, (device, stream index
	// within the device, queue position) identifies the task's structural
	// slot; counterpart dependencies are paired through it. Multi-stream
	// tasks get no position and veto every device they touch. A stream's
	// queue holds its tasks in creation order, so a running count per
	// stream yields the queue position.
	//
	// The same pass mixes a signature per stream; devices combine their
	// streams' signatures and bucket by the result. A word-at-a-time
	// FNV-style mix: collisions only cost a failed verification, so a
	// fast weak hash beats a slow strong one. The in-degree stands for
	// the predecessor count: before a run or a collapse, After is its
	// only writer, once per edge.
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
		devMulti  = -1
	)
	nT := len(e.tasks)
	posDev := make([]int32, nT)
	posStream := make([]int32, nT)
	posQueue := make([]int32, nT)
	end := make([]int32, nT)
	mergeable := make([]bool, maxDev+1)
	for dev, ss := range devStreams {
		mergeable[dev] = len(ss) > 0
	}
	queued := make([]int32, len(e.streams))
	streamSig := make([]uint64, len(e.streams))
	for i := range streamSig {
		streamSig[i] = fnvOffset
	}
	n := int32(0)
	for i, t := range e.tasks {
		end[i] = n
		n += int32(t.deps)
		if len(t.streams) > 1 || len(t.onDone) > 0 || t.st != statePending {
			for _, s := range t.streams {
				mergeable[s.device] = false
				queued[s.seq]++
			}
			posDev[i] = devMulti
			continue
		}
		s := t.streams[0]
		posDev[i] = int32(s.device)
		posStream[i] = within[s.seq]
		posQueue[i] = queued[s.seq]
		queued[s.seq]++
		h := streamSig[s.seq]
		h = (h ^ (uint64(t.kind)<<32 ^ uint64(t.deps))) * fnvPrime
		streamSig[s.seq] = (h ^ math.Float64bits(t.work)) * fnvPrime
	}
	sig := make([]uint64, maxDev+1)
	for dev, ss := range devStreams {
		if !mergeable[dev] {
			continue
		}
		h := uint64(fnvOffset)
		h = (h ^ uint64(len(ss))) * fnvPrime
		for _, s := range ss {
			h = (h ^ uint64(len(s.queue))) * fnvPrime
			h = (h ^ streamSig[s.seq]) * fnvPrime
		}
		sig[dev] = h
	}

	// Flat predecessor index. Symmetric builders emit counterpart edges
	// in the same global order on every member device, so the per-task
	// pred lists of counterpart tasks align positionally. Each task's
	// slot is sized by its in-degree; one walk over the successor lists
	// in creation order fills the slots, advancing end[i] from the slot's
	// start to its end. The index stores seq numbers, not pointers:
	// tasks[i].seq == i makes them equivalent, and a pointer-free slab is
	// invisible to the garbage collector — at cluster scale this index is
	// the detector's largest allocation.
	flat := make([]int32, n)
	for _, t := range e.tasks {
		for _, s := range t.succs {
			flat[end[s.seq]] = int32(t.seq)
			end[s.seq]++
		}
	}
	preds := func(t *Task) []int32 { return flat[end[t.seq]-int32(t.deps) : end[t.seq]] }

	// pair proves tb on device b the structural twin of ta on device a.
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
			if posDev[da] == a && posDev[db] == b &&
				posStream[da] == posStream[db] &&
				posQueue[da] == posQueue[db] {
				continue // positional counterpart on the peer device
			}
			return false
		}
		return true
	}
	sameShape := func(a, b int) bool {
		sa, sb := devStreams[a], devStreams[b]
		if len(sa) != len(sb) {
			return false
		}
		for si := range sa {
			if len(sa[si].queue) != len(sb[si].queue) {
				return false
			}
		}
		return true
	}

	// Candidates: every mergeable device whose signature bucket already
	// has a first device is checked against that device in one
	// creation-order pass. first[dev] is the bucket's first device for a
	// candidate, candFounder for the device that opens its bucket,
	// candFailed once the check (or the shape check) fails, and candNone
	// for a device that is not mergeable.
	const (
		candFounder = -1
		candFailed  = -2
		candNone    = -3
	)
	first := make([]int32, maxDev+1)
	buckets := make(map[uint64][]int) // signature -> class indices (looked up, never ranged)
	founder := make(map[uint64]int32)
	candidates := 0
	for dev := range devStreams {
		if !mergeable[dev] {
			first[dev] = candNone
			continue
		}
		f, ok := founder[sig[dev]]
		switch {
		case !ok:
			founder[sig[dev]] = int32(dev)
			first[dev] = candFounder
		case sameShape(int(f), dev):
			first[dev] = f
			candidates++
		default:
			first[dev] = candFailed
		}
	}
	if candidates > 0 {
		for i, tb := range e.tasks {
			b := posDev[i]
			if b < 0 || first[b] < 0 {
				continue
			}
			a := first[b]
			ta := devStreams[a][posStream[i]].queue[posQueue[i]]
			if !pair(ta, tb, a, b) {
				first[b] = candFailed
				continue
			}
			tb.mirror = ta
		}
	}

	// verify is the per-device fallback for a device that failed its
	// bucket's first class: it proves b against class representative a
	// and records the mirror mapping only once the whole device pairs.
	verify := func(a, b int) bool {
		if !sameShape(a, b) {
			return false
		}
		sa, sb := devStreams[a], devStreams[b]
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

	var classes []Class
	for dev := 0; dev <= maxDev; dev++ {
		if len(devStreams[dev]) == 0 {
			continue
		}
		if !mergeable[dev] {
			classes = append(classes, Class{Members: []int{dev}})
			continue
		}
		bucket := buckets[sig[dev]]
		switch first[dev] {
		case candFounder:
		case candFailed:
			// Drop the mirrors the creation-order check wrote before it
			// failed, then try the bucket's later classes in order.
			for _, s := range devStreams[dev] {
				for _, t := range s.queue {
					t.mirror = nil
				}
			}
			matched := -1
			for _, ci := range bucket[1:] {
				if verify(classes[ci].Members[0], dev) {
					matched = ci
					break
				}
			}
			if matched >= 0 {
				classes[matched].Members = append(classes[matched].Members, dev)
				continue
			}
		default:
			classes[bucket[0]].Members = append(classes[bucket[0]].Members, dev)
			continue
		}
		buckets[sig[dev]] = append(bucket, len(classes))
		classes = append(classes, Class{Members: []int{dev}})
	}
	return classes
}

// Collapse merges the given multi-member classes (as returned by
// DetectClasses on this engine, or declared by the builder that wrote
// the mirrors): every task on a non-representative member becomes a
// ghost — marked complete up front, excluded from scheduling — and its
// outgoing dependency edges are transferred to its representative
// mirror, so successors outside the class see the exact
// dependency-count decrements at the exact times the full simulation
// would have produced. After a successful run the ghosts' start/end
// times are reconstructed from their mirrors.
//
// Collapse walks the tasks in creation order three times: a validity
// pass (every task of a non-representative member is a pending
// single-stream task with a pending mirror on its class's
// representative device, else its class is skipped entirely — mirrors
// have two producers, a builder's declaration and DetectClasses), a
// marking pass that ghosts the valid classes' tasks into a list sized
// by the first pass, and a transfer pass over the ghosts. Every ghost is marked before any
// edge moves, so edges between ghosts drop out. A transferred edge into
// a successor the mirror already gates does not add a duplicate entry:
// the successor's in-degree is decremented at collapse time instead,
// and the entry the mirror holds keeps it gated until the mirror — and
// so every member — finishes. Only edges into successors the mirror
// does not gate yet are appended. With no multi-member class Collapse
// makes no pass at all.
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
	first := len(e.ghosts)
	if cap(e.ghosts)-first < total {
		grown := make([]*Task, first, first+total)
		copy(grown, e.ghosts)
		e.ghosts = grown
	}
	for _, t := range e.tasks {
		if d := t.streams[0].device; d <= maxDev && ghostOf[d] >= 0 {
			t.st = stateDone
			t.remaining = 0
			e.ghosts = append(e.ghosts, t)
		}
	}

	// Transfer pass.
	for _, g := range e.ghosts[first:] {
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
	ghosts := len(e.ghosts) - first
	e.stGhosts += ghosts
	return ghosts
}

// finalizeGhosts reconstructs the collapsed tasks' timelines from their
// class representatives. Called once, when a collapsed run completes.
func (e *Engine) finalizeGhosts() {
	for _, g := range e.ghosts {
		m := g.mirror
		g.started = m.started
		g.start = m.start
		g.end = m.end
	}
}
