package sim

import "math"

// Rank-symmetry fast path.
//
// DDP/FSDP/TP training iterations are identical across ranks: every
// device executes the same kernel sequence with the same dependency
// shape, so the fluid engine computes the exact same start/end times for
// every rank of a class. DetectClasses proves that symmetry structurally
// — it never trusts a builder's word — and Collapse then simulates one
// representative device per class, reconstructing the other members'
// timelines by copying the representative's task times after the run.
// The reconstruction is bit-exact, not approximate: class members would
// have executed the identical float operations in the identical order,
// so the golden schedule digests are unchanged while the simulated work
// drops from O(ranks) to O(classes).
//
// Detection is conservative by construction. Any device the proof cannot
// cover — multi-stream (rendezvous) tasks, completion callbacks, a
// dependency whose position cannot be paired — falls back to a singleton
// class and is simulated for real. A wrong answer is therefore
// impossible; the worst case is a missed speedup.

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
//
// The proof costs two passes over the tasks and one over the edges: a
// per-device walk of the stream queues that records each task's
// structural position and mixes the device signature, a prefix sum over
// the in-degrees, and one walk over the successor lists that fills the
// predecessor index. Pairwise verification then touches only devices
// whose signatures collide.
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
	// them is the alignment the pairwise verification walks.
	devStreams := make([][]*Stream, maxDev+1)
	for _, s := range e.streams {
		devStreams[s.device] = append(devStreams[s.device], s)
	}

	// Position index: for single-stream tasks, (device, stream index
	// within the device, queue position) identifies the task's structural
	// slot; counterpart dependencies are paired through it. Multi-stream
	// tasks get no position and veto every device they touch.
	//
	// The same walk mixes each device's structural signature; devices
	// bucket by it, then verify pairwise against each bucketed class rep.
	// A word-at-a-time FNV-style mix: collisions only cost a failed
	// pairwise verify, so a fast weak hash beats a slow strong one. The
	// in-degree stands for the predecessor count: before a run or a
	// collapse, After is its only writer, once per edge.
	const (
		devUnset = -1
		devMulti = -2
	)
	nT := len(e.tasks)
	posDev := make([]int32, nT)
	posStream := make([]int32, nT)
	posQueue := make([]int32, nT)
	for i := range posDev {
		posDev[i] = devUnset
	}
	mergeable := make([]bool, maxDev+1)
	for dev, ss := range devStreams {
		mergeable[dev] = len(ss) > 0
	}
	sig := make([]uint64, maxDev+1)
	for dev, ss := range devStreams {
		h := uint64(14695981039346656037)
		mix := func(v uint64) {
			h = (h ^ v) * 1099511628211
		}
		mix(uint64(len(ss)))
		for si, s := range ss {
			mix(uint64(len(s.queue)))
			for qi, t := range s.queue {
				mix(uint64(t.kind)<<32 ^ uint64(t.deps))
				mix(math.Float64bits(t.work))
				if len(t.streams) > 1 || len(t.onDone) > 0 || t.st != statePending {
					for _, ts := range t.streams {
						mergeable[ts.device] = false
					}
					posDev[t.seq] = devMulti
					continue
				}
				posDev[t.seq] = int32(dev)
				posStream[t.seq] = int32(si)
				posQueue[t.seq] = int32(qi)
			}
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
	end := make([]int32, nT)
	n := int32(0)
	for i, t := range e.tasks {
		end[i] = n
		n += int32(t.deps)
	}
	flat := make([]int32, n)
	for _, t := range e.tasks {
		for _, s := range t.succs {
			flat[end[s.seq]] = int32(t.seq)
			end[s.seq]++
		}
	}
	preds := func(t *Task) []int32 { return flat[end[t.seq]-int32(t.deps) : end[t.seq]] }

	verify := func(a, b int) bool {
		sa, sb := devStreams[a], devStreams[b]
		if len(sa) != len(sb) {
			return false
		}
		for si := range sa {
			qa, qb := sa[si].queue, sb[si].queue
			if len(qa) != len(qb) {
				return false
			}
			for qi := range qa {
				ta, tb := qa[qi], qb[qi]
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
					if posDev[da] == int32(a) && posDev[db] == int32(b) &&
						posStream[da] == posStream[db] &&
						posQueue[da] == posQueue[db] {
						continue // positional counterpart on the peer device
					}
					return false
				}
			}
		}
		// Proven: record the mirror mapping for Collapse.
		for si := range sa {
			qa, qb := sa[si].queue, sb[si].queue
			for qi := range qa {
				qb[qi].mirror = qa[qi]
			}
		}
		return true
	}

	var classes []Class
	buckets := make(map[uint64][]int) // signature -> class indices (looked up, never ranged)
	for dev := 0; dev <= maxDev; dev++ {
		if len(devStreams[dev]) == 0 {
			continue
		}
		if !mergeable[dev] {
			classes = append(classes, Class{Members: []int{dev}})
			continue
		}
		matched := -1
		for _, ci := range buckets[sig[dev]] {
			rep := classes[ci].Members[0]
			if mergeable[rep] && verify(rep, dev) {
				matched = ci
				break
			}
		}
		if matched >= 0 {
			classes[matched].Members = append(classes[matched].Members, dev)
			continue
		}
		buckets[sig[dev]] = append(buckets[sig[dev]], len(classes))
		classes = append(classes, Class{Members: []int{dev}})
	}
	return classes
}

// Collapse merges the given multi-member classes (as returned by
// DetectClasses on this engine): every task on a non-representative
// member becomes a ghost — marked complete up front, excluded from
// scheduling — and its outgoing dependency edges are transferred to its
// representative mirror, so successors outside the class see the exact
// dependency-count decrements at the exact times the full simulation
// would have produced. After a successful run the ghosts' start/end
// times are reconstructed from their mirrors.
//
// Collapse returns the number of ghost tasks created. Classes with
// fewer than two members are ignored; a class whose mirror mapping is
// incomplete (not produced by DetectClasses) is skipped entirely.
func (e *Engine) Collapse(classes []Class) int {
	if e.ran {
		return 0
	}
	var devStreams [][]*Stream
	for _, s := range e.streams {
		for len(devStreams) <= s.device {
			devStreams = append(devStreams, nil)
		}
		devStreams[s.device] = append(devStreams[s.device], s)
	}
	ghosts := 0
	for _, c := range classes {
		if len(c.Members) < 2 {
			continue
		}
		ok := true
	check:
		for _, dev := range c.Members[1:] {
			for _, s := range devStreams[dev] {
				for _, t := range s.queue {
					if t.mirror == nil || t.st != statePending {
						ok = false
						break check
					}
				}
			}
		}
		if !ok {
			continue
		}
		e.stCollapsed++
		first := len(e.ghosts)
		if cap(e.ghosts)-first < 16 {
			// Size the ghost list for the class in one growth step.
			total := 0
			for _, dev := range c.Members[1:] {
				for _, s := range devStreams[dev] {
					total += len(s.queue)
				}
			}
			if cap(e.ghosts)-first < total {
				grown := make([]*Task, first, first+total)
				copy(grown, e.ghosts)
				e.ghosts = grown
			}
		}
		for _, dev := range c.Members[1:] {
			for _, s := range devStreams[dev] {
				for _, t := range s.queue {
					t.st = stateDone
					t.remaining = 0
					e.ghosts = append(e.ghosts, t)
				}
			}
		}
		// Transfer ghost → live edges onto the mirrors. All ghosts of the
		// class are marked done above before any transfer, so class-internal
		// edges drop out and only edges into genuinely simulated tasks move.
		// The first member's transfer counts pre-size each mirror's list:
		// the remaining members repeat the identical counts, so the append
		// loop below never reallocates mid-class.
		extra := len(c.Members) - 1
		for _, s := range devStreams[c.Members[1]] {
			for _, t := range s.queue {
				live := 0
				for _, succ := range t.succs {
					if succ.st != stateDone {
						live++
					}
				}
				if live == 0 {
					continue
				}
				m := t.mirror
				if need := len(m.succs) + live*extra; cap(m.succs) < need {
					grown := make([]*Task, len(m.succs), need)
					copy(grown, m.succs)
					m.succs = grown
				}
			}
		}
		for _, g := range e.ghosts[first:] {
			m := g.mirror
			for _, succ := range g.succs {
				if succ.st == stateDone {
					continue
				}
				if m.succs == nil && m.eng != nil {
					m.succs = m.eng.succChunk()
				}
				m.succs = append(m.succs, succ)
			}
		}
		ghosts += len(e.ghosts) - first
	}
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
