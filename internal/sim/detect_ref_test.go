package sim

import (
	"math"
	"slices"
	"testing"
)

// detectClassesRef is an earlier form of the detector, kept verbatim as
// the reference the differential tests hold DetectClasses to: identical
// classes and an identical mirror mapping on every DAG. It reaches them
// another way: devices bucket by a structural signature and verify only
// within their bucket, a separate walk over every edge counts each
// task's predecessors, and the predecessor-list lengths are compared on
// top of the in-degree.
func (e *Engine) detectClassesRef(eq func(a, b any) bool) []Class {
	if e.ran || eq == nil || len(e.streams) == 0 {
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
	for dev, ss := range devStreams {
		for si, s := range ss {
			for qi, t := range s.queue {
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
	}

	// Flat predecessor index, filled by one walk over the tasks in
	// creation order. Symmetric builders emit counterpart edges in the
	// same global order on every member device, so the per-task pred
	// lists of counterpart tasks align positionally. The index stores
	// seq numbers, not pointers: tasks[i].seq == i makes them
	// equivalent, and a pointer-free slab is invisible to the garbage
	// collector — at cluster scale this index is the detector's largest
	// allocation.
	cnt := make([]int32, nT+1)
	for _, t := range e.tasks {
		for _, s := range t.succs {
			cnt[s.seq+1]++
		}
	}
	for i := 1; i <= nT; i++ {
		cnt[i] += cnt[i-1]
	}
	flat := make([]int32, cnt[nT])
	fill := make([]int32, nT)
	copy(fill, cnt[:nT])
	for _, t := range e.tasks {
		for _, s := range t.succs {
			flat[fill[s.seq]] = int32(t.seq)
			fill[s.seq]++
		}
	}
	preds := func(t *Task) []int32 { return flat[cnt[t.seq]:cnt[t.seq+1]] }

	// Cheap structural signature per mergeable device; devices bucket by
	// hash, then verify pairwise against each bucketed class rep.
	sig := make([]uint64, maxDev+1)
	for dev, ss := range devStreams {
		if !mergeable[dev] {
			continue
		}
		// Word-at-a-time FNV-style mix: collisions only cost a failed
		// pairwise verify, so a fast weak hash beats a slow strong one.
		h := uint64(14695981039346656037)
		mix := func(v uint64) {
			h = (h ^ v) * 1099511628211
		}
		mix(uint64(len(ss)))
		for _, s := range ss {
			mix(uint64(len(s.queue)))
			for _, t := range s.queue {
				mix(uint64(t.kind)<<32 ^ uint64(t.deps))
				mix(math.Float64bits(t.work))
				mix(uint64(len(preds(t))))
			}
		}
		sig[dev] = h
	}

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
				if len(pa) != len(pb) {
					return false
				}
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

// requireSameClasses builds the DAG twice, runs the reference detector
// on one copy and DetectClasses on the other, and fails unless both
// return the same partition and record the same mirror for every task.
func requireSameClasses(t *testing.T, build func() *Engine) []Class {
	t.Helper()
	ref, e := build(), build()
	want := ref.detectClassesRef(intEq)
	got := e.DetectClasses(intEq)
	if len(got) != len(want) {
		t.Fatalf("classes %v, reference %v", got, want)
	}
	for i := range got {
		if !slices.Equal(got[i].Members, want[i].Members) {
			t.Fatalf("classes %v, reference %v", got, want)
		}
	}
	if len(e.tasks) != len(ref.tasks) {
		t.Fatalf("builds differ: %d vs %d tasks", len(e.tasks), len(ref.tasks))
	}
	seqOf := func(m *Task) int {
		if m == nil {
			return -1
		}
		return m.seq
	}
	for i, rt := range ref.tasks {
		if g, w := seqOf(e.tasks[i].mirror), seqOf(rt.mirror); g != w {
			t.Fatalf("task %d (%s): mirror %d, reference %d", i, rt.name, g, w)
		}
	}
	return got
}

// ddpBarrierDAG is the data-parallel iteration boundary in sequential
// mode: every rank's first task of the next iteration waits on every
// rank's last task (the iteration barrier), and once more on its own
// (the sequential chain). Device 0 also carries the home stream of the
// serialized collectives. The duplicated own edge sits at a different
// position of each rank's sorted predecessor list, so the positional
// proof pairs rank 1 with rank 2 but neither with rank 3: the detector's
// known conservative miss, [[0] [1 2] [3]] at four ranks.
func ddpBarrierDAG() *Engine {
	const ranks = 4
	e := NewEngine(PlatformFunc(flatRate))
	home := e.NewStream("seqcomm", 0)
	e.NewTask("ar", KindComm, 1, 7, home)
	last := make([]*Task, ranks)
	streams := make([]*Stream, ranks)
	for r := range streams {
		streams[r] = e.NewStream(name(r), r)
		last[r] = e.NewTask("opt", KindCompute, 1, 0, streams[r])
	}
	for r := range streams {
		e.NewTask("fwd", KindCompute, 2, 1, streams[r]).After(last...).After(last[r])
	}
	return e
}

// payloadSplitDAG is symDAG's four ranks with the payloads of ranks 2
// and 3 shifted: equal work, equal dependency shape, different payload.
func payloadSplitDAG() *Engine {
	e, tasks := symDAG(4, 6, nil)
	for r := 2; r < 4; r++ {
		for _, t := range tasks[r] {
			t.payload = t.payload.(int) + 3
		}
	}
	return e
}

func TestDetectClassesMatchesReference(t *testing.T) {
	perturb := func(rank, slot int, w float64) float64 {
		if rank == 2 && slot == 3 {
			return w * 2
		}
		return w
	}
	cases := []struct {
		name  string
		build func() *Engine
		want  [][]int // nil: only agreement with the reference is checked
	}{
		{"identical ranks", func() *Engine { e, _ := symDAG(4, 6, nil); return e }, [][]int{{0, 1, 2, 3}, {4}}},
		{"perturbed rank", func() *Engine { e, _ := symDAG(4, 6, perturb); return e }, [][]int{{0, 1, 3}, {2}, {4}}},
		{"ddp barrier", ddpBarrierDAG, [][]int{{0}, {1, 2}, {3}}},
		// Ranks {0,1} and {2,3} carry different payloads and nothing
		// else differs: two classes that only the payloads tell apart.
		// Rank 3 fails rank 0's class and must find rank 2's.
		{"payload split", payloadSplitDAG, [][]int{{0, 1}, {2, 3}, {4}}},
		{"fuzz seed", func() *Engine { return classFuzzDAG([]byte{5, 7, 3, 17, 2, 0, 40, 26, 0, 9, 5, 250}) }, nil},
		// Rank 0's third slot waits on its second slot, rank 1's on its
		// first: same in-degree, same devices, different queue positions.
		{"wrong-slot dependency", func() *Engine { return classFuzzDAG(wrongSlotSeed) }, [][]int{{0}, {1}, {2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := requireSameClasses(t, tc.build)
			if tc.want == nil {
				return
			}
			if len(got) != len(tc.want) {
				t.Fatalf("classes %v, want %v", got, tc.want)
			}
			for i := range got {
				if !slices.Equal(got[i].Members, tc.want[i]) {
					t.Fatalf("classes %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// classFuzzDAG builds a rank-replicated DAG with the features the
// detector must see through or veto. Layout: byte 0 → rank count
// (2..7), byte 1 → slot count (1..10), byte 2 → flags (bit 0: two
// streams per rank; bit 1: a home stream on device 0; bit 2: barriers
// repeat the rank's own edge), then per slot three bytes: work and
// stream selector, dependency selector, perturbation selector. Tasks
// are created slot by slot across the ranks, as the strategy builders
// fan out each layer. Dependency modes: an earlier own slot, a shared
// task (collective), a barrier on every rank's earlier slot, a ring
// neighbour's slot, a duplicated own edge, or a shared reduction of
// every rank's slot that the slot then waits on. A perturbation touches
// one rank: its work, payload, a rendezvous on the shared stream, a
// completion callback, or a dependency on a different earlier slot.
func classFuzzDAG(data []byte) *Engine {
	if len(data) < 3 {
		return nil
	}
	ranks := int(data[0])%6 + 2
	slots := int(data[1])%10 + 1
	flags := data[2]
	at := func(i int) byte {
		if 3+i < len(data) {
			return data[3+i]
		}
		return byte(i * 41)
	}
	e := NewEngine(PlatformFunc(flatRate))
	shared := e.NewStream("shared", ranks)
	if flags&2 != 0 {
		e.NewTask("home", KindComm, 1, 99, e.NewStream("home", 0))
	}
	perRank := 1 + int(flags&1)
	streams := make([][]*Stream, ranks)
	for r := range streams {
		for k := 0; k < perRank; k++ {
			streams[r] = append(streams[r], e.NewStream(name(r), r))
		}
	}
	tasks := make([][]*Task, ranks)
	for i := 0; i < slots; i++ {
		wb, db, pb := at(3*i), at(3*i+1), at(3*i+2)
		mode, j := int(db)%8, 0
		if i > 0 {
			j = int(db/8) % i
		}
		var sharedDep *Task
		switch {
		case mode == 1:
			sharedDep = e.NewTask("coll", KindComm, 1, 100+i, shared)
		case mode == 5 && i > 0:
			sharedDep = e.NewTask("reduce", KindComm, 1, 100+i, shared)
			for r := range tasks {
				sharedDep.After(tasks[r][j])
			}
		}
		victim := int(pb) % ranks
		for r := 0; r < ranks; r++ {
			work := float64(wb%16)/4 + 0.25
			payload := i
			ss := []*Stream{streams[r][int(wb/16)%perRank]}
			if r == victim {
				switch {
				case pb >= 240:
					work *= 2
				case pb >= 230:
					payload = -1
				case pb >= 220:
					ss = append(ss, shared)
				}
			}
			t := e.NewTask(name(i), Kind(int(wb)%3), work, payload, ss...)
			if r == victim && pb >= 210 && pb < 220 {
				t.OnDone(func(float64) {})
			}
			if i > 0 {
				jr := j
				if r == victim && pb >= 200 && pb < 210 {
					jr = (j + 1) % i
				}
				switch mode {
				case 0:
					t.After(tasks[r][jr])
				case 2:
					for q := range tasks {
						t.After(tasks[q][j])
					}
					if flags&4 != 0 {
						t.After(tasks[r][jr])
					}
				case 3:
					t.After(tasks[(r+1)%ranks][jr])
				case 4:
					t.After(tasks[r][i-1], tasks[r][i-1])
				default:
					t.After(tasks[r][i-1])
				}
			}
			t.After(sharedDep)
			tasks[r] = append(tasks[r], t)
		}
	}
	return e
}

// wrongSlotSeed builds two ranks of nine slots whose only difference is
// the queue position of one dependency (slot byte 202 on rank 0).
var wrongSlotSeed = []byte("00000000000\xca00000000000")

// FuzzDetectClasses is the detector differential: on every fuzzed
// rank-replicated DAG, DetectClasses must return the reference's
// classes and record the reference's mirror for every task.
func FuzzDetectClasses(f *testing.F) {
	f.Add([]byte{5, 7, 3, 17, 2, 0, 40, 26, 0, 9, 5, 250})
	f.Add([]byte{2, 6, 6, 2, 10, 1, 18, 3, 0, 2, 34, 225})
	f.Add([]byte{4, 2, 6, 1, 0, 0, 1, 2, 0})
	f.Add([]byte{7, 9, 1, 33, 4, 235, 3, 5, 245, 8, 1, 212, 16, 3, 0})
	f.Add(wrongSlotSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if classFuzzDAG(data) == nil {
			return
		}
		requireSameClasses(t, func() *Engine { return classFuzzDAG(data) })
	})
}
