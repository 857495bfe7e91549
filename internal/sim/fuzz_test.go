package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// fuzzDAG builds a randomized multi-stream DAG from the fuzz input and
// returns the engine plus the total work created. The same bytes always
// build the same graph, which is what lets the harness demand identical
// results across two runs.
//
// Layout: byte 0 → stream count (1..8), byte 1 → task count (1..48),
// then per task three bytes: work selector, stream selector(s), and a
// dependency selector. Rendezvous tasks (two streams) and cross-stream
// dependencies — including ones that can deadlock — arise naturally from
// the byte soup; the harness only demands the engine never hangs or
// panics and that every terminating run conserves work. A work selector
// of 224 or more also gives the task a completion callback that enqueues
// a follow-on task, possibly zero-work, on the same streams mid-run.
//
// The DAG is its own platform. Besides assigning rates it holds the
// engine to the Platform delta contract: it rebuilds the running set
// from the entered and left tasks of every call and records the first
// call at which that set is not running.
type fuzzDAG struct {
	eng      *Engine
	tasks    []*Task
	total    float64
	stalled  []bool         // per-task: platform pins rate to zero while peers run
	live     map[*Task]bool // the running set rebuilt from the deltas
	deltaErr error          // first breach of the delta contract
}

// Rates implements Platform.
func (d *fuzzDAG) Rates(now float64, running, entered, left []*Task) {
	d.checkDelta(running, entered, left)
	// Rate pattern derived from the task's seq so the two differential
	// runs see identical rates: stalled tasks run at zero while any
	// non-stalled peer runs (possible deadlock, must be detected).
	anyLive := false
	for _, t := range running {
		if !d.stalled[t.Payload().(int)] {
			anyLive = true
		}
	}
	for _, t := range running {
		id := t.Payload().(int)
		switch {
		case d.stalled[id] && anyLive:
			t.SetRate(0)
		default:
			t.SetRate(float64(id%3) + 0.5)
		}
	}
}

// checkDelta applies one call's delta to the rebuilt running set and
// records the first call at which the set is not running, in creation
// order.
func (d *fuzzDAG) checkDelta(running, entered, left []*Task) {
	if d.deltaErr != nil {
		return
	}
	fail := func(format string, args ...any) {
		d.deltaErr = fmt.Errorf("t=%g: "+format, append([]any{d.eng.Now()}, args...)...)
	}
	for _, t := range left {
		if !d.live[t] {
			fail("task %q left without having entered", t.Name())
			return
		}
		delete(d.live, t)
	}
	for _, t := range entered {
		if d.live[t] {
			fail("task %q entered twice", t.Name())
			return
		}
		d.live[t] = true
	}
	if len(d.live) != len(running) {
		fail("delta rebuilds %d running tasks, engine runs %d", len(d.live), len(running))
		return
	}
	for i, t := range running {
		if !d.live[t] {
			fail("running task %q never entered", t.Name())
			return
		}
		if i > 0 && running[i-1].Seq() >= t.Seq() {
			fail("running set out of creation order at %q", t.Name())
			return
		}
	}
}

func buildFuzzDAG(data []byte) *fuzzDAG {
	if len(data) < 2 {
		return nil
	}
	nStreams := int(data[0])%8 + 1
	nTasks := int(data[1])%48 + 1
	d := &fuzzDAG{live: make(map[*Task]bool)}
	d.eng = NewEngine(d)
	streams := make([]*Stream, nStreams)
	for i := range streams {
		streams[i] = d.eng.NewStream(name(i), i)
	}
	at := func(i int) byte {
		if 2+i < len(data) {
			return data[2+i]
		}
		return byte(i * 37)
	}
	for i := 0; i < nTasks; i++ {
		wb, sb, db := at(3*i), at(3*i+1), at(3*i+2)
		work := float64(wb%32) / 4 // 0..7.75, zero-work included
		ss := []*Stream{streams[int(sb)%nStreams]}
		if sb >= 128 && nStreams > 1 {
			// Rendezvous on a second stream (may repeat the first: the
			// engine must dedup).
			ss = append(ss, streams[int(sb/2)%nStreams])
		}
		t := d.eng.NewTask(name(i), Kind(int(wb)%3), work, i, ss...)
		d.total += work
		d.stalled = append(d.stalled, db >= 240)
		if db < 200 && i > 0 {
			// Dependency on an earlier task (forward edges only would
			// always be acyclic, so sometimes depend on a LATER index via
			// OnDone-free After below, creating potential deadlock with
			// stream FIFO order).
			t.After(d.tasks[int(db)%i])
		}
		if db >= 200 && db < 220 && len(d.tasks) > 1 {
			// Backward edge from an earlier task to this one: cycles with
			// stream order become possible.
			d.tasks[int(db)%len(d.tasks)].After(t)
		}
		d.tasks = append(d.tasks, t)
		if wb >= 224 {
			follow := float64(db%4) / 4
			t.OnDone(func(now float64) {
				id := len(d.tasks)
				d.tasks = append(d.tasks, d.eng.NewTask(name(id), KindHost, follow, id, ss...))
				d.stalled = append(d.stalled, false)
				d.total += follow
			})
		}
	}
	return d
}

// runFuzzDAG executes the DAG and returns the terminal (err, end-times)
// observation. Invariants that must hold on every input are asserted via
// t.Fatalf by the caller.
func runFuzzDAG(d *fuzzDAG) (error, []float64) {
	err := d.eng.Run()
	ends := make([]float64, len(d.tasks))
	for i, t := range d.tasks {
		ends[i] = t.End()
	}
	return err, ends
}

// FuzzEngine feeds random multi-stream DAGs to the engine and asserts
// the scheduler's safety net: Run always terminates — returning nil or
// ErrDeadlock, never hanging or panicking — completed tasks satisfy
// end ≥ start, total retired work equals total created work on clean
// runs, two runs of the same input are bit-identical, and at every
// Rates call the delta the engine reports rebuilds its running set.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{3, 12, 0x10, 0x81, 0x05, 0x1f, 0x40, 0xd0})
	f.Add([]byte{1, 4, 0, 0, 0, 0xff, 0xff, 0xff})
	f.Add([]byte{8, 48})
	f.Add([]byte{2, 6, 9, 200, 210, 31, 129, 245})
	// Completion callbacks enqueue zero-work and timed follow-ons on a
	// rendezvous and on single streams, next to instant tasks.
	f.Add([]byte{3, 8, 0xe0, 0x81, 0x00, 0x00, 0x02, 0x01, 0xe8, 0x01, 0x03, 0x04, 0x00, 0x05, 0xf0, 0x92, 0x04, 0x00, 0x01, 0x06, 0xe4, 0x00, 0x00, 0x10, 0x02, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		d1 := buildFuzzDAG(data)
		if d1 == nil {
			return
		}
		err1, ends1 := runFuzzDAG(d1)
		if err1 != nil && !errors.Is(err1, ErrDeadlock) {
			t.Fatalf("engine returned unexpected error class: %v", err1)
		}
		if d1.deltaErr != nil {
			t.Fatalf("running-set delta: %v", d1.deltaErr)
		}

		var retired float64
		for i, task := range d1.tasks {
			if task.Done() {
				if task.End() < task.Start() {
					t.Fatalf("task %d: end %g < start %g", i, task.End(), task.Start())
				}
				retired += task.Work()
			} else if err1 == nil {
				t.Fatalf("run returned nil but task %d unfinished", i)
			}
		}
		if err1 == nil {
			if math.Abs(retired-d1.total) > 1e-9*(1+d1.total) {
				t.Fatalf("work not conserved: retired %g, created %g", retired, d1.total)
			}
			if now := d1.eng.Now(); now < 0 || math.IsNaN(now) || math.IsInf(now, 0) {
				t.Fatalf("terminal time %g invalid", now)
			}
		}

		// Determinism: the identical input must reproduce the identical
		// outcome, bit for bit.
		d2 := buildFuzzDAG(data)
		err2, ends2 := runFuzzDAG(d2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("two runs disagree on success: %v vs %v", err1, err2)
		}
		for i := range ends1 {
			if ends1[i] != ends2[i] {
				t.Fatalf("task %d end diverged across identical runs: %g vs %g", i, ends1[i], ends2[i])
			}
		}
	})
}

// symFuzzDAG builds a rank-replicated DAG from fuzz bytes: byte 0 →
// rank count (2..9), byte 1 → per-rank slot count (1..12), then per
// slot two bytes (work selector, dependency selector). Every rank gets
// the identical schedule hanging off one shared source, converging on
// one shared sink — the strategy-builder shape — except that a high
// dependency byte perturbs the work of one rank's slot, breaking that
// rank out of the class. Payloads are template slot indices, so the
// exported PayloadEq stand-in (plain int equality) pairs counterparts.
func symFuzzDAG(data []byte) (*Engine, [][]*Task) {
	if len(data) < 2 {
		return nil, nil
	}
	ranks := int(data[0])%8 + 2
	slots := int(data[1])%12 + 1
	at := func(i int) byte {
		if 2+i < len(data) {
			return data[2+i]
		}
		return byte(i * 53)
	}
	e := NewEngine(PlatformFunc(func(now float64, running []*Task) {
		for _, t := range running {
			t.SetRate(float64(t.Payload().(int)%4) + 0.25)
		}
	}))
	shared := e.NewStream("shared", ranks)
	src := e.NewTask("src", KindCompute, 1, 1000, shared)
	tasks := make([][]*Task, ranks)
	for r := 0; r < ranks; r++ {
		s := e.NewStream(name(r), r)
		tasks[r] = make([]*Task, slots)
		for i := 0; i < slots; i++ {
			wb, db := at(2*i), at(2*i+1)
			work := float64(wb%40)/8 + 0.25
			if db >= 250 && r == ranks-1 {
				work *= 2 // perturb the last rank out of the class
			}
			t := e.NewTask(name(i), Kind(int(wb)%3), work, i, s)
			if i == 0 {
				t.After(src)
			} else {
				t.After(tasks[r][int(db)%i])
				t.After(tasks[r][i-1])
			}
			tasks[r][i] = t
		}
	}
	sink := e.NewTask("sink", KindCompute, 1, 1001, shared)
	for r := 0; r < ranks; r++ {
		sink.After(tasks[r][slots-1])
	}
	return e, tasks
}

// FuzzEngineSymmetry is the collapse differential: whatever classes the
// detector proves on a fuzzed rank-replicated DAG, the collapsed run
// must reproduce the full run bit for bit — every task end, the ghosts'
// reconstructed times included, and the terminal clock. It also holds
// what measurement reads to the full walk (requireRepresentativesRead).
func FuzzEngineSymmetry(f *testing.F) {
	f.Add([]byte{4, 6, 0x10, 0x81, 0x05, 0x1f, 0x40, 0xd0})
	f.Add([]byte{2, 1})
	f.Add([]byte{7, 11, 9, 200, 210, 31, 129, 250, 17, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refTasks := symFuzzDAG(data)
		if ref == nil {
			return
		}
		errRef := ref.Run()

		e, tasks := symFuzzDAG(data)
		classes := e.DetectClasses(func(a, b any) bool { return a == b })
		ghosts := e.Collapse(classes)
		err := e.Run()

		if (errRef == nil) != (err == nil) {
			t.Fatalf("collapsed run disagrees on success: %v vs %v (ghosts=%d)", err, errRef, ghosts)
		}
		if errRef != nil {
			return // deadlocked inputs carry no timeline to compare
		}
		for r := range tasks {
			for i := range tasks[r] {
				g, fl := tasks[r][i], refTasks[r][i]
				if !g.Done() {
					t.Fatalf("rank %d slot %d unfinished after collapsed run", r, i)
				}
				if math.Float64bits(g.Start()) != math.Float64bits(fl.Start()) ||
					math.Float64bits(g.End()) != math.Float64bits(fl.End()) {
					t.Fatalf("rank %d slot %d diverged: [%g,%g] vs [%g,%g] (ghosts=%d)",
						r, i, g.Start(), g.End(), fl.Start(), fl.End(), ghosts)
				}
			}
		}
		if math.Float64bits(e.Now()) != math.Float64bits(ref.Now()) {
			t.Fatalf("terminal time diverged: %g vs %g", e.Now(), ref.Now())
		}
		requireRepresentativesRead(t, e, classes)
	})
}

// readSpan is one task's interval as measurement reads it.
type readSpan struct {
	kind       Kind
	start, end uint64
}

// requireRepresentativesRead checks, on a finished collapsed engine,
// the two facts measurement rests on when it reads only class
// representatives: a device's stream history lists, in creation order,
// exactly the tasks a walk over every task finds on the device, and a
// collapsed member's tasks, walked in full, report its representative's
// intervals position by position — what copying the representative's
// intervals through the alias gives it.
func requireRepresentativesRead(t *testing.T, e *Engine, classes []Class) {
	t.Helper()
	walked := func(dev int) []readSpan {
		var out []readSpan
		for _, task := range e.tasks {
			if task.streams[0].device == dev {
				out = append(out, readSpan{task.Kind(), math.Float64bits(task.Start()), math.Float64bits(task.End())})
			}
		}
		return out
	}
	read := func(dev int) []readSpan {
		var out []readSpan
		for _, s := range e.streams {
			if s.device != dev {
				continue
			}
			for _, task := range s.Tasks() {
				out = append(out, readSpan{task.Kind(), math.Float64bits(task.Start()), math.Float64bits(task.End())})
			}
		}
		return out
	}
	for _, c := range classes {
		rep := read(c.Members[0])
		if w := walked(c.Members[0]); !slices.Equal(rep, w) {
			t.Fatalf("gpu %d: stream history %v, walk %v", c.Members[0], rep, w)
		}
		for _, m := range c.Members[1:] {
			if w := walked(m); !slices.Equal(rep, w) {
				t.Fatalf("gpu %d (representative %d): walk %v, representative read %v", m, c.Members[0], w, rep)
			}
		}
	}
}
