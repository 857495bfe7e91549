// Package sim implements a deterministic discrete-event simulation engine
// with fluid (rate-based) task execution.
//
// The engine models a set of streams (FIFO command queues, one or more per
// device) executing tasks. A task carries an abstract amount of work (FLOPs
// for compute kernels, bytes for communication) and consumes it at a rate
// that a Platform recomputes every time the set of running tasks changes.
// Between such epochs all rates are constant, so task completion times are
// exact; this is the classic fluid processor-sharing formulation used by
// architectural simulators to model bandwidth and execution-unit contention
// without cycle-level detail.
//
// Dependencies form a DAG across streams: a task starts only when all its
// dependencies have finished and it is at the head of every stream it is
// enqueued on. Enqueuing one task on several streams models rendezvous
// operations such as collectives, which occupy the communication queue of
// every participating GPU simultaneously.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// Kind classifies a task for rate computation and tracing.
type Kind int

// Task kinds.
const (
	// KindCompute is a compute kernel (work measured in FLOPs).
	KindCompute Kind = iota
	// KindComm is a communication operation (work measured in bytes on the
	// wire per participant).
	KindComm
	// KindHost is host-side or fixed-latency work (work measured in
	// seconds; executed at rate 1).
	KindHost
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindComm:
		return "comm"
	case KindHost:
		return "host"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// state is the lifecycle of a task.
type state uint8

const (
	statePending state = iota
	stateRunning
	stateDone
)

// Task is one unit of simulated work. Create tasks with Engine.NewTask and
// configure them before Engine.Run is called.
type Task struct {
	// The first 64 bytes hold the fields the symmetry proof compares for
	// every task pair and the collapse checks on every edge, so those
	// passes over tens of thousands of tasks touch one or two cache
	// lines of each. A collapse marks a ghost, and Done, Start and End
	// tell one apart, within the same line. atDevice and twins fill
	// padding, so the line holds them for free.
	kind     Kind
	work     float64
	payload  any
	deps     int
	seq      int // creation order, for deterministic iteration
	st       state
	ghost    bool  // collapsed: its times and completion are its mirror's (see symmetry.go)
	atDevice bool  // Name appends "@" and the device (NameByDevice)
	twins    int32 // ghosts that mirror this task; they retire with it (see symmetry.go)
	mirror   *Task // class-representative counterpart (see symmetry.go)

	streams []*Stream
	succs   []*Task
	onDone  []func(now float64)

	remaining float64
	rate      float64
	started   bool
	dups      int32 // in-edges from replicas their mirrors duplicate (NoteEdges)
	start     float64
	end       float64

	name string
	eng  *Engine // owning engine (for slab allocation in After)
}

// Name returns the task's diagnostic name.
func (t *Task) Name() string {
	if !t.atDevice {
		return t.name
	}
	return t.name + "@" + strconv.Itoa(t.streams[0].device)
}

// NameByDevice makes Name report the name the task was created with
// followed by "@" and its first stream's device: "fwd.l7@3". A builder
// that fans one kernel out to every device names each task this way, so
// the fan-out stores its base name once and Name formats the suffix on
// demand instead of every task holding its own string.
func (t *Task) NameByDevice() *Task {
	t.atDevice = true
	return t
}

// Kind returns the task's kind.
func (t *Task) Kind() Kind { return t.kind }

// Work returns the total abstract work of the task.
func (t *Task) Work() float64 { return t.work }

// Payload returns the opaque payload attached at creation (for example a
// kernel or collective descriptor used by the Platform to compute rates).
func (t *Task) Payload() any { return t.payload }

// Streams returns the streams the task occupies.
func (t *Task) Streams() []*Stream { return t.streams }

// SetRate sets the task's current execution rate in work units per second.
// It must only be called by the Platform from within Rates.
func (t *Task) SetRate(r float64) {
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		//overlaplint:allow nopanic engine invariant: rates are computed by the Platform, not user input; NaN or negative means a model bug
		panic(fmt.Sprintf("sim: invalid rate %v for task %q", r, t.Name()))
	}
	t.rate = r
}

// Rate returns the rate most recently assigned by the Platform.
func (t *Task) Rate() float64 { return t.rate }

// Seq returns the task's creation index: its position in Engine.Tasks.
func (t *Task) Seq() int { return t.seq }

// timeline returns the task whose run stands for t's: a ghost's mirror
// (a collapsed task is not simulated; its class representative's
// counterpart runs for it), t itself otherwise.
func (t *Task) timeline() *Task {
	if t.ghost {
		return t.mirror
	}
	return t
}

// Start returns the simulated time at which the task started running. Valid
// only after the task has started.
func (t *Task) Start() float64 { return t.timeline().start }

// End returns the simulated time at which the task finished. Valid only
// once the task is done.
func (t *Task) End() float64 { return t.timeline().end }

// Done reports whether the task has finished. A collapsed task has
// finished when its mirror has, also after a cancelled run.
func (t *Task) Done() bool { return t.timeline().st == stateDone }

// After declares that t must not start before each of deps has finished.
// It must be called before Engine.Run.
func (t *Task) After(deps ...*Task) *Task {
	for _, d := range deps {
		if d == nil {
			continue
		}
		if d.st == stateDone {
			continue
		}
		if d.succs == nil && d.eng != nil {
			// First successor: hand out a small slab chunk instead of a
			// dedicated heap slice — most tasks gate only a couple of
			// followers, and fan-out tasks fall back to regular append
			// growth past the chunk.
			d.succs = d.eng.succChunk()
		}
		d.succs = append(d.succs, t)
		t.deps++
		if t.eng != nil {
			t.eng.edges++
		}
	}
	return t
}

// Gates makes every task of ts wait for t, as After(t) on each in order
// would, but grows t's successor list once for the whole fan-in instead
// of by append doubling. It returns the number of edges added.
func (t *Task) Gates(ts []*Task) int {
	if t.st == stateDone {
		return 0
	}
	if t.succs == nil && t.eng != nil {
		t.succs = t.eng.succChunk()
	}
	t.succs = slices.Grow(t.succs, len(ts))
	edges := 0
	for _, s := range ts {
		if s == nil {
			continue
		}
		t.succs = append(t.succs, s)
		s.deps++
		if s.eng != nil {
			s.eng.edges++
		}
		edges++
	}
	return edges
}

// OnDone registers a callback invoked when the task completes. Callbacks may
// create new tasks and enqueue them on streams.
func (t *Task) OnDone(f func(now float64)) *Task {
	t.onDone = append(t.onDone, f)
	if t.eng != nil {
		t.eng.callbacks++
	}
	return t
}

// Mirror returns the task's class-representative counterpart (see
// symmetry.go), or nil when none is recorded.
func (t *Task) Mirror() *Task { return t.mirror }

// SetMirror records rep as the task's class-representative counterpart:
// the task on the representative device whose timeline t reports once
// Collapse has ghosted t. A nil rep clears it. Mirrors have two other
// writers: Engine.Replicate, through which a builder that declares its
// symmetry writes them as it fans a kernel out, and DetectClasses, which
// writes them as it proves a class. A mirror written here or by
// DetectClasses voids the engine's ghost ledger (see CollapseDeclared).
func (t *Task) SetMirror(rep *Task) {
	t.mirror = rep
	if t.eng != nil {
		t.eng.ledger.void = true
	}
}

// Stream is a FIFO command queue. Tasks enqueued on a stream execute in
// order; at most one task per stream runs at a time.
type Stream struct {
	name   string
	device int
	queue  []*Task
	head   int
	seq    int
	dirty  bool // queued for admission recheck (see Engine.markDirty)
}

// Name returns the stream's diagnostic name.
func (s *Stream) Name() string { return s.name }

// Device returns the device index the stream belongs to.
func (s *Stream) Device() int { return s.device }

// Reserve pre-sizes the stream's queue for about n more tasks — one
// allocation instead of append growth. It is purely an allocation hint.
func (s *Stream) Reserve(n int) {
	if n > cap(s.queue)-len(s.queue) {
		s.queue = slices.Grow(s.queue, n)
	}
}

// Len returns the number of tasks not yet completed on the stream.
func (s *Stream) Len() int { return len(s.queue) - s.head }

// Tasks returns every task enqueued on the stream, in creation order,
// the completed ones included: the stream keeps its history after a
// run, so measurement reads a device's kernels off its stream. The
// slice is shared: callers must not modify it.
func (s *Stream) Tasks() []*Task { return s.queue }

func (s *Stream) headTask() *Task {
	if s.head < len(s.queue) {
		return s.queue[s.head]
	}
	return nil
}

// pop retires the head task. It only advances head: the slot keeps the
// task (which lives in the engine's slab anyway), so Tasks still lists
// it.
func (s *Stream) pop(t *Task) {
	if s.headTask() != t {
		//overlaplint:allow nopanic engine invariant: pop is only ever called on the stream head by the scheduler
		panic("sim: pop of non-head task")
	}
	s.head++
}

// Platform assigns execution rates to running tasks. Rates must be set via
// Task.SetRate for every task in running; a rate of zero stalls the task
// until the running set changes again.
type Platform interface {
	Rates(now float64, running []*Task)
}

// PlatformFunc adapts a function to the Platform interface.
type PlatformFunc func(now float64, running []*Task)

// Rates implements Platform.
func (f PlatformFunc) Rates(now float64, running []*Task) { f(now, running) }

// Observer is notified of every constant-rate segment of simulated time.
// Observers are used for power sampling and energy integration.
type Observer interface {
	Segment(t0, t1 float64, running []*Task)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(t0, t1 float64, running []*Task)

// Segment implements Observer.
func (f ObserverFunc) Segment(t0, t1 float64, running []*Task) { f(t0, t1, running) }

// Engine drives the simulation.
//
// The scheduler is incremental: instead of rescanning every stream and
// re-sorting the whole running set each epoch, the engine keeps a dirty
// set of streams whose head admissibility may have changed (initial
// creation, a pop exposing a new head, an enqueue on an empty queue, a
// dependency count reaching zero) and rechecks only those; the running
// set is kept ordered by task creation sequence through sorted insertion,
// so platforms observe exactly the ordering the original full-sort
// produced. Task objects and their small successor/stream slices come
// from slab arenas, turning graph construction into pointer bumps.
type Engine struct {
	platform  Platform
	streams   []*Stream
	tasks     []*Task
	running   []*Task // ordered by Task.seq
	observers []Observer
	now       float64
	nextSeq   int
	ran       bool

	dirty []*Stream // streams queued for admission recheck

	taskArena []Task  // slab the next tasks are carved from
	taskNext  int     // next free slot in taskArena
	succArena []*Task // slab for initial succ chunks
	succNext  int
	strmArena []*Stream // slab for per-task stream sets
	strmNext  int
	doneTmp   []*Task // retirement scratch, reused across epochs

	// retired counts the tasks that answer Done: a ghost retires with
	// its mirror (Task.twins). ledger is the ghost ledger of a declared
	// class (symmetry.go).
	retired int
	ledger  ledger

	// What the engine holds, for Census: dependency edges and completion
	// callbacks. Kept apart from Stats, which describes a run.
	edges     int
	callbacks int

	// Self-stats (see Stats). Plain ints, incremented from the single
	// scheduler goroutine: counting stays off the allocation path and
	// costs one add per event, so instrumented runs schedule
	// bit-identically to uninstrumented ones.
	stEpochs      int64
	stInstant     int64
	stAdmitPasses int64
	stRechecks    int64
	stAdmissions  int64
	stMaxRunning  int
	stSlabAllocs  int64
	stArenaBytes  int64
	stReserved    int64
	stCollapsed   int64
	stGhosts      int
}

// timeEps is the tolerance used when comparing simulated times and residual
// work, to absorb floating-point rounding across epochs.
const timeEps = 1e-12

// taskChunk is the slab granularity for task allocation when the caller
// did not Reserve capacity up front.
const taskChunk = 256

// succChunkLen is the successor capacity handed to a task on its first
// After edge; fan-out tasks grow past it with ordinary append doubling.
const succChunkLen = 2

// NewEngine returns an engine whose task rates are provided by p.
func NewEngine(p Platform) *Engine {
	if p == nil {
		p = PlatformFunc(func(now float64, running []*Task) {
			for _, t := range running {
				t.SetRate(1)
			}
		})
	}
	return &Engine{platform: p}
}

// Reserve pre-sizes the engine's task storage for about n additional
// tasks — one slab allocation instead of chunked growth. Builders that
// know their plan size call it once up front; it is purely an allocation
// hint and never required for correctness.
func (e *Engine) Reserve(n int) {
	if n <= 0 {
		return
	}
	e.stReserved += int64(n)
	if free := len(e.taskArena) - e.taskNext; free < n {
		e.taskArena = make([]Task, n)
		e.taskNext = 0
		e.noteSlab(int64(n) * taskBytes)
	}
	if cap(e.tasks)-len(e.tasks) < n {
		grown := make([]*Task, len(e.tasks), len(e.tasks)+n)
		copy(grown, e.tasks)
		e.tasks = grown
	}
	if free := len(e.succArena) - e.succNext; free < n*succChunkLen {
		e.succArena = make([]*Task, n*succChunkLen)
		e.succNext = 0
		e.noteSlab(int64(n*succChunkLen) * ptrBytes)
	}
	if free := len(e.strmArena) - e.strmNext; free < n {
		e.strmArena = make([]*Stream, n)
		e.strmNext = 0
		e.noteSlab(int64(n) * ptrBytes)
	}
}

// noteSlab records one arena slab allocation for Stats.
func (e *Engine) noteSlab(bytes int64) {
	e.stSlabAllocs++
	e.stArenaBytes += bytes
}

// allocTask carves the next task from the slab arena.
func (e *Engine) allocTask() *Task {
	if e.taskNext == len(e.taskArena) {
		e.taskArena = make([]Task, taskChunk)
		e.taskNext = 0
		e.noteSlab(taskChunk * taskBytes)
	}
	t := &e.taskArena[e.taskNext]
	e.taskNext++
	return t
}

// succChunk hands out a fixed-capacity successor slice from the slab.
func (e *Engine) succChunk() []*Task {
	if e.succNext+succChunkLen > len(e.succArena) {
		e.succArena = make([]*Task, taskChunk*succChunkLen)
		e.succNext = 0
		e.noteSlab(taskChunk * succChunkLen * ptrBytes)
	}
	c := e.succArena[e.succNext : e.succNext : e.succNext+succChunkLen]
	e.succNext += succChunkLen
	return c
}

// strmChunk hands out a fixed-capacity stream slice from the slab.
func (e *Engine) strmChunk(n int) []*Stream {
	if e.strmNext+n > len(e.strmArena) {
		size := taskChunk
		if size < n {
			size = n
		}
		e.strmArena = make([]*Stream, size)
		e.strmNext = 0
		e.noteSlab(int64(size) * ptrBytes)
	}
	c := e.strmArena[e.strmNext : e.strmNext : e.strmNext+n]
	e.strmNext += n
	return c
}

// markDirty queues a stream for an admission recheck. Admission state of
// a stream head changes only when the stream pops or gains a head, or
// when the head's dependency count reaches zero; every such event lands
// here, which is what lets admit skip untouched streams.
func (e *Engine) markDirty(s *Stream) {
	if !s.dirty {
		s.dirty = true
		e.dirty = append(e.dirty, s)
	}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Tasks returns every task created on the engine, in creation order.
func (e *Engine) Tasks() []*Task { return e.tasks }

// AddObserver registers an observer for constant-rate segments.
func (e *Engine) AddObserver(o Observer) { e.observers = append(e.observers, o) }

// NewStream creates a stream bound to the given device index.
func (e *Engine) NewStream(name string, device int) *Stream {
	s := &Stream{name: name, device: device, seq: len(e.streams)}
	e.streams = append(e.streams, s)
	e.markDirty(s)
	return s
}

// NewTask creates a task with the given diagnostic name, kind, total work
// and opaque payload, enqueued on the given streams in order. Work must be
// non-negative; zero-work tasks complete immediately upon starting.
func (e *Engine) NewTask(name string, kind Kind, work float64, payload any, streams ...*Stream) *Task {
	if work < 0 || math.IsNaN(work) || math.IsInf(work, 0) {
		//overlaplint:allow nopanic engine invariant: task work is computed by executor code, not user input; NaN or negative means a model bug
		panic(fmt.Sprintf("sim: invalid work %v for task %q", work, name))
	}
	if len(streams) == 0 {
		//overlaplint:allow nopanic engine invariant: executors always enqueue tasks on at least one stream
		panic(fmt.Sprintf("sim: task %q enqueued on no stream", name))
	}
	// Arena slots are never reused, so the slot is still zero: setting
	// the non-zero fields one by one skips the zeroing and bulk copy a
	// composite-literal store makes.
	t := e.allocTask()
	t.name = name
	t.kind = kind
	t.work = work
	t.payload = payload
	t.remaining = work
	t.seq = e.nextSeq
	t.eng = e
	e.nextSeq++
	// Dedup the stream set without a map: the overwhelmingly common case
	// is one or two streams, where a quadratic scan is both faster and
	// allocation-free. Rendezvous tasks over many streams stay quadratic
	// in their (small) stream count.
	t.streams = e.strmChunk(len(streams))
enqueue:
	for _, s := range streams {
		if s == nil {
			//overlaplint:allow nopanic engine invariant: executors never pass nil streams
			panic(fmt.Sprintf("sim: nil stream for task %q", name))
		}
		for _, prev := range t.streams {
			if prev == s {
				continue enqueue
			}
		}
		t.streams = append(t.streams, s)
		s.queue = append(s.queue, t)
		if len(s.queue)-s.head == 1 {
			// The task became the stream's head (the queue was drained):
			// its admissibility must be rechecked.
			e.markDirty(s)
		}
	}
	e.tasks = append(e.tasks, t)
	return t
}

// ErrDeadlock is returned by Run when unfinished tasks remain but none can
// make progress (circular dependencies, or every runnable task stalled at
// rate zero).
var ErrDeadlock = errors.New("sim: deadlock: unfinished tasks cannot make progress")

// Run executes the simulation until every task has completed. It returns
// ErrDeadlock (wrapped with diagnostics) if progress stops.
func (e *Engine) Run() error {
	//overlaplint:allow ctxflow compat entrypoint: Run() is the no-context convenience wrapper; cancellable callers use RunContext
	return e.RunContext(context.Background())
}

// RunContext executes the simulation like Run, additionally stopping
// between constant-rate epochs when ctx is cancelled. On cancellation it
// returns ctx.Err(); completed tasks keep their measurements but the
// simulation is not resumable.
func (e *Engine) RunContext(ctx context.Context) error {
	e.ran = true
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.admit()
		if len(e.running) == 0 {
			if e.retired == len(e.tasks) {
				return nil
			}
			return fmt.Errorf("%w: %s", ErrDeadlock, e.diagnose())
		}
		if len(e.running) > e.stMaxRunning {
			e.stMaxRunning = len(e.running)
		}
		e.stEpochs++
		e.platform.Rates(e.now, e.running)

		dt, stalled, instant := e.scanRunning()
		if instant {
			// Complete without advancing time (no observer segment).
			e.stInstant++
			e.finishCompleted()
			continue
		}
		if stalled {
			return fmt.Errorf("%w: all %d running tasks stalled at rate 0 at t=%g: %s",
				ErrDeadlock, len(e.running), e.now, e.diagnose())
		}

		t0, t1 := e.now, e.now+dt
		if len(e.observers) > 0 {
			for _, o := range e.observers {
				o.Segment(t0, t1, e.running)
			}
		}
		retiring := e.decrementRunning(dt)
		e.now = t1
		if retiring {
			e.finishCompleted()
		}
	}
}

// scanRunning is the fused per-epoch pass over the running set: it finds
// instant completions (zero-work tasks, already-exhausted residuals),
// the stall condition, and the minimum-completion candidate that bounds
// the epoch — the quantities the scheduler previously collected in three
// separate scans.
func (e *Engine) scanRunning() (dt float64, stalled, instant bool) {
	dt = math.Inf(1)
	stalled = true
	for _, t := range e.running {
		if t.remaining <= timeEps {
			instant = true
		}
		if t.rate <= 0 {
			continue
		}
		stalled = false
		if d := t.remaining / t.rate; d < dt {
			dt = d
		}
	}
	return dt, stalled, instant
}

// decrementRunning advances every running task by dt at its current rate
// and reports whether any task exhausted its work.
func (e *Engine) decrementRunning(dt float64) bool {
	retiring := false
	for _, t := range e.running {
		t.remaining -= t.rate * dt
		if t.remaining <= timeEps {
			retiring = true
		}
	}
	return retiring
}

// admit moves ready stream heads into the running set, rechecking only
// the streams whose admission state may have changed since the last
// epoch. Admission never pops a stream, so it cannot make further heads
// ready within the same call; newly admitted tasks are inserted at their
// creation-sequence position so the running set stays seq-ordered without
// a per-epoch sort.
func (e *Engine) admit() {
	e.stAdmitPasses++
	e.stRechecks += int64(len(e.dirty))
	for _, s := range e.dirty {
		s.dirty = false
		t := s.headTask()
		if t == nil || t.st != statePending || t.deps > 0 {
			continue
		}
		if !headOfAll(t) {
			continue
		}
		t.st = stateRunning
		if !t.started {
			t.started = true
			t.start = e.now
		}
		e.stAdmissions++
		e.insertRunning(t)
	}
	e.dirty = e.dirty[:0]
}

// insertRunning places t into the seq-ordered running set. Admissions
// overwhelmingly arrive in creation order, so the common case is a plain
// append; out-of-order admissions binary-search their slot.
func (e *Engine) insertRunning(t *Task) {
	n := len(e.running)
	if n == 0 || e.running[n-1].seq < t.seq {
		e.running = append(e.running, t)
		return
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.running[mid].seq < t.seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.running = append(e.running, nil)
	copy(e.running[lo+1:], e.running[lo:])
	e.running[lo] = t
}

func headOfAll(t *Task) bool {
	for _, s := range t.streams {
		if s.headTask() != t {
			return false
		}
	}
	return true
}

// finishCompleted retires every running task whose work is exhausted and
// fires completion callbacks. Retirement is what feeds the dirty set:
// each pop exposes a new stream head, and each dependency count reaching
// zero re-candidates the successor's streams.
func (e *Engine) finishCompleted() {
	done := e.doneTmp[:0]
	keep := e.running[:0]
	for _, t := range e.running {
		if t.remaining <= timeEps {
			done = append(done, t)
		} else {
			keep = append(keep, t)
		}
	}
	e.running = keep
	for _, t := range done {
		e.retired += 1 + int(t.twins)
		t.st = stateDone
		t.end = e.now
		t.remaining = 0
		for _, s := range t.streams {
			s.pop(t)
			e.markDirty(s)
		}
		for _, succ := range t.succs {
			succ.deps--
			if succ.deps == 0 && succ.st == statePending {
				for _, s := range succ.streams {
					e.markDirty(s)
				}
			}
		}
	}
	// Callbacks fire after all pops/dep updates so that they observe a
	// consistent queue state and may enqueue follow-on work.
	for _, t := range done {
		for _, f := range t.onDone {
			f(e.now)
		}
	}
	e.doneTmp = done[:0]
}

// diagnose summarizes stuck state for deadlock errors.
func (e *Engine) diagnose() string {
	n := 0
	var first *Task
	for _, t := range e.tasks {
		if t.st == stateDone {
			continue
		}
		n++
		if first == nil {
			first = t
		}
	}
	if first == nil {
		return "no pending tasks"
	}
	return fmt.Sprintf("%d unfinished tasks; first=%q (deps=%d, kind=%s)",
		n, first.Name(), first.deps, first.kind)
}
