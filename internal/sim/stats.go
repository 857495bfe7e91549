package sim

import "unsafe"

// Sizes used by the arena accounting. Computed once; unsafe is confined
// to this file and used only for reporting, never for access.
const (
	taskBytes = int64(unsafe.Sizeof(Task{}))
	ptrBytes  = int64(unsafe.Sizeof((*Task)(nil)))
)

// Stats is the engine's self-report: how much scheduling work a run
// performed and how the incremental hot path and the slab arenas paid
// off. It is filled by Engine.Stats after (or during) a run; all fields
// are deterministic for a given plan, so stats ride along in cached
// results without breaking byte-identical replays.
type Stats struct {
	// Tasks is the number of tasks created; TasksRetired of those
	// the ones that answer Done (a ghost once its mirror has). Streams
	// is the stream count.
	Tasks        int `json:"tasks"`
	TasksRetired int `json:"tasks_retired"`
	Streams      int `json:"streams"`

	// Epochs counts constant-rate scheduling epochs (platform rate
	// recomputations); InstantRounds the zero-duration completion rounds
	// that retire exhausted tasks without advancing time.
	Epochs        int64 `json:"epochs"`
	InstantRounds int64 `json:"instant_rounds,omitempty"`

	// StreamRechecks counts dirty-set admission rechecks — the streams
	// the incremental scheduler actually examined across all admission
	// passes. FullScanChecks is the counterfactual: the checks a
	// non-incremental scheduler rescanning every stream on every
	// admission pass would have performed. Their ratio is the dirty-set
	// win.
	StreamRechecks int64 `json:"stream_rechecks"`
	FullScanChecks int64 `json:"full_scan_checks"`

	// Admissions counts tasks moved into the running set; MaxRunning is
	// the largest concurrent running-set size any epoch saw.
	Admissions int64 `json:"admissions"`
	MaxRunning int   `json:"max_running"`

	// CollapsedClasses counts multi-member symmetry classes merged by
	// Collapse; GhostTasks the tasks whose timelines were reconstructed
	// from a class representative instead of simulated.
	CollapsedClasses int64 `json:"collapsed_classes,omitempty"`
	GhostTasks       int   `json:"ghost_tasks,omitempty"`

	// ArenaBytes is the total bytes of slab arenas allocated for tasks,
	// successor chunks and stream sets; ArenaSlabs the number of slab
	// allocations that provided them (fewer slabs per task = better
	// reuse). ReservedTasks is the capacity pre-sized via Reserve.
	ArenaBytes    int64 `json:"arena_bytes"`
	ArenaSlabs    int64 `json:"arena_slabs"`
	ReservedTasks int64 `json:"reserved_tasks,omitempty"`

	// SimTime is the final simulated clock in seconds.
	SimTime float64 `json:"sim_time_s"`
}

// Stats reports the engine's scheduling-work counters. It reads
// counters the engine keeps as it goes, so it costs the same at any
// point of a run.
func (e *Engine) Stats() Stats {
	return Stats{
		Tasks:            len(e.tasks),
		TasksRetired:     e.retired,
		Streams:          len(e.streams),
		Epochs:           e.stEpochs,
		InstantRounds:    e.stInstant,
		StreamRechecks:   e.stRechecks,
		FullScanChecks:   e.stAdmitPasses * int64(len(e.streams)),
		Admissions:       e.stAdmissions,
		MaxRunning:       e.stMaxRunning,
		CollapsedClasses: e.stCollapsed,
		GhostTasks:       e.stGhosts,
		ArenaBytes:       e.stArenaBytes,
		ArenaSlabs:       e.stSlabAllocs,
		ReservedTasks:    e.stReserved,
		SimTime:          e.now,
	}
}

// Add accumulates other into s — the aggregation sweeps and services
// use to roll per-run engine stats into totals. Gauge-like fields take
// the max; counters sum.
func (s *Stats) Add(other Stats) {
	s.Tasks += other.Tasks
	s.TasksRetired += other.TasksRetired
	s.Streams += other.Streams
	s.Epochs += other.Epochs
	s.InstantRounds += other.InstantRounds
	s.StreamRechecks += other.StreamRechecks
	s.FullScanChecks += other.FullScanChecks
	s.Admissions += other.Admissions
	s.CollapsedClasses += other.CollapsedClasses
	s.GhostTasks += other.GhostTasks
	if other.MaxRunning > s.MaxRunning {
		s.MaxRunning = other.MaxRunning
	}
	s.ArenaBytes += other.ArenaBytes
	s.ArenaSlabs += other.ArenaSlabs
	s.ReservedTasks += other.ReservedTasks
	if other.SimTime > s.SimTime {
		s.SimTime = other.SimTime
	}
}
