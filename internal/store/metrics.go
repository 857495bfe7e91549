package store

import "overlapsim/internal/telemetry"

// Process-wide store instrumentation on the default
// telemetry registry, served by overlapd's /metrics and /v1/stats.
var (
	mFlightLeaders = telemetry.Default.Counter("store_flight_leaders_total",
		"Singleflight computations led: distinct in-flight fingerprints actually computed.")
	mFlightWaiters = telemetry.Default.Counter("store_flight_waiters_total",
		"Singleflight waiters coalesced onto another caller's in-flight computation.")
	mTieredPromotions = telemetry.Default.Counter("store_tiered_promotions_total",
		"Cache entries promoted into a faster tier after a lower-tier hit.")
	mJournal = telemetry.Default.CounterVec("store_journal_records_total",
		"Job journal records, by event: appended, recovered at open, or skipped (torn tail).",
		"event")
)

// journalOp is the closed vocabulary of journal record events.
type journalOp string

const (
	journalOpAppended  journalOp = "appended"
	journalOpRecovered journalOp = "recovered"
	journalOpSkipped   journalOp = "skipped"
)

func noteJournal(event journalOp) {
	mJournal.With(string(event)).Inc()
}

// CoalescedTotal reports how many callers this process has coalesced
// onto another caller's in-flight computation — the singleflight win
// the /v1/stats endpoint surfaces.
func CoalescedTotal() uint64 { return mFlightWaiters.Value() }
