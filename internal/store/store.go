// Package store is the serving substrate behind overlapd: the pieces
// that make one process's content-addressed result cache durable across
// restarts and its jobs coalesced and recoverable.
//
// Everything here leans on the same invariant the sweep caches already
// exploit: a simulation result is a pure function of its canonical
// config fingerprint. Entries never invalidate, and any copy of a
// result is as good as any other.
//
//   - Compose builds the one local cache stack overlapd and the CLIs
//     share: memory, then a cache directory when one is given.
//   - Tiered composes sweep.Cache backends (Mem → Dir) with write-back
//     promotion, so hot entries migrate toward the fastest tier.
//   - Flight coalesces concurrent computations of the same fingerprint
//     onto one leader; a thundering herd of identical experiments
//     simulates exactly once per process.
//   - Journal is an append-only, checksum-framed record log under a
//     state directory; overlapd journals job submissions and terminal
//     results through it so a restart can list finished jobs and resume
//     interrupted ones against the warm cache.
package store
