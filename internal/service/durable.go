package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strconv"
	"strings"
	"time"

	"overlapsim/internal/opt"
	"overlapsim/internal/report"
	"overlapsim/internal/store"
	"overlapsim/internal/sweep"
)

// The durable job store: with Options.Journal set, every submission and
// every terminal transition is appended to the journal, so a restarted
// overlapd (same -state-dir) lists finished jobs with their results and
// resumes interrupted ones. A resume re-runs the job's spec through the
// shared cache — against a durable cache tier every point that
// completed before the interruption is a hit, so only the uncached
// remainder simulates, and the canonical result is byte-identical to an
// uninterrupted run.

// journalSubmit records a job submission (no-op without a journal).
func (s *Server) journalSubmit(j *job, rawSpec []byte) {
	if s.opts.Journal == nil {
		return
	}
	rec := store.Record{
		Op: store.OpSubmit, Kind: string(j.kind), ID: j.id, Name: j.name,
		Time: j.started, Total: j.total, Spec: json.RawMessage(rawSpec),
	}
	if err := s.opts.Journal.Append(rec); err != nil {
		s.log.Warn("journal submit failed", slog.String("job", j.id), slog.Any("err", err))
	}
}

// journalFinish records a job's terminal transition (no-op without a
// journal). A cancellation caused by server shutdown is deliberately
// NOT recorded: the submit record is left unterminated, which is
// exactly the resume signal the next start looks for. A user-requested
// cancellation (DELETE on a live server) is terminal and recorded.
func (s *Server) journalFinish(j *job, status jobStatus, result any, errMsg string) {
	if s.opts.Journal == nil {
		return
	}
	if status == statusCancelled && s.ctx.Err() != nil {
		return
	}
	rec := store.Record{
		Op: store.OpFinish, Kind: string(j.kind), ID: j.id,
		Time: time.Now(), Status: string(status), Error: errMsg,
	}
	if status == statusDone && result != nil {
		b, err := json.Marshal(result)
		if err != nil {
			s.log.Warn("journal finish: encoding result", slog.String("job", j.id), slog.Any("err", err))
		} else {
			rec.Result = b
		}
	}
	if err := s.opts.Journal.Append(rec); err != nil {
		s.log.Warn("journal finish failed", slog.String("job", j.id), slog.Any("err", err))
	}
}

// recoverJobs rebuilds the job table from the journal at startup:
// finished jobs are re-registered with their recorded results, and
// submissions with no terminal record — jobs a previous process died
// holding — are resumed. Called from New, before the server accepts
// requests.
func (s *Server) recoverJobs() {
	recs := s.opts.Journal.Records()
	finishes := make(map[string]*store.Record, len(recs))
	for i := range recs {
		if recs[i].Op == store.OpFinish {
			finishes[recs[i].ID] = &recs[i]
		}
	}
	maxID := 0
	for i := range recs {
		rec := &recs[i]
		if rec.Op != store.OpSubmit {
			continue
		}
		if n := idNumber(rec.ID); n > maxID {
			maxID = n
		}
		if fin := finishes[rec.ID]; fin != nil {
			s.recoverFinished(rec, fin)
		} else {
			s.resume(rec)
		}
	}
	// Fresh ids continue after every journaled one, recovered or not, so
	// an id never names two different jobs across restarts.
	s.mu.Lock()
	if s.nextID < maxID {
		s.nextID = maxID
	}
	s.mu.Unlock()
}

// idNumber extracts the numeric suffix of a job id ("sweep-000042"),
// or 0.
func idNumber(id string) int {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// recoverFinished registers a terminal job from its journal records,
// decoding the stored result so status and result polls serve it
// exactly as before the restart.
func (s *Server) recoverFinished(sub, fin *store.Record) {
	j := &job{
		id:      sub.ID,
		kind:    jobKind(sub.Kind),
		name:    sub.Name,
		total:   sub.Total,
		started: sub.Time,
		cancel:  func() {},
		status:  jobStatus(fin.Status),
		errMsg:  fin.Error,
	}
	switch {
	case j.kind == kindSweep && len(fin.Result) > 0:
		var res sweep.Result
		if err := json.Unmarshal(fin.Result, &res); err != nil {
			s.log.Warn("recover: decoding sweep result", slog.String("job", j.id), slog.Any("err", err))
			break
		}
		j.res = &res
		j.aggregate = report.AggregateSweep(report.Rows(&res)).String()
		j.completed = len(res.Points)
		j.hits = res.CacheHits
		j.coalesced = res.Coalesced
		j.ooms = res.OOMs
		j.failures = res.Failures
	case j.kind == kindAdvise && len(fin.Result) > 0:
		var adv opt.Advice
		if err := json.Unmarshal(fin.Result, &adv); err != nil {
			s.log.Warn("recover: decoding advice", slog.String("job", j.id), slog.Any("err", err))
			break
		}
		j.advice = &adv
		j.completed = adv.Stats.Evaluated
		j.hits = adv.Stats.CacheHits
		j.ooms = adv.Stats.OOMs
		j.failures = adv.Stats.Failures
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.evictLocked()
	s.mu.Unlock()
	s.log.Info("job recovered",
		slog.String("job", j.id), slog.String("status", string(j.status)))
}

// resume relaunches an interrupted job from its journaled spec. The
// job keeps its id; its grid re-runs through the shared cache, so
// previously completed points are hits and only the remainder
// simulates. A spec that no longer resolves (a registry the new build
// dropped) surfaces as a failed job rather than a silent disappearance.
func (s *Server) resume(sub *store.Record) {
	kind := jobKind(sub.Kind)
	switch kind {
	case kindSweep:
		spec, err := sweep.ParseSpec(bytes.NewReader(sub.Spec))
		if err != nil {
			s.recoverFailed(sub, "resume: "+err.Error())
			return
		}
		_, cfgs, err := spec.Expand()
		if err != nil {
			s.recoverFailed(sub, "resume: "+err.Error())
			return
		}
		s.mu.Lock()
		j := s.registerLocked(sub.ID, kind, sub.Name, len(cfgs), sub.Time)
		s.mu.Unlock()
		s.log.Info("job resumed", slog.String("job", j.id), slog.Int("points", len(cfgs)))
		s.launchSweep(j, spec.Name, cfgs)
	case kindAdvise:
		q, err := opt.ParseQuery(bytes.NewReader(sub.Spec))
		if err != nil {
			s.recoverFailed(sub, "resume: "+err.Error())
			return
		}
		space, err := q.Space()
		if err != nil {
			s.recoverFailed(sub, "resume: "+err.Error())
			return
		}
		s.mu.Lock()
		j := s.registerLocked(sub.ID, kind, sub.Name, len(space.Cands), sub.Time)
		s.mu.Unlock()
		s.log.Info("job resumed", slog.String("job", j.id), slog.Int("candidates", len(space.Cands)))
		s.launchAdvise(j, q, space)
	default:
		s.log.Warn("recover: unknown job kind",
			slog.String("job", sub.ID), slog.String("kind", sub.Kind))
	}
}

// recoverFailed registers an interrupted job whose spec no longer
// resolves as failed, and journals the terminal state so the next
// restart does not retry it forever.
func (s *Server) recoverFailed(sub *store.Record, msg string) {
	j := &job{
		id: sub.ID, kind: jobKind(sub.Kind), name: sub.Name,
		total: sub.Total, started: sub.Time,
		cancel: func() {}, status: statusFailed, errMsg: msg,
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.log.Warn("job resume failed", slog.String("job", j.id), slog.String("err", msg))
	s.journalFinish(j, statusFailed, nil, msg)
}
