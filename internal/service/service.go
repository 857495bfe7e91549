// Package service implements the overlapd HTTP/JSON API: synchronous
// single experiments, asynchronous sweep and advisor jobs with progress
// polling and cancellation, and catalog discovery. All endpoints share
// one content-addressed result cache, so a result computed for any
// client is served from memory for every later request with the same
// canonical configuration — and a repeated or overlapping advisor query
// evaluates nothing fresh.
//
//	POST   /v1/experiments         — run one experiment, return its point
//	POST   /v1/calibrate           — fit a measured profile, return the hardware
//	                                 overlay and (with step data) a validation report
//	POST   /v1/sweeps              — submit a sweep spec, returns a job id
//	GET    /v1/sweeps              — list sweep jobs
//	GET    /v1/sweeps/{id}         — job status, progress and (when done) results
//	GET    /v1/sweeps/{id}/events  — live progress stream (SSE)
//	DELETE /v1/sweeps/{id}         — cancel a running job, or forget a finished one
//	POST   /v1/advise              — submit an advisor query, returns a job id
//	GET    /v1/advise              — list advisor jobs
//	GET    /v1/advise/{id}         — job status and (when done) frontier + recommendation
//	GET    /v1/advise/{id}/events  — live progress stream (SSE)
//	DELETE /v1/advise/{id}         — cancel a running job, or forget a finished one
//	GET    /v1/catalog             — available GPUs, systems, models, strategies,
//	                                 formats, advisor objectives
//	GET    /metrics                — Prometheus text exposition
//	GET    /v1/stats               — JSON mirror of the metrics, uptime and job ledger
//	GET    /healthz                — liveness
//
// Only simulations write the result cache: no endpoint stores a
// client-supplied result. A store.Journal makes jobs survive restarts
// (interrupted jobs resume against the warm cache), and the server-wide
// singleflight collapses a thundering herd of identical experiments
// into one simulation.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"overlapsim/internal/calib"
	"overlapsim/internal/core"
	"overlapsim/internal/hw"
	"overlapsim/internal/model"
	"overlapsim/internal/opt"
	"overlapsim/internal/precision"
	"overlapsim/internal/report"
	"overlapsim/internal/store"
	"overlapsim/internal/strategy"
	"overlapsim/internal/sweep"
	"overlapsim/internal/telemetry"
)

// Options configure a Server.
type Options struct {
	// Cache is the shared result cache; nil creates a fresh MemCache.
	Cache sweep.Cache
	// Journal, when set, makes jobs durable: submissions and terminal
	// results are journaled, and a restarted server lists finished jobs
	// and resumes interrupted ones against the warm cache.
	Journal *store.Journal
	// Workers bounds concurrent simulations per sweep (<= 0 means
	// runtime.NumCPU()).
	Workers int
	// MaxSweepPoints rejects sweep specs that expand beyond this many
	// points (0 means DefaultMaxSweepPoints).
	MaxSweepPoints int
	// Logger receives one structured line per request and per job
	// transition; nil discards logs.
	Logger *slog.Logger
	// KeepAlive is the idle interval after which an event stream emits
	// an SSE comment line, so proxies and load balancers with idle
	// timeouts do not silently reap a healthy connection between
	// progress events (<= 0 means DefaultKeepAlive).
	KeepAlive time.Duration
}

// DefaultKeepAlive is the event-stream keepalive interval: shorter than
// the common 30–60 s proxy idle timeouts, long enough to stay noise.
const DefaultKeepAlive = 15 * time.Second

// DefaultMaxSweepPoints bounds the grid size one job may submit.
const DefaultMaxSweepPoints = 4096

// Server is the overlapd request handler.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	log     *slog.Logger
	started time.Time
	// flight coalesces concurrent identical cache misses across every
	// runner this server builds — sweeps, advisor jobs and synchronous
	// experiments alike.
	flight *store.Flight

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int
	wg     sync.WaitGroup
}

// jobStatus is the lifecycle of an asynchronous job.
type jobStatus string

const (
	statusRunning   jobStatus = "running"
	statusDone      jobStatus = "done"
	statusCancelled jobStatus = "cancelled"
	statusFailed    jobStatus = "failed"
)

// jobKind separates the two asynchronous job families; each is listed
// and addressed only under its own endpoint.
type jobKind string

const (
	kindSweep  jobKind = "sweep"
	kindAdvise jobKind = "advise"
)

// listKey is the field the kind's job list is keyed by.
func (k jobKind) listKey() string {
	if k == kindAdvise {
		return "advise_jobs"
	}
	return "sweeps"
}

// job is one asynchronous sweep or advisor query.
type job struct {
	id      string
	kind    jobKind
	name    string
	total   int
	started time.Time
	// ctx governs the job's execution; cancel aborts it. Jobs recovered
	// from the journal in a terminal state carry a no-op cancel.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	status    jobStatus
	completed int
	hits      int
	coalesced int
	ooms      int
	failures  int
	res       *sweep.Result
	// subs are the progress subscribers (SSE streams): each channel has
	// capacity 1 and receives a nudge on every job update; a slow
	// subscriber misses intermediate nudges, never the latest state.
	subs map[chan struct{}]struct{}
	// aggregate is the precomputed summary of res; a finished job's
	// result is immutable, so status polls never recompute it.
	aggregate string
	// advice is an advise job's result; errMsg its failure, if any.
	advice *opt.Advice
	errMsg string
}

// New returns a ready-to-serve Server. Close releases its background
// jobs.
func New(opts Options) *Server {
	if opts.Cache == nil {
		opts.Cache = sweep.NewMemCache()
	}
	if opts.MaxSweepPoints <= 0 {
		opts.MaxSweepPoints = DefaultMaxSweepPoints
	}
	if opts.Logger == nil {
		opts.Logger = telemetry.NopLogger()
	}
	if opts.KeepAlive <= 0 {
		opts.KeepAlive = DefaultKeepAlive
	}
	//overlaplint:allow ctxflow server-lifetime root context: jobs outlive the submitting request by design; Shutdown cancels it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		log:     opts.Logger,
		started: time.Now(),
		flight:  store.NewFlight(),
		ctx:     ctx,
		cancel:  cancel,
		jobs:    make(map[string]*job),
	}
	s.handle("GET /healthz", s.handleHealth)
	s.handle("GET /v1/catalog", s.handleCatalog)
	s.handle("POST /v1/experiments", s.handleExperiment)
	s.handle("POST /v1/calibrate", s.handleCalibrate)
	s.handle("POST /v1/sweeps", s.handleSweepSubmit)
	s.handle("GET /v1/sweeps", s.handleList(kindSweep))
	s.handle("GET /v1/sweeps/{id}", s.handleGet(kindSweep))
	s.handle("GET /v1/sweeps/{id}/events", s.handleEvents(kindSweep))
	s.handle("DELETE /v1/sweeps/{id}", s.handleCancel(kindSweep))
	s.handle("POST /v1/advise", s.handleAdviseSubmit)
	s.handle("GET /v1/advise", s.handleList(kindAdvise))
	s.handle("GET /v1/advise/{id}", s.handleGet(kindAdvise))
	s.handle("GET /v1/advise/{id}/events", s.handleEvents(kindAdvise))
	s.handle("DELETE /v1/advise/{id}", s.handleCancel(kindAdvise))
	// The metrics endpoint is deliberately uninstrumented: scrapes should
	// not inflate the request series they are reading.
	s.mux.Handle("GET /metrics", telemetry.Default.Handler())
	s.handle("GET /v1/stats", s.handleStats)
	if opts.Journal != nil {
		s.recoverJobs()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close cancels every running job and waits for their workers to exit.
func (s *Server) Close() {
	//overlaplint:allow ctxflow Close is the no-deadline convenience wrapper over Shutdown
	_ = s.Shutdown(context.Background())
}

// Shutdown cancels every running job and waits for their workers to
// exit, giving up with ctx.Err() when ctx expires first. Jobs observe
// the cancellation between simulation epochs, so a drain normally
// completes in milliseconds; a ctx deadline bounds the wait against a
// wedged worker. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("shutdown complete")
		return nil
	case <-ctx.Done():
		s.log.Error("shutdown drain timed out", slog.Any("err", ctx.Err()))
		return ctx.Err()
	}
}

// runner builds the sweep runner every endpoint shares. All runners
// share the server's singleflight, so identical in-flight experiments
// coalesce across sweeps, advisor jobs and synchronous requests.
func (s *Server) runner(onPoint func(sweep.Point)) *sweep.Runner {
	return &sweep.Runner{Workers: s.opts.Workers, Cache: s.opts.Cache, Flight: s.flight, OnPoint: onPoint}
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// catalogGPU is one catalog GPU entry.
type catalogGPU struct {
	Name   string  `json:"name"`
	Vendor string  `json:"vendor"`
	Year   int     `json:"year"`
	MemGB  float64 `json:"mem_gb"`
	TDPW   float64 `json:"tdp_w"`
	SMs    int     `json:"sms"`
}

// catalogSystem is one registry-derived system entry: its name, shape
// and fabric, so clients can discover every platform a deployment
// registered (built-ins plus -hw-file loads) instead of assuming the
// paper's single-node systems. The name is the exact spelling the
// "system" experiment field and the "systems" sweep axis accept.
type catalogSystem struct {
	Name        string  `json:"name"`
	GPU         string  `json:"gpu"`
	GPUsPerNode int     `json:"gpus_per_node"`
	Nodes       int     `json:"nodes"`
	TotalGPUs   int     `json:"total_gpus"`
	Fabric      string  `json:"fabric"`
	NICBWGBs    float64 `json:"nic_bw_gbs,omitempty"`
}

// catalogModel is one catalog workload entry.
type catalogModel struct {
	Name    string  `json:"name"`
	Arch    string  `json:"arch"`
	ParamsB float64 `json:"params_b"`
	Layers  int     `json:"layers"`
	Hidden  int     `json:"hidden"`
	SeqLen  int     `json:"seq_len"`
}

// catalogStrategy is one registry-derived strategy entry: its name,
// display label, knobs and capability flags, so clients can discover
// what a deployment's build links in instead of assuming the paper's
// three strategies.
type catalogStrategy struct {
	Name       string   `json:"name"`
	Aliases    []string `json:"aliases,omitempty"`
	Display    string   `json:"display"`
	Summary    string   `json:"summary"`
	Knobs      []string `json:"knobs,omitempty"`
	MicroBatch bool     `json:"micro_batch"`
	GradAccum  bool     `json:"grad_accum"`
	TPDegree   bool     `json:"tp_degree"`
}

// catalogBody is the /v1/catalog response. Strategies carries the full
// registry metadata; Parallelisms is the flat list of registry names —
// the exact spellings POST /v1/experiments and sweep specs accept
// (earlier releases served display labels like "FSDP" here).
type catalogBody struct {
	GPUs         []catalogGPU      `json:"gpus"`
	Systems      []catalogSystem   `json:"systems"`
	Models       []catalogModel    `json:"models"`
	Strategies   []catalogStrategy `json:"strategies"`
	Parallelisms []string          `json:"parallelisms"`
	Formats      []string          `json:"formats"`
	// Objectives are the advisor objective names POST /v1/advise
	// queries may trade off.
	Objectives []string `json:"objectives"`
	// Calibration advertises the measured-profile schema version the
	// POST /v1/calibrate endpoint accepts.
	Calibration calibrationInfo `json:"calibration"`
}

func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	var body catalogBody
	for _, g := range hw.All() {
		body.GPUs = append(body.GPUs, catalogGPU{
			Name: g.Name, Vendor: g.Vendor.String(), Year: g.Year,
			MemGB: g.MemGB, TDPW: g.TDPW, SMs: g.SMs,
		})
	}
	for _, sys := range hw.Systems() {
		entry := catalogSystem{
			Name: sys.Name, GPU: sys.GPU.Name,
			GPUsPerNode: sys.N, Nodes: sys.NodeCount(), TotalGPUs: sys.TotalGPUs(),
			Fabric: sys.FabricKind(),
		}
		if sys.NodeCount() > 1 {
			entry.NICBWGBs = sys.NICSpec().BWGBs
		}
		body.Systems = append(body.Systems, entry)
	}
	for _, m := range model.Zoo() {
		body.Models = append(body.Models, catalogModel{
			Name: m.Name, Arch: m.Arch.String(), ParamsB: m.NominalParams / 1e9,
			Layers: m.Layers, Hidden: m.Hidden, SeqLen: m.SeqLen,
		})
	}
	for _, st := range strategy.All() {
		info := st.Describe()
		body.Strategies = append(body.Strategies, catalogStrategy{
			Name: info.Name, Aliases: info.Aliases, Display: info.Display,
			Summary: info.Summary, Knobs: info.Knobs,
			MicroBatch: info.MicroBatch, GradAccum: info.GradAccum,
			TPDegree: info.TPDegree,
		})
		body.Parallelisms = append(body.Parallelisms, info.Name)
	}
	for _, f := range precision.Formats() {
		body.Formats = append(body.Formats, f.String())
	}
	body.Objectives = opt.Names()
	body.Calibration = calibrationInfo{
		ProfileVersion: calib.SchemaVersion,
		Endpoint:       "/v1/calibrate",
		DefaultSuffix:  calib.DefaultSuffix,
	}
	writeJSON(w, http.StatusOK, body)
}

// experimentBody is the /v1/experiments response: the executed point
// plus the compact metric summary the sweep reports use.
type experimentBody struct {
	Point   sweep.Point     `json:"point"`
	Summary report.SweepRow `json:"summary"`
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var exp sweep.Experiment
	if err := dec.Decode(&exp); err != nil {
		writeError(w, http.StatusBadRequest, "decoding experiment: %v", err)
		return
	}
	cfg, err := exp.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Run under the request context so a disconnected client aborts the
	// simulation, but bound by server lifetime.
	ctx, cancel := mergeDone(r.Context(), s.ctx)
	defer cancel()
	res, err := s.runner(nil).Run(ctx, []core.Config{cfg})
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "experiment cancelled: %v", err)
		return
	}
	pt := res.Points[0]
	if pt.Err != nil {
		writeError(w, http.StatusInternalServerError, "%v", pt.Err)
		return
	}
	rows := report.Rows(res)
	writeJSON(w, http.StatusOK, experimentBody{Point: pt, Summary: rows[0]})
}

// mergeDone returns a context cancelled when either parent is.
func mergeDone(a, b context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(a)
	stop := context.AfterFunc(b, cancel)
	return ctx, func() { stop(); cancel() }
}

// submitBody is the /v1/sweeps accepted response.
type submitBody struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	Points int    `json:"points"`
}

// maxSubmitBytes bounds one submitted spec or query body.
const maxSubmitBytes = 8 << 20

// readBody drains the (bounded) request body; the raw bytes are kept
// verbatim for the journal so a restart resumes exactly what the
// client submitted.
func readBody(r *http.Request) ([]byte, error) {
	return io.ReadAll(io.LimitReader(r.Body, maxSubmitBytes))
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	raw, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading spec: %v", err)
		return
	}
	spec, err := sweep.ParseSpec(bytes.NewReader(raw))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Check the grid size arithmetically before materializing it, so an
	// oversized spec is rejected without allocating its expansion.
	if n := spec.Size(); n > s.opts.MaxSweepPoints {
		writeError(w, http.StatusRequestEntityTooLarge,
			"sweep expands to %d points, limit %d", n, s.opts.MaxSweepPoints)
		return
	}
	_, cfgs, err := spec.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	j := s.newJob(kindSweep, spec.Name, len(cfgs))
	s.journalSubmit(j, raw)
	s.launchSweep(j, spec.Name, cfgs)

	writeJSON(w, http.StatusAccepted, submitBody{ID: j.id, Name: spec.Name, Points: len(cfgs)})
}

// launchSweep runs a registered sweep job's grid on a background
// worker. Shared by fresh submissions and journal-recovered resumes —
// a resume re-runs the full grid, and every point that reached the
// durable cache before the interruption comes back as a hit.
func (s *Server) launchSweep(j *job, name string, cfgs []core.Config) {
	runner := s.runner(j.onPoint)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer j.cancel()
		res, err := runner.Run(j.ctx, cfgs)
		res.Name = name
		// Snapshot the final counters and aggregate once; the result is
		// immutable from here on, so polls serve the snapshot.
		aggregate := report.AggregateSweep(report.Rows(res)).String()
		completed := 0
		for i := range res.Points {
			if res.Points[i].Key != "" { // dispatched (fingerprinted) points
				completed++
			}
		}
		status := statusDone
		if err != nil {
			status = statusCancelled
		}
		j.mu.Lock()
		j.res = res
		j.aggregate = aggregate
		j.completed = completed
		j.hits = res.CacheHits
		j.coalesced = res.Coalesced
		j.ooms = res.OOMs
		j.failures = res.Failures
		j.status = status
		j.notifyLocked()
		j.mu.Unlock()
		s.finishJob(j, status)
		s.journalFinish(j, status, res, "")
	}()
}

// onPoint folds one completed point into the job's progress counters
// and nudges the progress subscribers. Called from runner worker
// goroutines.
func (j *job) onPoint(p sweep.Point) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.completed++
	switch {
	case p.OOM != nil:
		j.ooms++
	case p.Err != nil:
		j.failures++
	case p.CacheHit:
		j.hits++
	}
	if p.Coalesced {
		j.coalesced++
	}
	j.notifyLocked()
}

// newJob registers a running job of the given kind.
func (s *Server) newJob(kind jobKind, name string, total int) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return s.registerLocked(fmt.Sprintf("%s-%06d", kind, s.nextID), kind, name, total, time.Now())
}

// registerLocked registers a running job under an explicit id (fresh or
// recovered from the journal). Callers must hold s.mu.
func (s *Server) registerLocked(id string, kind jobKind, name string, total int, started time.Time) *job {
	ctx, cancel := context.WithCancel(s.ctx)
	j := &job{
		id:      id,
		kind:    kind,
		name:    name,
		total:   total,
		started: started,
		ctx:     ctx,
		cancel:  cancel,
		status:  statusRunning,
	}
	s.jobs[j.id] = j
	s.evictLocked()
	noteJobStarted(kind)
	s.log.Info("job started",
		slog.String("job", j.id), slog.String("kind", string(kind)),
		slog.String("name", name), slog.Int("total", total))
	return j
}

// finishJob records a job's terminal transition in the gauges and the
// log. Callers invoke it exactly once per job, after releasing j.mu.
func (s *Server) finishJob(j *job, status jobStatus) {
	noteJobFinished(j.kind, status)
	s.log.Info("job finished",
		slog.String("job", j.id), slog.String("kind", string(j.kind)),
		slog.String("status", string(status)),
		slog.Duration("elapsed", time.Since(j.started)))
}

// jobBody is the job status payload shared by sweep and advise jobs.
type jobBody struct {
	ID        string    `json:"id"`
	Kind      jobKind   `json:"kind"`
	Name      string    `json:"name,omitempty"`
	Status    jobStatus `json:"status"`
	Total     int       `json:"total"`
	Completed int       `json:"completed"`
	CacheHits int       `json:"cache_hits"`
	// CacheMisses counts completed points not served from the cache
	// (fresh simulations, including failed ones) — with CacheHits, the
	// job's cache provenance.
	CacheMisses int `json:"cache_misses"`
	// Coalesced counts points that neither hit the cache nor simulated
	// themselves: their miss was coalesced onto an identical in-flight
	// simulation (singleflight). Included in CacheMisses.
	Coalesced int     `json:"coalesced"`
	OOMs      int     `json:"ooms"`
	Failures  int     `json:"failures"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Error     string  `json:"error,omitempty"`

	// Aggregate and Points are present once a sweep job has finished.
	Aggregate string        `json:"aggregate,omitempty"`
	Points    []sweep.Point `json:"points,omitempty"`
	// Advice is present once an advise job has finished.
	Advice *opt.Advice `json:"advice,omitempty"`
}

// body snapshots the job under its lock. includePoints controls whether
// the full per-point results ride along. Once the sweep has finished,
// the counters are derived from its result so they agree with the
// points and aggregate — in particular, points a cancellation left
// undispatched are reported as failures carrying the context error,
// and only dispatched points count as completed.
func (j *job) body(includePoints bool) jobBody {
	j.mu.Lock()
	defer j.mu.Unlock()
	b := jobBody{
		ID: j.id, Kind: j.kind, Name: j.name, Status: j.status,
		Total: j.total, Completed: j.completed,
		CacheHits: j.hits, CacheMisses: j.completed - j.hits,
		Coalesced: j.coalesced,
		OOMs:      j.ooms, Failures: j.failures,
		ElapsedMS: float64(time.Since(j.started)) / float64(time.Millisecond),
		Error:     j.errMsg,
	}
	if j.res != nil {
		b.ElapsedMS = float64(j.res.Elapsed) / float64(time.Millisecond)
		b.Aggregate = j.aggregate
		if includePoints {
			b.Points = j.res.Points
		}
	}
	if j.advice != nil {
		b.ElapsedMS = float64(j.advice.Stats.Elapsed) / float64(time.Millisecond)
		b.Advice = j.advice
	}
	return b
}

// maxRetainedJobs bounds how many jobs (and their retained results) the
// server keeps; beyond it the oldest finished jobs are dropped, so a
// long-lived daemon under steady sweep traffic has bounded memory.
// Running jobs are never evicted.
const maxRetainedJobs = 256

// evictLocked drops the oldest finished jobs while the map exceeds
// maxRetainedJobs. Callers must hold s.mu.
func (s *Server) evictLocked() {
	if len(s.jobs) <= maxRetainedJobs {
		return
	}
	var finished []*job
	for _, j := range s.jobs {
		j.mu.Lock()
		st := j.status
		j.mu.Unlock()
		if st != statusRunning {
			finished = append(finished, j)
		}
	}
	// Oldest first; submission time orders across job kinds.
	sort.Slice(finished, func(i, k int) bool { return finished[i].started.Before(finished[k].started) })
	for _, j := range finished {
		if len(s.jobs) <= maxRetainedJobs {
			break
		}
		delete(s.jobs, j.id)
		mJobsEvicted.Inc()
		s.log.Debug("job evicted", slog.String("job", j.id))
	}
}

func (s *Server) lookup(id string, kind jobKind) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil && j.kind == kind {
		return j
	}
	return nil
}

// handleList lists the jobs of one kind, keyed by the kind's plural.
func (s *Server) handleList(kind jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		jobs := make([]*job, 0, len(s.jobs))
		for _, j := range s.jobs {
			if j.kind == kind {
				jobs = append(jobs, j)
			}
		}
		s.mu.Unlock()
		sort.Slice(jobs, func(i, k int) bool { return jobs[i].id < jobs[k].id })
		bodies := make([]jobBody, len(jobs))
		for i, j := range jobs {
			bodies[i] = j.body(false)
		}
		writeJSON(w, http.StatusOK, map[string][]jobBody{kind.listKey(): bodies})
	}
}

func (s *Server) handleGet(kind jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.lookup(r.PathValue("id"), kind)
		if j == nil {
			writeError(w, http.StatusNotFound, "unknown %s %q", kind, r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, j.body(r.URL.Query().Get("points") != "0"))
	}
}

// handleCancel cancels a running job; on a finished job it instead
// releases the job (and its retained results) from the server.
func (s *Server) handleCancel(kind jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.lookup(r.PathValue("id"), kind)
		if j == nil {
			writeError(w, http.StatusNotFound, "unknown %s %q", kind, r.PathValue("id"))
			return
		}
		j.cancel()
		body := j.body(false)
		if body.Status != statusRunning {
			s.mu.Lock()
			delete(s.jobs, j.id)
			s.mu.Unlock()
		}
		writeJSON(w, http.StatusOK, body)
	}
}

// handleAdviseSubmit validates and launches an advisor query as an
// asynchronous job with the sweep job lifecycle. Total reports the
// query's candidate-space size — an upper bound on evaluations; the
// advisor usually finishes well short of it, and entirely from cache
// when an overlapping query ran before.
func (s *Server) handleAdviseSubmit(w http.ResponseWriter, r *http.Request) {
	raw, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading query: %v", err)
		return
	}
	q, err := opt.ParseQuery(bytes.NewReader(raw))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Check the grid size arithmetically before materializing the
	// candidate space, mirroring sweep submission.
	if n := q.Spec.Size(); n > s.opts.MaxSweepPoints {
		writeError(w, http.StatusRequestEntityTooLarge,
			"advisor space expands to %d points, limit %d", n, s.opts.MaxSweepPoints)
		return
	}
	space, err := q.Space()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	n := len(space.Cands)

	j := s.newJob(kindAdvise, q.Name, n)
	s.journalSubmit(j, raw)
	s.launchAdvise(j, q, space)

	writeJSON(w, http.StatusAccepted, submitBody{ID: j.id, Name: q.Name, Points: n})
}

// launchAdvise runs a registered advisor job on a background worker.
// Shared by fresh submissions and journal-recovered resumes.
func (s *Server) launchAdvise(j *job, q *opt.Query, space *opt.Space) {
	advisor := &opt.Advisor{Runner: s.runner(j.onPoint)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer j.cancel()
		adv, err := advisor.RunSpace(j.ctx, q, space)
		j.mu.Lock()
		switch {
		case err == nil:
			j.advice = adv
			j.completed = adv.Stats.Evaluated
			j.hits = adv.Stats.CacheHits
			j.coalesced = adv.Stats.Coalesced
			j.ooms = adv.Stats.OOMs
			j.failures = adv.Stats.Failures
			j.status = statusDone
		case j.ctx.Err() != nil:
			j.status = statusCancelled
		default:
			// Queries validate before the job starts, so this is an
			// internal failure worth surfacing verbatim.
			j.errMsg = err.Error()
			j.status = statusFailed
		}
		status := j.status
		errMsg := j.errMsg
		j.notifyLocked()
		j.mu.Unlock()
		s.finishJob(j, status)
		s.journalFinish(j, status, adv, errMsg)
	}()
}
