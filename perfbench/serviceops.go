package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"

	"overlapsim/internal/core"
	"overlapsim/internal/opt"
	"overlapsim/internal/service"
	"overlapsim/internal/sweep"
)

// The service inputs are copies of examples/sweeps/paper_grid.json and
// examples/advisor/smoke.json, kept here so the benchmark's inputs only
// change when the benchmark does.
var (
	//go:embed inputs/paper_grid.json
	paperGrid []byte
	//go:embed inputs/advisor_smoke.json
	advisorSmoke []byte
)

// jobBody mirrors the fields of overlapd's job status payload that the
// harness checks.
type jobBody struct {
	ID       string        `json:"id"`
	Name     string        `json:"name"`
	Status   string        `json:"status"`
	OOMs     int           `json:"ooms"`
	Failures int           `json:"failures"`
	Points   []sweep.Point `json:"points"`
	Advice   *opt.Advice   `json:"advice"`
}

// server is an in-process overlapd on a loopback listener, with no state
// directory (so nothing is fsynced), the default workers and a fresh
// in-memory cache, driven by one HTTP client.
type server struct {
	srv   *service.Server
	ts    *httptest.Server
	cache *benchCache
	hc    *http.Client
}

func newServer() (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	cache := newBenchCache()
	srv := service.New(service.Options{Cache: cache})
	ts := &httptest.Server{Listener: l, Config: &http.Server{Handler: srv}}
	ts.Start()
	return &server{srv: srv, ts: ts, cache: cache, hc: ts.Client()}, nil
}

func (s *server) close() {
	s.ts.Close()
	s.srv.Close()
}

// attach routes the cache's spans to t (nil detaches).
func (s *server) attach(t *tracer) { s.cache.tr.Store(t) }

// call makes one request under a client span and returns the response
// body; a non-2xx status is an error.
func (s *server) call(ctx context.Context, t *tracer, name string, parent int, method, path string, body []byte) ([]byte, error) {
	sp := t.beginCall(name, parent)
	defer t.end(sp)
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// job submits a sweep or advisor job, follows its event stream to the
// terminal event, fetches the finished body and releases the job. The
// body comes back undecoded: an operation ends with its last byte, and
// decoding is part of the check.
func (s *server) job(ctx context.Context, t *tracer, parent int, kind string, body []byte) ([]byte, error) {
	raw, err := s.call(ctx, t, "service.submit", parent, "POST", "/v1/"+kind, body)
	if err != nil {
		return nil, err
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(raw, &sub); err != nil {
		return nil, fmt.Errorf("submit response: %w", err)
	}
	path := "/v1/" + kind + "/" + sub.ID
	events, err := s.call(ctx, t, "service.job_wait", parent, "GET", path+"/events", nil)
	if err != nil {
		return nil, err
	}
	if status, err := terminalStatus(events); err != nil || status != "done" {
		return nil, fmt.Errorf("%s %s ended %q: %v", kind, sub.ID, status, err)
	}
	raw, err = s.call(ctx, t, "service.fetch", parent, "GET", path, nil)
	if err != nil {
		return nil, err
	}
	t.add("service.responses", 1)
	t.add("service.response_bytes", float64(len(raw)))
	if _, err := s.call(ctx, t, "service.release", parent, "DELETE", path, nil); err != nil {
		return nil, err
	}
	return raw, nil
}

func decodeJob(raw []byte) (*jobBody, error) {
	var jb jobBody
	if err := json.Unmarshal(raw, &jb); err != nil {
		return nil, fmt.Errorf("job body: %w", err)
	}
	return &jb, nil
}

// terminalStatus reads the status of the "done" event that ends an SSE
// progress stream.
func terminalStatus(stream []byte) (string, error) {
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && done {
			var b struct{ Status string }
			if err := json.Unmarshal([]byte(data), &b); err != nil {
				return "", fmt.Errorf("done event: %w", err)
			}
			return b.Status, nil
		}
	}
	return "", fmt.Errorf("stream ended without a done event")
}

// grid is the paper grid's expanded experiments with their fingerprints.
type grid struct {
	exps [][]byte // each experiment as a POST /v1/experiments body
	cfgs []core.Config
	keys []string
}

func expandGrid() (*grid, error) {
	spec, err := sweep.ParseSpec(bytes.NewReader(paperGrid))
	if err != nil {
		return nil, err
	}
	exps, cfgs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	g := &grid{cfgs: cfgs}
	for i, e := range exps {
		b, err := json.Marshal(e)
		if err != nil {
			return nil, err
		}
		k, err := cfgs[i].Fingerprint()
		if err != nil {
			return nil, err
		}
		g.exps = append(g.exps, b)
		g.keys = append(g.keys, k)
	}
	return g, nil
}

// sweepGrid runs the paper grid as a sweep job and returns the finished
// body.
func (s *server) sweepGrid(ctx context.Context, t *tracer, parent int) ([]byte, error) {
	return s.job(ctx, t, parent, "sweeps", paperGrid)
}

// checkGrid decodes a paper-grid sweep and requires every point to have
// succeeded under its expected fingerprint and, unless want is "", the
// canonical result to digest to want.
func checkGrid(raw []byte, keys []string, want string) (*jobBody, error) {
	jb, err := decodeJob(raw)
	if err != nil {
		return nil, err
	}
	if len(jb.Points) != len(keys) {
		return nil, fmt.Errorf("sweep returned %d points, want %d", len(jb.Points), len(keys))
	}
	for i, p := range jb.Points {
		if p.ErrString != "" || p.OOM != nil || p.Res == nil {
			return nil, fmt.Errorf("point %d failed: %q", i, p.ErrString)
		}
		if p.Key != keys[i] {
			return nil, fmt.Errorf("point %d key %s, want %s", i, p.Key, keys[i])
		}
	}
	if want != "" {
		if err := check("paper-grid", sweepDigest(jb), want); err != nil {
			return nil, err
		}
	}
	return jb, nil
}

// checkedGrid defers checkGrid to the operation's check.
func checkedGrid(raw []byte, keys []string, err error, want string) (verify, error) {
	if err != nil {
		return nil, err
	}
	return func() error {
		_, err := checkGrid(raw, keys, want)
		return err
	}, nil
}

// sweepCold submits the paper grid to a server whose cache is emptied
// before every operation: the write side of the cache plus the whole
// decode → job → runner → core → JSON path.
type sweepCold struct {
	*server
	g    *grid
	want string
}

func newSweepCold(ctx context.Context, d *digests) (*sweepCold, error) {
	g, err := expandGrid()
	if err != nil {
		return nil, err
	}
	srv, err := newServer()
	if err != nil {
		return nil, err
	}
	w := &sweepCold{server: srv, g: g}
	raw, err := w.sweepGrid(ctx, nil, 0)
	var jb *jobBody
	if err == nil {
		jb, err = checkGrid(raw, g.keys, "")
	}
	if err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	w.want = d.reference("paper-grid", sweepDigest(jb))
	return w, nil
}

func (w *sweepCold) op(ctx context.Context, t *tracer, root int) (verify, error) {
	w.cache.reset()
	w.attach(t)
	defer w.attach(nil)
	raw, err := w.sweepGrid(ctx, t, root)
	return checkedGrid(raw, w.g.keys, err, w.want)
}

// serveWarm serves a seeded mix from a cache that set-up filled: 8 in 10
// single experiments of cached configs, 1 in 10 warm paper-grid sweeps
// and 1 in 10 warm advisor queries. Nothing is simulated.
type serveWarm struct {
	*server
	g          *grid
	gridWant   string
	pointWant  []string // per grid point result digest
	adviceWant string
	rng        *rand.Rand
	// deck holds the request kinds left in the current block of ten,
	// shuffled per block, so every block has the exact 8/1/1 mix and
	// the share of each kind does not vary with the seed.
	deck []int
}

// Request kinds of the serve-warm mix.
const (
	kindExperiment = iota
	kindSweep
	kindAdvise
)

var block = []int{kindExperiment, kindExperiment, kindExperiment, kindExperiment,
	kindExperiment, kindExperiment, kindExperiment, kindExperiment, kindSweep, kindAdvise}

// next draws the next request kind.
func (w *serveWarm) next() int {
	if len(w.deck) == 0 {
		w.deck = append(w.deck, block...)
		w.rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
	}
	k := w.deck[len(w.deck)-1]
	w.deck = w.deck[:len(w.deck)-1]
	return k
}

func newServeWarm(ctx context.Context, d *digests, seed uint64) (*serveWarm, error) {
	g, err := expandGrid()
	if err != nil {
		return nil, err
	}
	srv, err := newServer()
	if err != nil {
		return nil, err
	}
	w := &serveWarm{server: srv, g: g, rng: rand.New(rand.NewPCG(seed, 0x5e12e))}
	if err := w.fill(ctx, d); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// fill fills the cache with the paper grid and the advisor space, takes
// their reference digests, and warms every request kind: one sweep, one
// advisor query and each grid point once.
func (w *serveWarm) fill(ctx context.Context, d *digests) error {
	raw, err := w.sweepGrid(ctx, nil, 0)
	var jb *jobBody
	if err == nil {
		jb, err = checkGrid(raw, w.g.keys, "")
	}
	if err != nil {
		return fmt.Errorf("fill sweep: %w", err)
	}
	w.gridWant = d.reference("paper-grid", sweepDigest(jb))
	for _, p := range jb.Points {
		w.pointWant = append(w.pointWant, resultDigest(p.Res))
	}
	raw, err = w.job(ctx, nil, 0, "advise", advisorSmoke)
	var adv *opt.Advice
	if err == nil {
		adv, err = adviceOf(nil, raw)
	}
	if err != nil {
		return fmt.Errorf("fill advise: %w", err)
	}
	w.adviceWant = d.reference("advisor-smoke", adviceDigest(adv))

	if err := now(w.warmSweep(ctx, nil, 0)); err != nil {
		return fmt.Errorf("warm-up sweep: %w", err)
	}
	if err := now(w.warmAdvise(ctx, nil, 0)); err != nil {
		return fmt.Errorf("warm-up advise: %w", err)
	}
	for i := range w.g.exps {
		if err := now(w.experiment(ctx, nil, 0, i)); err != nil {
			return fmt.Errorf("warm-up experiment: %w", err)
		}
	}
	return nil
}

func (w *serveWarm) op(ctx context.Context, t *tracer, root int) (verify, error) {
	w.attach(t)
	defer w.attach(nil)
	switch w.next() {
	case kindExperiment:
		return w.experiment(ctx, t, root, w.rng.IntN(len(w.g.exps)))
	case kindSweep:
		sp := t.begin("service.sweep_warm", root)
		defer t.end(sp)
		return w.warmSweep(ctx, t, sp)
	default:
		sp := t.begin("service.advise_warm", root)
		defer t.end(sp)
		return w.warmAdvise(ctx, t, sp)
	}
}

func (w *serveWarm) warmSweep(ctx context.Context, t *tracer, parent int) (verify, error) {
	raw, err := w.sweepGrid(ctx, t, parent)
	return checkedGrid(raw, w.g.keys, err, w.gridWant)
}

func (w *serveWarm) warmAdvise(ctx context.Context, t *tracer, parent int) (verify, error) {
	raw, err := w.job(ctx, t, parent, "advise", advisorSmoke)
	if err != nil {
		return nil, err
	}
	return func() error {
		adv, err := adviceOf(t, raw)
		if err != nil {
			return err
		}
		return check("advisor-smoke", adviceDigest(adv), w.adviceWant)
	}, nil
}

// experiment requests grid point i synchronously; its check compares the
// point's key and result digest.
func (w *serveWarm) experiment(ctx context.Context, t *tracer, root, i int) (verify, error) {
	key := w.g.keys[i]
	raw, err := w.call(ctx, t, "service.experiment", root, "POST", "/v1/experiments", w.g.exps[i])
	if err != nil {
		return nil, err
	}
	t.add("service.responses", 1)
	t.add("service.response_bytes", float64(len(raw)))
	return func() error {
		var body struct{ Point sweep.Point }
		if err := json.Unmarshal(raw, &body); err != nil {
			return fmt.Errorf("experiment body: %w", err)
		}
		p := body.Point
		if p.Res == nil || p.Key != key {
			return fmt.Errorf("experiment %d: key %s, want %s", i, p.Key, key)
		}
		return check(fmt.Sprintf("grid point %d", i), resultDigest(p.Res), w.pointWant[i])
	}, nil
}

// probe times Config.Fingerprint, the key the server computes for every
// config it looks up, on each grid point, alone after the traced
// operations; the operations themselves use the keys set-up computed.
func (w *serveWarm) probe(t *tracer) error {
	root := t.begin("probe", 0)
	defer t.end(root)
	for i, cfg := range w.g.cfgs {
		sp := t.begin("core.fingerprint", root)
		k, err := cfg.Fingerprint()
		t.end(sp)
		if err != nil {
			return err
		}
		if k != w.g.keys[i] {
			return fmt.Errorf("grid point %d fingerprint %s, want %s", i, k, w.g.keys[i])
		}
	}
	return nil
}

// adviceOf decodes an advisor job body and records its search counts.
func adviceOf(t *tracer, raw []byte) (*opt.Advice, error) {
	jb, err := decodeJob(raw)
	if err != nil {
		return nil, err
	}
	if jb.Advice == nil {
		return nil, fmt.Errorf("advise job %s carried no advice", jb.ID)
	}
	st := jb.Advice.Stats
	if st.Failures > 0 {
		return nil, fmt.Errorf("advise job %s: %d failed evaluations", jb.ID, st.Failures)
	}
	t.add("opt.queries", 1)
	t.add("opt.evals", float64(st.Evaluated))
	t.add("opt.cache_hits", float64(st.CacheHits))
	t.add("opt.rounds", float64(st.Rounds))
	return jb.Advice, nil
}
