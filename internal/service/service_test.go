package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"overlapsim/internal/hw"
	"overlapsim/internal/strategy"
)

// loadTestPod registers the custom test system exactly once — the hw
// registry is process-global, so the test must survive go test -count=N.
var loadTestPod = sync.OnceValue(func() error {
	return hw.Load(strings.NewReader(`{
	  "systems": [{"name": "svc-test-pod", "gpu": "H100", "gpus_per_node": 8, "nodes": 2,
	               "nic": {"bw_gbs": 25}}]
	}`))
})

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func decode[T any](t *testing.T, resp *http.Response, wantCode int) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if resp.StatusCode != wantCode {
		var e errorBody
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("status %d, want %d (error: %s)", resp.StatusCode, wantCode, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCatalog(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	body := decode[catalogBody](t, resp, http.StatusOK)
	if len(body.GPUs) != len(hw.Names()) || len(body.Models) != 5 {
		t.Errorf("catalog lists %d GPUs / %d models, want %d / 5",
			len(body.GPUs), len(body.Models), len(hw.Names()))
	}
	if body.GPUs[0].Name != "A100" || body.GPUs[0].Vendor != "NVIDIA" {
		t.Errorf("first GPU %+v", body.GPUs[0])
	}
	if len(body.Formats) != 4 {
		t.Errorf("catalog lists formats %v", body.Formats)
	}
}

// The catalog must serve the platform registry: every registered system
// with its shape and fabric — including JSON-loaded customs — under the
// exact names experiments and sweep axes accept.
func TestCatalogServesSystemRegistry(t *testing.T) {
	if err := loadTestPod(); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	body := decode[catalogBody](t, resp, http.StatusOK)
	if len(body.Systems) != len(hw.SystemNames()) {
		t.Fatalf("catalog lists %d systems, registry has %d", len(body.Systems), len(hw.SystemNames()))
	}
	served := make(map[string]catalogSystem, len(body.Systems))
	for _, cs := range body.Systems {
		served[cs.Name] = cs
	}
	h8, ok := served["H100x8"]
	if !ok || h8.GPU != "H100" || h8.GPUsPerNode != 8 || h8.Nodes != 1 || h8.TotalGPUs != 8 ||
		h8.Fabric != "switched" || h8.NICBWGBs != 0 {
		t.Errorf("H100x8 entry = %+v", h8)
	}
	mi, ok := served["MI250x4"]
	if !ok || mi.Fabric != "mesh" {
		t.Errorf("MI250x4 entry = %+v", mi)
	}
	pod, ok := served["svc-test-pod"]
	if !ok || pod.Nodes != 2 || pod.TotalGPUs != 16 || pod.NICBWGBs != 25 {
		t.Errorf("custom pod entry = %+v", pod)
	}
	// The served name must run as an experiment without further setup.
	expResp, err := http.Post(ts.URL+"/v1/experiments", "application/json",
		strings.NewReader(`{"system": "svc-test-pod", "model": "GPT-3 XL", "batch": 16, "iterations": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	exp := decode[experimentBody](t, expResp, http.StatusOK)
	if exp.Point.Err != nil || exp.Point.Res == nil {
		t.Errorf("custom-system experiment failed: %+v", exp.Point.Err)
	}
}

// The catalog must round-trip the strategy registry: every registered
// strategy — including TP, which core never names — appears with its
// metadata, and every served name resolves back through the registry.
func TestCatalogServesStrategyRegistry(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	body := decode[catalogBody](t, resp, http.StatusOK)

	names := strategy.Names()
	if len(body.Strategies) != len(names) || len(body.Parallelisms) != len(names) {
		t.Fatalf("catalog lists %d strategies / %d parallelisms, registry has %d",
			len(body.Strategies), len(body.Parallelisms), len(names))
	}
	served := make(map[string]catalogStrategy, len(body.Strategies))
	for _, cs := range body.Strategies {
		served[cs.Name] = cs
	}
	for _, name := range names {
		cs, ok := served[name]
		if !ok {
			t.Errorf("registered strategy %q missing from catalog", name)
			continue
		}
		s, err := strategy.Lookup(cs.Name)
		if err != nil {
			t.Errorf("served name %q does not resolve: %v", cs.Name, err)
			continue
		}
		info := s.Describe()
		if cs.Display != info.Display || cs.Summary != info.Summary ||
			cs.MicroBatch != info.MicroBatch || cs.GradAccum != info.GradAccum ||
			cs.TPDegree != info.TPDegree {
			t.Errorf("catalog entry %q diverges from registry info:\n got %+v\nwant %+v", name, cs, info)
		}
	}
	tp, ok := served["tp"]
	if !ok {
		t.Fatal("tensor parallelism missing from the catalog")
	}
	if !tp.TPDegree || tp.Display != "TP" {
		t.Errorf("tp entry %+v", tp)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	req := `{"gpu":"H100","model":"GPT-3 XL","parallelism":"fsdp","batch":8}`

	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body := decode[experimentBody](t, resp, http.StatusOK)
	if body.Point.CacheHit {
		t.Error("first run reported a cache hit")
	}
	if body.Point.Res == nil || body.Point.Res.Overlapped.Mean.E2E <= 0 {
		t.Fatalf("experiment returned no result: %+v", body.Point)
	}
	if body.Summary.Status != "ok" || !strings.Contains(body.Summary.Label, "H100x4 FSDP") {
		t.Errorf("summary %+v", body.Summary)
	}

	// The same experiment again is served from the shared cache.
	resp, err = http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body = decode[experimentBody](t, resp, http.StatusOK)
	if !body.Point.CacheHit {
		t.Error("repeated experiment missed the cache")
	}
}

func TestExperimentEndpointRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for name, req := range map[string]string{
		"unknown gpu":   `{"gpu":"B200","model":"GPT-3 XL"}`,
		"unknown model": `{"gpu":"H100","model":"GPT-5"}`,
		"unknown field": `{"gpu":"H100","model":"GPT-3 XL","batchsize":8}`,
		"not json":      `gpu=H100`,
	} {
		resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		body := decode[errorBody](t, resp, http.StatusBadRequest)
		if body.Error == "" {
			t.Errorf("%s: empty error message", name)
		}
	}
}

// TestExperimentInvalidShapeKeepsServing pins that a strategy rejecting
// the cluster shape — FSDP shards over at least two GPUs — answers with
// an error instead of taking the daemon down, and that the server keeps
// serving: DDP on the same single GPU still runs, with no communication.
func TestExperimentInvalidShapeKeepsServing(t *testing.T) {
	_, ts := newTestServer(t)
	post := func(req string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	bad := decode[errorBody](t, post(`{"gpu":"H100","gpu_count":1,"model":"GPT-3 XL","batch":2}`),
		http.StatusInternalServerError)
	if !strings.Contains(bad.Error, "fsdp") {
		t.Errorf("error %q does not name the strategy", bad.Error)
	}
	body := decode[experimentBody](t, post(`{"gpu":"H100","gpu_count":1,"model":"GPT-3 XL","parallelism":"ddp","batch":2}`),
		http.StatusOK)
	if body.Point.Res == nil || body.Point.Res.Overlapped.Mean.E2E <= 0 {
		t.Fatalf("one-GPU DDP returned no result: %+v", body.Point)
	}
	if c := body.Point.Res.Overlapped.Mean.CommKernelTime; c != 0 {
		t.Errorf("one-GPU DDP communication time %g, want 0", c)
	}
}

// waitForJob polls the job endpoint until the sweep leaves the running
// state.
func waitForJob(t *testing.T, ts *httptest.Server, id string) jobBody {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body := decode[jobBody](t, resp, http.StatusOK)
		if body.Status != statusRunning {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still running: %+v", id, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSweepJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	spec := `{
		"name": "api-test",
		"gpus": ["H100", "MI250"],
		"models": ["GPT-3 XL"],
		"parallelisms": ["fsdp", "pp"],
		"formats": ["fp16"]
	}`

	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	sub := decode[submitBody](t, resp, http.StatusAccepted)
	if sub.ID == "" || sub.Points != 4 {
		t.Fatalf("submit response %+v", sub)
	}

	body := waitForJob(t, ts, sub.ID)
	if body.Status != statusDone {
		t.Fatalf("job finished as %q: %+v", body.Status, body)
	}
	if body.Completed != 4 || body.Failures != 0 || body.OOMs != 0 {
		t.Errorf("progress %+v", body)
	}
	if len(body.Points) != 4 {
		t.Fatalf("done job returned %d points", len(body.Points))
	}
	for _, p := range body.Points {
		if p.Res == nil {
			t.Errorf("point %d missing result", p.Index)
		}
	}
	if !strings.Contains(body.Aggregate, "4 points: 4 ok") {
		t.Errorf("aggregate %q", body.Aggregate)
	}

	// Resubmitting the identical spec is served fully from the cache.
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	sub2 := decode[submitBody](t, resp, http.StatusAccepted)
	body = waitForJob(t, ts, sub2.ID)
	if body.Status != statusDone || body.CacheHits != 4 {
		t.Errorf("warm job hit %d/4 points (status %s)", body.CacheHits, body.Status)
	}

	// Both jobs are listed.
	resp, err = http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[map[string][]jobBody](t, resp, http.StatusOK)
	if len(list["sweeps"]) != 2 {
		t.Errorf("listed %d sweeps, want 2", len(list["sweeps"]))
	}
}

func TestSweepJobValidation(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(`{"gpus":[],"models":["GPT-3 XL"]}`))
	if err != nil {
		t.Fatal(err)
	}
	decode[errorBody](t, resp, http.StatusBadRequest)

	resp, err = http.Get(ts.URL + "/v1/sweeps/sweep-999999")
	if err != nil {
		t.Fatal(err)
	}
	decode[errorBody](t, resp, http.StatusNotFound)
}

func TestSweepJobPointLimit(t *testing.T) {
	srv := New(Options{MaxSweepPoints: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"gpus":["H100"],"models":["GPT-3 XL"],"batches":[8,16,32]}`))
	if err != nil {
		t.Fatal(err)
	}
	decode[errorBody](t, resp, http.StatusRequestEntityTooLarge)
}

func TestSweepJobCancellation(t *testing.T) {
	srv := New(Options{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	// A deliberately heavy serial grid so cancellation lands mid-flight.
	spec := `{
		"gpus": ["MI250"],
		"models": ["GPT-3 13B", "LLaMA2 13B"],
		"parallelisms": ["fsdp", "pp"],
		"batches": [32, 64]
	}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	sub := decode[submitBody](t, resp, http.StatusAccepted)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decode[jobBody](t, resp, http.StatusOK)

	body := waitForJob(t, ts, sub.ID)
	if body.Status != statusCancelled {
		t.Fatalf("cancelled job finished as %q", body.Status)
	}
	if body.Completed >= sub.Points {
		t.Errorf("job ran all %d points despite cancellation", sub.Points)
	}
	// The status payload must stay internally consistent: every point
	// is accounted for as completed or failed (undispatched points are
	// failures carrying the context error), and the counters match the
	// returned points.
	if body.Completed+body.Failures < sub.Points {
		t.Errorf("counters leak points: completed=%d failures=%d of %d",
			body.Completed, body.Failures, sub.Points)
	}
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	full := decode[jobBody](t, resp, http.StatusOK)
	errPoints := 0
	for _, p := range full.Points {
		if p.ErrString != "" {
			errPoints++
		}
	}
	if errPoints != full.Failures {
		t.Errorf("payload shows %d error points but failures=%d", errPoints, full.Failures)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if got := decode[map[string]string](t, resp, http.StatusOK); got["status"] != "ok" {
		t.Errorf("healthz %v", got)
	}
}

// The service must survive concurrent identical submissions sharing the
// cache (the heavy-traffic path): every job completes with consistent
// counters.
func TestConcurrentExperimentRequests(t *testing.T) {
	_, ts := newTestServer(t)
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			req := `{"gpu":"H100","model":"GPT-3 XL","batch":8}`
			resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(req))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var body experimentBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				errs <- err
				return
			}
			if body.Point.Res == nil {
				errs <- fmt.Errorf("missing result")
				return
			}
			errs <- nil
		}()
	}
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			fmt.Fprintf(&buf, "request: %v\n", err)
		}
	}
	if buf.Len() > 0 {
		t.Error(buf.String())
	}
}
