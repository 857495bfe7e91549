package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"overlapsim/internal/store"
	"overlapsim/internal/sweep"
)

// distSpec is a small sweep used across the cache, journal and stream tests.
const distSpec = `{
	"name": "dist-test",
	"gpus": ["H100"],
	"models": ["GPT-3 XL"],
	"parallelisms": ["fsdp", "pp"],
	"batches": [8, 16]
}`

func postSweep(t *testing.T, ts *httptest.Server, spec string) submitBody {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	return decode[submitBody](t, resp, http.StatusAccepted)
}

// canonicalResult returns the canonical JSON encoding of a finished
// sweep job's result — the bytes that must be identical across cache
// states and restarts.
func canonicalResult(t *testing.T, srv *Server, id string) string {
	t.Helper()
	j := srv.lookup(id, kindSweep)
	if j == nil {
		t.Fatalf("job %s not found", id)
	}
	j.mu.Lock()
	res := j.res
	j.mu.Unlock()
	if res == nil {
		t.Fatalf("job %s has no result", id)
	}
	b, err := json.Marshal(res.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A client cannot overwrite a served result. The probe: run an
// experiment, PUT a copy of its result with the Eq. 1 compute slowdown
// forged to 9.99 under the experiment's content address, and require
// that the write is refused and the repeated experiment is still served
// from cache with the simulated slowdown, bit for bit.
func TestForgedCacheWriteCannotChangeAnswer(t *testing.T) {
	_, ts := newTestServer(t)
	const req = `{"gpu":"H100","model":"GPT-3 XL","parallelism":"fsdp","batch":8}`
	post := func() experimentBody {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		return decode[experimentBody](t, resp, http.StatusOK)
	}

	orig := post()
	if orig.Point.Res == nil {
		t.Fatalf("experiment returned no result: %+v", orig.Point)
	}
	forged := *orig.Point.Res
	forged.Char.ComputeSlowdown = 9.99
	b, err := json.Marshal(&forged)
	if err != nil {
		t.Fatal(err)
	}
	put, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/"+orig.Point.Key, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		t.Errorf("forged cache write: status %d, want it refused", resp.StatusCode)
	}

	again := post()
	if !again.Point.CacheHit {
		t.Error("repeated experiment missed the cache")
	}
	want, got := orig.Point.Res.Char.ComputeSlowdown, again.Point.Res.Char.ComputeSlowdown
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("repeated experiment serves compute slowdown %v, want the simulated %v", got, want)
	}
}

// N concurrent identical submissions simulate each grid point exactly
// once: the first caller per point leads, the rest either coalesce onto
// the in-flight simulation or hit the cache it filled.
func TestConcurrentIdenticalSubmissionsCoalesce(t *testing.T) {
	_, ts := newTestServer(t)
	const n = 4
	spec := `{"gpus": ["H100"], "models": ["GPT-3 XL"], "batches": [8]}`

	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var sub submitBody
			if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				t.Error(err)
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()

	fresh := 0
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		body := waitForJob(t, ts, id)
		if body.Status != statusDone || body.Completed != 1 {
			t.Fatalf("job %s: %+v", id, body)
		}
		if body.CacheHits == 0 && body.Coalesced == 0 {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("%d of %d identical concurrent sweeps simulated fresh, want exactly 1", fresh, n)
	}
}

// stateDirServer builds a server wired the way cmd/overlapd wires a
// -state-dir: the cache store.Compose builds over DIR/cache and a job
// journal under the same directory.
func stateDirServer(t *testing.T, dir string) (*Server, *httptest.Server, func()) {
	t.Helper()
	cache, err := store.Compose(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	jn, err := store.OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Cache: cache, Journal: jn, Workers: 1})
	ts := httptest.NewServer(srv)
	return srv, ts, func() {
		ts.Close()
		srv.Close()
		jn.Close()
	}
}

// A finished job survives a restart: the journal replays its submission
// and terminal result, and the restarted server serves it byte-identical
// without resimulating anything.
func TestFinishedJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1, stop1 := stateDirServer(t, dir)
	sub := postSweep(t, ts1, distSpec)
	if body := waitForJob(t, ts1, sub.ID); body.Status != statusDone {
		t.Fatalf("job: %+v", body)
	}
	want := canonicalResult(t, srv1, sub.ID)
	stop1()

	srv2, ts2, stop2 := stateDirServer(t, dir)
	defer stop2()
	body := waitForJob(t, ts2, sub.ID)
	if body.Status != statusDone {
		t.Fatalf("recovered job: %+v", body)
	}
	if len(body.Points) != sub.Points || body.Aggregate == "" {
		t.Errorf("recovered job lost its results: %d points, aggregate %q", len(body.Points), body.Aggregate)
	}
	if got := canonicalResult(t, srv2, sub.ID); got != want {
		t.Error("recovered result differs from the original")
	}
}

// An interrupted job resumes on restart: the journal holds its submission
// with no terminal record, so the restarted server re-runs the spec —
// with every point that reached the durable cache before the crash
// served as a hit — and converges on a result byte-identical to an
// uninterrupted run.
func TestInterruptedJobResumesByteIdentical(t *testing.T) {
	// Reference: the same spec run uninterrupted on a fresh server.
	refSrv, refTS := newTestServer(t)
	refSub := postSweep(t, refTS, distSpec)
	if body := waitForJob(t, refTS, refSub.ID); body.Status != statusDone {
		t.Fatalf("reference job: %+v", body)
	}
	want := canonicalResult(t, refSrv, refSub.ID)

	// Simulate the crash aftermath directly: a journal holding a
	// submission with no finish, and a cache warmed with a strict subset
	// of the grid (the points that completed before the kill).
	dir := t.TempDir()
	dc, err := sweep.NewDirCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	partial := `{"gpus": ["H100"], "models": ["GPT-3 XL"], "parallelisms": ["fsdp"], "batches": [8, 16]}`
	spec, err := sweep.ParseSpec(strings.NewReader(partial))
	if err != nil {
		t.Fatal(err)
	}
	pre, err := (&sweep.Runner{Cache: dc}).RunSpec(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	warmed := len(pre.Points)

	jn, err := store.OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	err = jn.Append(store.Record{
		Op: store.OpSubmit, Kind: string(kindSweep), ID: "sweep-000007",
		Name: "dist-test", Time: time.Now(), Total: 4, Spec: json.RawMessage(distSpec),
	})
	jn.Close()
	if err != nil {
		t.Fatal(err)
	}

	srv, ts, stop := stateDirServer(t, dir)
	defer stop()
	body := waitForJob(t, ts, "sweep-000007")
	if body.Status != statusDone {
		t.Fatalf("resumed job: %+v", body)
	}
	// Only the uncached remainder simulated.
	if body.CacheHits != warmed {
		t.Errorf("resumed job hit %d cached points, want %d", body.CacheHits, warmed)
	}
	if got := canonicalResult(t, srv, "sweep-000007"); got != want {
		t.Error("resumed result differs from the uninterrupted run")
	}

	// The resumed job's id stays reserved: the next submission must mint
	// a higher id, never reuse a journaled one.
	sub := postSweep(t, ts, distSpec)
	if sub.ID <= "sweep-000007" {
		t.Errorf("fresh id %s not after the recovered id", sub.ID)
	}
}

// Killing the server mid-sweep (shutdown, not user cancellation) leaves
// the job unterminated in the journal; the restarted server resumes and
// completes it with the same canonical bytes as an uninterrupted run.
func TestShutdownMidSweepResumesOnRestart(t *testing.T) {
	refSrv, refTS := newTestServer(t)
	refSub := postSweep(t, refTS, distSpec)
	if body := waitForJob(t, refTS, refSub.ID); body.Status != statusDone {
		t.Fatalf("reference job: %+v", body)
	}
	want := canonicalResult(t, refSrv, refSub.ID)

	dir := t.TempDir()
	_, ts1, stop1 := stateDirServer(t, dir)
	sub := postSweep(t, ts1, distSpec)
	stop1() // kill mid-sweep: cancels the job without a terminal record

	srv2, ts2, stop2 := stateDirServer(t, dir)
	defer stop2()
	body := waitForJob(t, ts2, sub.ID)
	if body.Status != statusDone {
		t.Fatalf("job after restart: %+v", body)
	}
	if got := canonicalResult(t, srv2, sub.ID); got != want {
		t.Error("post-restart result differs from the uninterrupted run")
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	body jobBody
}

func readSSE(t *testing.T, url string) []sseEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: content-type %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur = sseEvent{name: strings.TrimPrefix(line, "event: ")}
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.body); err != nil {
				t.Fatalf("bad SSE data: %v", err)
			}
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// The SSE stream serves progress snapshots and always terminates with a
// "done" event carrying the terminal job state; a stream opened on an
// already-finished job gets the done event immediately.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t)
	sub := postSweep(t, ts, distSpec)

	events := readSSE(t, fmt.Sprintf("%s/v1/sweeps/%s/events", ts.URL, sub.ID))
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	for i, ev := range events {
		switch ev.name {
		case "progress":
			if i == len(events)-1 {
				t.Error("stream ended on a progress event")
			}
		case "done":
			if i != len(events)-1 {
				t.Errorf("done event at position %d of %d", i, len(events))
			}
		default:
			t.Errorf("unexpected event %q", ev.name)
		}
	}
	last := events[len(events)-1]
	if last.name != "done" || last.body.Status != statusDone || last.body.Completed != sub.Points {
		t.Errorf("terminal event %q %+v", last.name, last.body)
	}

	// Reconnecting to the finished job yields the done snapshot at once.
	again := readSSE(t, fmt.Sprintf("%s/v1/sweeps/%s/events", ts.URL, sub.ID))
	if len(again) != 1 || again[0].name != "done" {
		t.Errorf("finished-job stream: %d events, first %q", len(again), again[0].name)
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/sweep-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	decode[errorBody](t, resp, http.StatusNotFound)
}

// Coalesced counts surface everywhere the job does: status body, the
// stats endpoint's process-wide total, and the points themselves.
func TestStatsSurfacesCoalescing(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body := decode[statsBody](t, resp, http.StatusOK)
	if body.CoalescedTotal != store.CoalescedTotal() {
		t.Errorf("stats coalesced_total %d, store reports %d", body.CoalescedTotal, store.CoalescedTotal())
	}
}
