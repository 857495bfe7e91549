package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"overlapsim/internal/store"
	"overlapsim/internal/sweep"
)

// legacyEngineField opens an engine_stats block with a counter that an
// older build wrote and sim.Stats does not have.
const legacyEngineField = `"engine_stats":{"legacy_counter":7,`

// withLegacyEngineField returns b with legacyEngineField's counter added
// to every engine_stats block, as an entry written by an older build
// would carry it.
func withLegacyEngineField(t *testing.T, b []byte) []byte {
	t.Helper()
	out := bytes.ReplaceAll(b, []byte(`"engine_stats":{`), []byte(legacyEngineField))
	if bytes.Equal(out, b) {
		t.Fatal("encoding has no engine_stats block")
	}
	return out
}

// Cached results and journaled jobs written by older builds must still
// decode when their engine_stats block carries a field sim.Stats lacks,
// so the engine block can shrink without invalidating caches or
// dropping finished jobs. Every decoder on the read path is covered:
// DirCache.Get, the peer cache client (store.HTTPCache), the peer cache
// endpoint (PUT /v1/cache/{fp}) and the journal replay at startup. Each
// decoded entry must re-encode to exactly what the current build wrote.
func TestLegacyEngineFieldsDecode(t *testing.T) {
	spec, err := sweep.ParseSpec(strings.NewReader(
		`{"gpus": ["H100"], "models": ["GPT-3 XL"], "parallelisms": ["fsdp"], "batches": [8]}`))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := (&sweep.Runner{Cache: sweep.NewMemCache()}).RunSpec(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	pt := sw.Points[0]
	current, err := json.Marshal(pt.Res)
	if err != nil {
		t.Fatal(err)
	}
	legacy := withLegacyEngineField(t, current)

	// reencode fails the test unless v encodes to the current bytes.
	reencode := func(t *testing.T, v any) {
		t.Helper()
		got, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, current) {
			t.Errorf("decoded legacy entry re-encodes differently:\n got %s\nwant %s", got, current)
		}
	}

	t.Run("DirCache", func(t *testing.T) {
		dir := t.TempDir()
		dc, err := sweep.NewDirCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, pt.Key+".json"), legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		res, ok := dc.Get(pt.Key)
		if !ok {
			t.Fatal("legacy entry read as a miss")
		}
		reencode(t, res)
	})

	t.Run("PeerGet", func(t *testing.T) {
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(legacy)
		}))
		defer peer.Close()
		hc, err := store.NewHTTPCache([]string{peer.URL}, peer.Client())
		if err != nil {
			t.Fatal(err)
		}
		res, ok := hc.Get(pt.Key)
		if !ok {
			t.Fatal("legacy peer entry read as a miss")
		}
		reencode(t, res)
	})

	t.Run("PeerPut", func(t *testing.T) {
		local := sweep.NewMemCache()
		srv := New(Options{Cache: local, LocalCache: local})
		ts := httptest.NewServer(srv)
		defer func() {
			ts.Close()
			srv.Close()
		}()
		req, err := http.NewRequest(http.MethodPut, ts.URL+store.CachePathPrefix+pt.Key, bytes.NewReader(legacy))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("legacy PUT: status %d, want %d", resp.StatusCode, http.StatusNoContent)
		}
		res, ok := local.Get(pt.Key)
		if !ok {
			t.Fatal("legacy PUT stored nothing")
		}
		reencode(t, res)
	})

	t.Run("JournalReplay", func(t *testing.T) {
		sweepBytes, err := json.Marshal(sw)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(sw.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		jn, err := store.OpenJournal(filepath.Join(dir, "jobs.journal"))
		if err != nil {
			t.Fatal(err)
		}
		const id = "sweep-000003"
		for _, rec := range []store.Record{
			{Op: store.OpSubmit, Kind: string(kindSweep), ID: id, Time: time.Now(),
				Total: len(sw.Points), Spec: json.RawMessage(`{}`)},
			{Op: store.OpFinish, Kind: string(kindSweep), ID: id, Time: time.Now(),
				Status: string(statusDone), Result: withLegacyEngineField(t, sweepBytes)},
		} {
			if err := jn.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		jn.Close()

		srv, ts, stop := stateDirServer(t, dir)
		defer stop()
		if body := waitForJob(t, ts, id); body.Status != statusDone || len(body.Points) != len(sw.Points) {
			t.Fatalf("replayed job: status %s, %d points; want done, %d", body.Status, len(body.Points), len(sw.Points))
		}
		if got := canonicalResult(t, srv, id); got != string(want) {
			t.Error("replayed legacy result differs from the current encoding")
		}
	})
}
