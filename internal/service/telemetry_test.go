package service

import (
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"overlapsim/internal/store"
	"overlapsim/internal/telemetry"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue extracts one sample's value from the exposition, or 0
// when the series does not exist yet. series is the full sample name
// including labels, e.g. `sweep_cache_requests_total{backend="mem",outcome="hit"}`.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// checkExposition is a minimal Prometheus text-format validator: every
// family has HELP/TYPE comments before its samples, every sample line
// parses as `name{labels} value`, and histogram families carry the
// cumulative +Inf bucket.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{}
	sampled := map[string]bool{}
	infBucket := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Error("blank line in exposition")
			continue
		}
		if strings.HasPrefix(line, "# ") {
			fields := strings.Fields(line)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Errorf("malformed comment %q", line)
				continue
			}
			if fields[1] == "TYPE" {
				typed[fields[2]] = fields[3]
			}
			continue
		}
		// Label values may contain spaces, so the value is what follows
		// the LAST space and the series name+labels everything before it.
		cut := strings.LastIndex(line, " ")
		if cut < 0 {
			t.Errorf("sample line %q has no value", line)
			continue
		}
		name, value := line[:cut], line[cut+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("sample %q value does not parse: %v", line, err)
		}
		if base, labels, ok := strings.Cut(name, "{"); ok {
			if !strings.HasSuffix(labels, "}") {
				t.Errorf("unterminated labels in %q", line)
			}
			name = base
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && typed[b] == "histogram" {
				base = b
				break
			}
		}
		if typed[base] == "" {
			t.Errorf("sample %q has no preceding # TYPE", line)
		}
		sampled[base] = true
		if strings.HasPrefix(line, base+"_bucket{") && strings.Contains(line, `le="+Inf"`) {
			infBucket[base] = true
		}
	}
	for name, typ := range typed {
		if typ == "histogram" && !infBucket[name] {
			t.Errorf("histogram %s lacks a +Inf bucket", name)
		}
		if !sampled[name] {
			t.Errorf("family %s has TYPE but no samples", name)
		}
	}
}

// The e2e telemetry contract: a cold sweep then the identical sweep
// again; the warm pass must raise the cache-hit counter by the grid
// size, the exposition must stay parseable throughout, and /v1/stats
// must mirror it in JSON. The server runs on the cache cmd/overlapd
// builds without a cache directory, whose lookups are labelled "mem".
func TestMetricsColdWarmSweep(t *testing.T) {
	cache, err := store.Compose("")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Cache: cache})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	const hitSeries = `sweep_cache_requests_total{backend="mem",outcome="hit"}`
	const missSeries = `sweep_cache_requests_total{backend="mem",outcome="miss"}`

	before := scrape(t, ts)
	checkExposition(t, before)
	hits0 := metricValue(t, before, hitSeries)
	misses0 := metricValue(t, before, missSeries)

	spec := `{
		"name": "metrics-test",
		"gpus": ["H100"],
		"models": ["GPT-3 XL"],
		"parallelisms": ["fsdp", "pp"],
		"formats": ["fp16"]
	}`
	for pass := 0; pass < 2; pass++ {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		sub := decode[submitBody](t, resp, http.StatusAccepted)
		if body := waitForJob(t, ts, sub.ID); body.Status != statusDone {
			t.Fatalf("pass %d finished as %q", pass, body.Status)
		}
	}

	after := scrape(t, ts)
	checkExposition(t, after)
	if d := metricValue(t, after, hitSeries) - hits0; d != 2 {
		t.Errorf("warm pass raised the hit counter by %g, want 2", d)
	}
	if d := metricValue(t, after, missSeries) - misses0; d != 2 {
		t.Errorf("cold pass raised the miss counter by %g, want 2", d)
	}
	// The HTTP middleware observed the traffic.
	if !strings.Contains(after, `overlapd_http_requests_total{route="POST /v1/sweeps",code="202"}`) {
		t.Error("request counter missing the sweep submissions")
	}
	if metricValue(t, after, `overlapd_jobs_running{kind="sweep"}`) != 0 {
		t.Error("finished jobs still gauged as running")
	}

	// The JSON mirror carries the same families plus the job ledger.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[statsBody](t, resp, http.StatusOK)
	if stats.UptimeS <= 0 {
		t.Errorf("uptime %g", stats.UptimeS)
	}
	if stats.Jobs["sweep"]["done"] != 2 {
		t.Errorf("job ledger %v, want 2 done sweeps", stats.Jobs)
	}
	found := false
	for _, fam := range stats.Metrics {
		if fam.Name == "sweep_cache_requests_total" {
			found = true
			if fam.Type != telemetry.TypeCounter {
				t.Errorf("snapshot type %q", fam.Type)
			}
		}
	}
	if !found {
		t.Error("snapshot missing sweep_cache_requests_total")
	}
}

// Engine self-stats must surface in the sweep job body: the aggregate
// footer names the task/epoch totals and the per-point results carry
// the per-run stats, identically on cold and warm passes (cached
// results replay the stats their simulation recorded).
func TestJobBodyCarriesEngineStats(t *testing.T) {
	_, ts := newTestServer(t)
	spec := `{"gpus": ["H100"], "models": ["GPT-3 XL"], "formats": ["fp16"]}`

	var aggs [2]string
	for pass := 0; pass < 2; pass++ {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		sub := decode[submitBody](t, resp, http.StatusAccepted)
		body := waitForJob(t, ts, sub.ID)
		if body.Status != statusDone {
			t.Fatalf("pass %d finished as %q", pass, body.Status)
		}
		if !strings.Contains(body.Aggregate, "engine:") {
			t.Fatalf("aggregate lacks engine stats: %q", body.Aggregate)
		}
		aggs[pass] = body.Aggregate
		for _, p := range body.Points {
			if st := p.Res.Overlapped.Engine; st.Epochs <= 0 || st.TasksRetired <= 0 {
				t.Errorf("pass %d point %d engine stats empty: %+v", pass, p.Index, st)
			}
		}
		if pass == 1 && body.CacheMisses != 0 {
			t.Errorf("warm pass reports %d misses", body.CacheMisses)
		}
	}
	// Same engine totals either side of the cache.
	cut := func(s string) string { return s[strings.Index(s, "engine:"):] }
	if cut(aggs[0]) != cut(aggs[1]) {
		t.Errorf("engine stats differ across cache:\ncold: %s\nwarm: %s", aggs[0], aggs[1])
	}
}

// README's metric reference documents exactly the registered families:
// every family on telemetry.Default is named in the table's first
// column, and every name there is registered. This test binary links
// service, sweep, store, opt and calib, which register every production
// family.
func TestReadmeMetricTableMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(b), "### Metric reference\n")
	if !ok {
		t.Fatal("README has no Metric reference section")
	}
	table, _, _ = strings.Cut(table, "\n#")
	documented := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		// Backticked names sit at the odd indices; a {…} suffix lists
		// labels, not part of the family name.
		for i, name := range strings.Split(cells[1], "`") {
			if i%2 == 1 {
				name, _, _ = strings.Cut(name, "{")
				documented[name] = true
			}
		}
	}
	registered := map[string]bool{}
	for _, fam := range telemetry.Default.Snapshot() {
		registered[fam.Name] = true
	}
	for _, name := range slices.Sorted(maps.Keys(registered)) {
		if !documented[name] {
			t.Errorf("family %s is registered but missing from README's metric reference", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(documented)) {
		if !registered[name] {
			t.Errorf("README's metric reference names %s, which no package registers", name)
		}
	}
}
