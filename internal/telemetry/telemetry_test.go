package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	g.Inc()
	g.Dec()
	g.Add(-0.5)
	if g.Value() != 2 {
		t.Errorf("gauge = %g, want 2", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Errorf("sum = %g, want 56.05", h.Sum())
	}
	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		`test_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("http_requests_total", "requests", "route", "code")
	v.With("/a", "200").Add(3)
	v.With("/a", "500").Inc()
	v.With("/b", "200").Inc()
	if got := v.With("/a", "200").Value(); got != 3 {
		t.Errorf("series = %d, want 3", got)
	}
	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP http_requests_total requests
# TYPE http_requests_total counter
http_requests_total{route="/a",code="200"} 3
http_requests_total{route="/a",code="500"} 1
http_requests_total{route="/b",code="200"} 1
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_total", "t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "second")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "0starts_with_digit", "has-dash", "has space", "colon:name"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			r.Counter(name, "")
		}()
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("test_gauge", "g", "path")
	v.With(`C:\dir"x` + "\nend").Set(1)
	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `path="C:\\dir\"x\nend"`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	g := r.Gauge("conc_gauge", "")
	h := r.Histogram("conc_seconds", "", nil)
	v := r.CounterVec("conc_vec_total", "", "w")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lab := string(rune('a' + w%2))
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.01)
				v.With(lab).Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 || h.Count() != 8000 {
		t.Errorf("lost updates: counter=%d gauge=%g hist=%d", c.Value(), g.Value(), h.Count())
	}
	if v.With("a").Value()+v.With("b").Value() != 8000 {
		t.Errorf("vec lost updates: a=%d b=%d", v.With("a").Value(), v.With("b").Value())
	}
}

func TestSnapshotMirrorsText(t *testing.T) {
	r := NewRegistry()
	r.Counter("one_total", "one").Add(7)
	r.GaugeVec("two_gauge", "two", "k").With("v").Set(1.5)
	r.Histogram("three_seconds", "three", []float64{1}).Observe(0.5)

	snaps := r.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("%d families, want 3", len(snaps))
	}
	// Sorted by name.
	if snaps[0].Name != "one_total" || snaps[1].Name != "three_seconds" || snaps[2].Name != "two_gauge" {
		t.Errorf("family order: %s, %s, %s", snaps[0].Name, snaps[1].Name, snaps[2].Name)
	}
	if snaps[0].Samples[0].Value != 7 {
		t.Errorf("counter snapshot = %+v", snaps[0].Samples[0])
	}
	if got := snaps[2].Samples[0].Labels["k"]; got != "v" {
		t.Errorf("labels = %v", snaps[2].Samples[0].Labels)
	}
	hist := snaps[1].Samples[0]
	if hist.Count != 1 || hist.Sum != 0.5 || len(hist.Buckets) != 2 || hist.Buckets[1].LE != "+Inf" {
		t.Errorf("histogram snapshot = %+v", hist)
	}
	// The snapshot must be JSON-encodable (it backs /v1/stats).
	if _, err := json.Marshal(snaps); err != nil {
		t.Fatal(err)
	}
}

// A labelled family with no series yet is still listed, with an empty
// sample list, so the snapshot names every registered family.
func TestSnapshotListsEmptyFamilies(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("idle_total", "idle", "k")
	snaps := r.Snapshot()
	if len(snaps) != 1 || snaps[0].Name != "idle_total" {
		t.Fatalf("snapshot = %+v, want the one idle family", snaps)
	}
	b, err := json.Marshal(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"samples":[]`) {
		t.Errorf("idle family encodes as %s, want an empty samples list", b)
	}
	var text strings.Builder
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if text.Len() != 0 {
		t.Errorf("text exposition of an idle family = %q, want nothing", text.String())
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "s").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "served_total 1") {
		t.Errorf("body:\n%s", rec.Body.String())
	}
}

func TestRequestIDs(t *testing.T) {
	ctx1, id1 := WithRequestID(context.Background())
	_, id2 := WithRequestID(context.Background())
	if id1 == "" || id1 == id2 {
		t.Errorf("ids not unique: %q %q", id1, id2)
	}
	if got := RequestID(ctx1); got != id1 {
		t.Errorf("RequestID = %q, want %q", got, id1)
	}
	// An inner WithRequestID reuses the outer ID.
	ctx2, id3 := WithRequestID(ctx1)
	if id3 != id1 || RequestID(ctx2) != id1 {
		t.Errorf("nested id %q, want %q", id3, id1)
	}
	if RequestID(context.Background()) != "" {
		t.Error("empty context has an ID")
	}
}

func TestNewLogger(t *testing.T) {
	var b bytes.Buffer
	log, err := NewLogger(&b, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	log.Debug("hello", slog.String("k", "v"))
	var entry map[string]any
	if err := json.Unmarshal(b.Bytes(), &entry); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, b.String())
	}
	if entry["msg"] != "hello" || entry["k"] != "v" {
		t.Errorf("entry = %v", entry)
	}

	if _, err := NewLogger(&b, "nope", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := NewLogger(&b, "info", "yaml"); err == nil {
		t.Error("bad format accepted")
	}
	// Info-level text logger suppresses debug records.
	b.Reset()
	log2, err := NewLogger(&b, "", "")
	if err != nil {
		t.Fatal(err)
	}
	log2.Debug("invisible")
	if b.Len() != 0 {
		t.Errorf("debug leaked through info level: %q", b.String())
	}
}
