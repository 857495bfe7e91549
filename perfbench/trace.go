package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"overlapsim/internal/core"
	"overlapsim/internal/sweep"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the span that caused it (0 for an operation's root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans and counters in memory. Every method is safe on a
// nil tracer and does nothing there, so an operation's code is the same
// in traced and untraced runs.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	op     int

	// call is the innermost open client call; spans recorded by server
	// goroutines (the cache wrapper) nest under it.
	call atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]float64)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: t.op, Start: now})
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// beginOp opens the root span of a new operation.
func (t *tracer) beginOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
	return t.begin("op", 0)
}

// beginCall opens a client call span that server-side spans nest under.
func (t *tracer) beginCall(name string, parent int) int {
	id := t.begin(name, parent)
	if t != nil {
		t.call.Store(int64(id))
	}
	return id
}

// add accumulates a counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// max raises a counter to v.
func (t *tracer) max(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if v > t.counts[name] {
		t.counts[name] = v
	}
	t.mu.Unlock()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls       int
	total, self time.Duration
}

func (s layerStat) meanTotal() time.Duration { return mean(s.total, s.calls) }
func (s layerStat) meanSelf() time.Duration  { return mean(s.self, s.calls) }

func mean(d time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return d / time.Duration(n)
}

// layers aggregates every span by name. A span's self time is its
// duration minus the part of its interval its children cover; children
// running in parallel are counted once.
func (t *tracer) layers() map[string]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerStat)
	for _, s := range t.spans {
		st := out[s.Name]
		st.calls++
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered returns how much of the parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			sum += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		sum += curE - curS
	}
	return time.Duration(sum)
}

// printLayers writes the per-layer self-time table and the counters.
func printLayers(w io.Writer, ls map[string]layerStat, counts map[string]float64) {
	fmt.Fprintf(w, "%-22s %8s %12s %12s\n", "span", "calls", "mean_ms", "self_ms")
	for _, n := range sortedKeys(ls) {
		s := ls[n]
		fmt.Fprintf(w, "%-22s %8d %12.4f %12.4f\n", n, s.calls, ms(s.meanTotal()), ms(s.meanSelf()))
	}
	fmt.Fprintf(w, "%-22s %14s\n", "counter", "total")
	for _, n := range sortedKeys(counts) {
		fmt.Fprintf(w, "%-22s %14.0f\n", n, counts[n])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// benchCache is the service's result cache: a MemCache that can be
// emptied between operations and, while a tracer is attached, records a
// span around every Get and Put.
type benchCache struct {
	mem atomic.Pointer[sweep.MemCache]
	tr  atomic.Pointer[tracer]
}

func newBenchCache() *benchCache {
	c := &benchCache{}
	c.reset()
	return c
}

// reset replaces the contents with an empty cache.
func (c *benchCache) reset() { c.mem.Store(sweep.NewMemCache()) }

// Get implements sweep.Cache.
func (c *benchCache) Get(key string) (*core.Result, bool) {
	t := c.tr.Load()
	id := t.begin("sweep.cache_get", c.parent(t))
	res, ok := c.mem.Load().Get(key)
	t.end(id)
	t.add("sweep.cache_gets", 1)
	if ok {
		t.add("sweep.cache_hits", 1)
	}
	return res, ok
}

// Put implements sweep.Cache.
func (c *benchCache) Put(key string, res *core.Result) error {
	t := c.tr.Load()
	id := t.begin("sweep.cache_put", c.parent(t))
	err := c.mem.Load().Put(key, res)
	t.end(id)
	return err
}

func (c *benchCache) parent(t *tracer) int {
	if t == nil {
		return 0
	}
	return int(t.call.Load())
}
