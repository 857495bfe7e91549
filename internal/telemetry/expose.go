package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WriteText renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, each with HELP and
// TYPE lines, histograms expanded into cumulative _bucket/_sum/_count
// series. Output is deterministic for a given registry state.
func (r *Registry) WriteText(w io.Writer) error {
	for _, f := range r.families() {
		if err := f.writeText(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *Family) writeText(w io.Writer) error {
	f.mu.RLock()
	keys := append([]string(nil), f.order...)
	children := make([]metric, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()
	if len(keys) == 0 {
		return nil
	}

	var b strings.Builder
	if f.help != "" {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)

	// Sort series by key for deterministic output (creation order varies
	// with request interleaving).
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && keys[idx[j]] < keys[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}

	for _, i := range idx {
		values := splitKey(keys[i], len(f.labels))
		switch m := children[i].(type) {
		case *Counter:
			b.WriteString(f.name)
			writeLabels(&b, f.labels, values, "", "")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(m.Value(), 10))
			b.WriteByte('\n')
		case *Gauge:
			b.WriteString(f.name)
			writeLabels(&b, f.labels, values, "", "")
			b.WriteByte(' ')
			b.WriteString(formatFloat(m.Value()))
			b.WriteByte('\n')
		case *Histogram:
			cum := uint64(0)
			for bi, bound := range m.bounds {
				cum += m.counts[bi].Load()
				b.WriteString(f.name + "_bucket")
				writeLabels(&b, f.labels, values, "le", formatFloat(bound))
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(cum, 10))
				b.WriteByte('\n')
			}
			b.WriteString(f.name + "_bucket")
			writeLabels(&b, f.labels, values, "le", "+Inf")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(m.Count(), 10))
			b.WriteByte('\n')
			b.WriteString(f.name + "_sum")
			writeLabels(&b, f.labels, values, "", "")
			b.WriteByte(' ')
			b.WriteString(formatFloat(m.Sum()))
			b.WriteByte('\n')
			b.WriteString(f.name + "_count")
			writeLabels(&b, f.labels, values, "", "")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(m.Count(), 10))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// splitKey recovers the label values from a child key.
func splitKey(key string, n int) []string {
	if n == 0 {
		return nil
	}
	return strings.SplitN(key, labelSep, n)
}

// writeLabels renders a label set, appending one extra pair (the
// histogram "le" bound) when extraKey is non-empty.
func writeLabels(b *strings.Builder, keys, values []string, extraKey, extraVal string) {
	if len(keys) == 0 && extraKey == "" {
		return
	}
	b.WriteByte('{')
	first := true
	for i, k := range keys {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeValue(values[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeValue(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
var valueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeValue(s string) string { return valueEscaper.Replace(s) }

// Handler returns an http.Handler serving the text exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// BucketSnapshot is one cumulative histogram bucket in a snapshot.
type BucketSnapshot struct {
	// LE is the bucket's upper bound; +Inf is rendered as "+Inf".
	LE string `json:"le"`
	// Count is the cumulative observation count at this bound.
	Count uint64 `json:"count"`
}

// SampleSnapshot is one series of a family snapshot.
type SampleSnapshot struct {
	// Labels are the series' label values (absent for scalar families).
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter or gauge value.
	Value float64 `json:"value"`
	// Count, Sum and Buckets are present for histograms.
	Count   uint64           `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// FamilySnapshot is the JSON mirror of one metric family.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Type    Type             `json:"type"`
	Samples []SampleSnapshot `json:"samples"`
}

// Snapshot returns a point-in-time JSON-encodable view of every family,
// sorted by name — the /v1/stats mirror of the /metrics exposition. A
// labelled family with no series yet is listed with no samples, where
// the text exposition omits it.
func (r *Registry) Snapshot() []FamilySnapshot {
	fams := r.families()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		f.mu.RLock()
		keys := append([]string(nil), f.order...)
		children := make([]metric, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.RUnlock()
		// Deterministic series order, matching the text exposition.
		sort.Sort(&keyedChildren{keys, children})
		snap := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ,
			Samples: make([]SampleSnapshot, 0, len(keys))}
		for i, key := range keys {
			var s SampleSnapshot
			if len(f.labels) > 0 {
				values := splitKey(key, len(f.labels))
				s.Labels = make(map[string]string, len(f.labels))
				for li, lk := range f.labels {
					s.Labels[lk] = values[li]
				}
			}
			switch m := children[i].(type) {
			case *Counter:
				s.Value = float64(m.Value())
			case *Gauge:
				s.Value = m.Value()
			case *Histogram:
				s.Count = m.Count()
				s.Sum = m.Sum()
				cum := uint64(0)
				for bi, bound := range m.bounds {
					cum += m.counts[bi].Load()
					s.Buckets = append(s.Buckets, BucketSnapshot{LE: formatFloat(bound), Count: cum})
				}
				s.Buckets = append(s.Buckets, BucketSnapshot{LE: "+Inf", Count: m.Count()})
			}
			snap.Samples = append(snap.Samples, s)
		}
		out = append(out, snap)
	}
	return out
}

// keyedChildren sorts a (key, metric) pair of slices by key.
type keyedChildren struct {
	keys     []string
	children []metric
}

func (kc *keyedChildren) Len() int           { return len(kc.keys) }
func (kc *keyedChildren) Less(i, j int) bool { return kc.keys[i] < kc.keys[j] }
func (kc *keyedChildren) Swap(i, j int) {
	kc.keys[i], kc.keys[j] = kc.keys[j], kc.keys[i]
	kc.children[i], kc.children[j] = kc.children[j], kc.children[i]
}
