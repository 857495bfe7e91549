package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"overlapsim/internal/core"
	"overlapsim/internal/opt"
	"overlapsim/internal/sweep"
)

// expectedJSON holds the committed digests of the default seed's
// simulated results, keyed by input (see digestKey). Regenerate it with
// --print-digests only when a change is meant to alter simulated output.
//
//go:embed expected.json
var expectedJSON []byte

// digests resolves the reference digest of each input: the committed one
// when the input has one, else the first digest observed in this run,
// so later operations must repeat it exactly.
type digests struct {
	committed map[string]string
	observed  map[string]string
}

func loadDigests() (*digests, error) {
	d := &digests{committed: map[string]string{}, observed: map[string]string{}}
	if err := json.Unmarshal(expectedJSON, &d.committed); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return d, nil
}

// reference records got as the input's first observed digest and returns
// the digest every operation on the input must produce.
func (d *digests) reference(key, got string) string {
	if _, ok := d.observed[key]; !ok {
		d.observed[key] = got
	}
	if want, ok := d.committed[key]; ok {
		return want
	}
	return d.observed[key]
}

// check compares a digest against its reference.
func check(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s digest %s, want %s", what, got, want)
	}
	return nil
}

// observedJSON renders the observed digests in expected.json's format.
func (d *digests) observedJSON() []byte {
	b, _ := json.MarshalIndent(d.observed, "", "  ") // a map of strings always encodes
	return append(b, '\n')
}

func hashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// The digested types are plain data; failing to encode is a bug.
		panic(fmt.Sprintf("digest: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// resultDigest covers the simulated figures the paper reports for one
// characterization: Eq. 1–5, each mode's mean iteration and energy, and
// the engine's task counts.
func resultDigest(r *core.Result) string {
	type mode struct {
		Mean         any
		EnergyJ      float64
		Tasks        int
		TasksRetired int
	}
	m := func(r core.ModeResult) mode {
		return mode{r.Mean, r.EnergyJ, r.Engine.Tasks, r.Engine.TasksRetired}
	}
	return hashJSON(struct {
		Char                   any
		Overlapped, Sequential mode
	}{r.Char, m(r.Overlapped), m(r.Sequential)})
}

// sweepDigest covers a finished sweep's canonical result.
func sweepDigest(b *jobBody) string {
	res := &sweep.Result{Name: b.Name, Points: b.Points, OOMs: b.OOMs, Failures: b.Failures}
	return hashJSON(res.Canonical())
}

// adviceDigest covers an advisor answer minus its cache provenance, so a
// cold and a warm query of the same space digest alike.
func adviceDigest(a *opt.Advice) string {
	c := *a
	c.Stats.FreshEvals = 0
	c.Stats.CacheHits = 0
	return hashJSON(&c)
}
