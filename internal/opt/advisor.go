package opt

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"overlapsim/internal/core"
	"overlapsim/internal/report"
	"overlapsim/internal/sweep"
)

// DefaultSeedEvals is the default coarse-grid budget (and the initial
// per-round refinement budget).
const DefaultSeedEvals = 16

// Query is one advisor question: a search space (a plain sweep spec),
// the objectives to trade off, constraints on admissible
// configurations, and the evaluation budget.
type Query struct {
	// Name labels the query in reports and job listings.
	Name string `json:"name,omitempty"`
	// Spec declares the search space — exactly the axes a sweep would
	// grid over.
	Spec sweep.Spec `json:"spec"`
	// Objectives are registered objective names (default: iteration
	// time, energy per iteration, average board power).
	Objectives []string `json:"objectives,omitempty"`
	// Minimize names the objective the single recommendation minimizes
	// (default: the first objective). It must be listed in Objectives.
	Minimize string `json:"minimize,omitempty"`
	// Constraints bound the admissible configurations.
	Constraints Constraints `json:"constraints,omitempty"`
	// SeedEvals is the coarse-grid budget (default DefaultSeedEvals,
	// clamped to the space size).
	SeedEvals int `json:"seed_evals,omitempty"`
	// MaxEvals bounds how many candidates the search may evaluate in
	// total (default: the whole space — the budget then only shapes
	// evaluation order).
	MaxEvals int `json:"max_evals,omitempty"`
}

// ParseQuery decodes a JSON advisor query, rejecting unknown fields so
// typos fail loudly.
func ParseQuery(r io.Reader) (*Query, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var q Query
	if err := dec.Decode(&q); err != nil {
		return nil, fmt.Errorf("opt: parsing query: %w", err)
	}
	return &q, nil
}

// resolve returns the query's objectives and the index of the
// recommendation objective.
func (q *Query) resolve() ([]Objective, int, error) {
	names := q.Objectives
	if len(names) == 0 {
		names = DefaultObjectives()
	}
	objs := make([]Objective, len(names))
	for i, name := range names {
		o, err := Lookup(name)
		if err != nil {
			return nil, 0, err
		}
		for j := 0; j < i; j++ {
			if objs[j].Name == name {
				return nil, 0, fmt.Errorf("opt: duplicate objective %q", name)
			}
		}
		objs[i] = o
	}
	minIdx := 0
	if q.Minimize != "" {
		minIdx = -1
		for i, o := range objs {
			if o.Name == q.Minimize {
				minIdx = i
			}
		}
		if minIdx < 0 {
			return nil, 0, fmt.Errorf("opt: minimize objective %q is not among the query objectives %v", q.Minimize, names)
		}
	}
	if q.SeedEvals < 0 || q.MaxEvals < 0 {
		return nil, 0, fmt.Errorf("opt: negative evaluation budget")
	}
	return objs, minIdx, nil
}

// Space materializes the query's candidate space, resolving the
// objectives and every registry name on the way — the expensive half of
// validation, reusable by the search itself.
func (q *Query) Space() (*Space, error) {
	if _, _, err := q.resolve(); err != nil {
		return nil, err
	}
	return NewSpace(&q.Spec, q.Constraints.MaxGPUs)
}

// Validate resolves the query — objectives, budgets, and the search
// space axes/registry names — without running anything, and returns the
// number of unique candidate configurations. CLIs and CI validate
// example queries this way; the service rejects bad queries before
// creating a job.
func (q *Query) Validate() (int, error) {
	space, err := q.Space()
	if err != nil {
		return 0, err
	}
	return len(space.Cands), nil
}

// Stats describes how the search went.
type Stats struct {
	// SpaceSize is the unique candidate count; GridPoints the cartesian
	// size before deduplication.
	SpaceSize  int `json:"space_size"`
	GridPoints int `json:"grid_points"`
	// PrunedGPUs counts candidates excluded by the MaxGPUs constraint.
	PrunedGPUs int `json:"pruned_max_gpus,omitempty"`
	// Evaluated counts candidates submitted to the runner; FreshEvals
	// of those missed every cache (simulated now), CacheHits were free.
	Evaluated  int `json:"evaluated"`
	FreshEvals int `json:"fresh_evals"`
	CacheHits  int `json:"cache_hits"`
	// Coalesced counts evaluations coalesced onto an identical
	// in-flight simulation by a runner singleflight (a concurrent sweep
	// or advisor job computing the same fingerprint). Excluded from the
	// advice JSON like Elapsed: it depends on what else the process was
	// doing, not on the query.
	Coalesced int `json:"-"`
	// Rounds counts refinement rounds after the seed grid.
	Rounds int `json:"rounds"`
	// Infeasible counts evaluated points that violated a constraint;
	// OOMs and Failures points that did not produce a characterization.
	Infeasible int `json:"infeasible"`
	OOMs       int `json:"ooms"`
	Failures   int `json:"failures"`
	// Elapsed is wall-clock search time. It is deliberately excluded
	// from JSON so equal queries produce byte-identical advice.
	Elapsed time.Duration `json:"-"`
}

// Advice is the advisor's answer.
type Advice struct {
	// Name echoes the query name.
	Name string `json:"name,omitempty"`
	// Frontier is the Pareto frontier over feasible evaluated points.
	Frontier Frontier `json:"frontier"`
	// Recommended is the feasible frontier point minimizing the
	// query's Minimize objective (nil when nothing was feasible).
	Recommended *FrontierPoint `json:"recommended,omitempty"`
	// Note explains an empty or degenerate outcome.
	Note string `json:"note,omitempty"`
	// Stats describes the search.
	Stats Stats `json:"stats"`
}

// Advisor runs queries on a sweep runner. The runner's cache is the
// whole scaling story: hot or overlapping queries re-evaluate nothing.
type Advisor struct {
	// Runner executes candidate batches (its Workers bound per-batch
	// concurrency; its Cache memoizes across queries). A nil Runner
	// uses a default runner with an in-memory cache.
	Runner *sweep.Runner
}

// eval is one evaluated candidate.
type eval struct {
	cand     *Candidate
	pt       sweep.Point
	vec      []float64
	feasible bool
}

// Run executes the query: seed the coarse grid, refine around the
// incumbent frontier with successive halving, and report the Pareto
// frontier plus a recommendation. The search is deterministic — same
// query, same advice bytes — and fail-soft like sweeps: points that
// OOM or error are recorded in Stats and excluded from the frontier.
// The returned error is non-nil only for invalid queries or context
// cancellation.
func (a *Advisor) Run(ctx context.Context, q *Query) (*Advice, error) {
	space, err := q.Space()
	if err != nil {
		return nil, err
	}
	return a.RunSpace(ctx, q, space)
}

// RunSpace is Run over an already-materialized candidate space (from
// q.Space()), so callers that validated the query up front — like the
// service's submit handler — do not fingerprint the whole grid twice.
func (a *Advisor) RunSpace(ctx context.Context, q *Query, space *Space) (*Advice, error) {
	//overlaplint:allow simdeterminism Stats.Elapsed is wall-clock diagnostics only, excluded from Advice determinism and fingerprints
	start := time.Now()
	objs, minIdx, err := q.resolve()
	if err != nil {
		return nil, err
	}
	runner := a.Runner
	if runner == nil {
		runner = &sweep.Runner{Cache: sweep.NewMemCache()}
	}

	n := len(space.Cands)
	seedN := q.SeedEvals
	if seedN == 0 {
		seedN = DefaultSeedEvals
	}
	if seedN > n {
		seedN = n
	}
	maxEvals := q.MaxEvals
	if maxEvals == 0 || maxEvals > n {
		maxEvals = n
	}
	if maxEvals < seedN {
		seedN = maxEvals
	}

	st := &searchState{
		space:  space,
		runner: runner,
		objs:   objs,
		cons:   q.Constraints,
		evals:  make(map[int]*eval),
	}
	st.stats.SpaceSize = n
	st.stats.GridPoints = space.GridPoints
	st.stats.PrunedGPUs = space.PrunedGPUs

	// Round 0: the coarse seeded grid.
	if err := st.evalBatch(ctx, space.coarseGrid(seedN)); err != nil {
		return nil, err
	}

	// Refinement: evaluate unexplored axis neighbors of the incumbent
	// frontier. The per-round admission budget starts at the seed
	// budget, halves after every round that fails to improve the
	// frontier (successive halving), and resets when one does. The
	// neighborhood radius widens the same way — doubling on stagnation,
	// snapping back to one on improvement — so frontiers separated from
	// the incumbent by exact-tie plateaus or shallow dominated valleys
	// are still reached. The search stops when the budget is exhausted,
	// the widest neighborhood holds nothing new, or MaxEvals is hit.
	//
	// While the frontier is still empty (every evaluation so far
	// failed, OOMed or violated a constraint) there is nothing to halve
	// around: expansion anchors on everything evaluated and the budget
	// does not decay, so a "no feasible configuration" verdict is
	// backed by exhausting the space or MaxEvals, never by a fast
	// halving schedule that quit next to an unexplored feasible region.
	budget := seedN
	radius := 1
	maxRadius := space.maxDim()
	front := st.frontIDs()
	for budget >= 1 && st.stats.Evaluated < maxEvals {
		anchors := front
		if len(anchors) == 0 {
			anchors = st.order
		}
		nbrs := st.unexploredNeighbors(anchors, radius)
		if len(nbrs) == 0 {
			if radius >= maxRadius {
				break
			}
			radius *= 2 // widen without spending budget
			continue
		}
		if take := maxEvals - st.stats.Evaluated; len(nbrs) > take {
			nbrs = nbrs[:take]
		}
		if len(nbrs) > budget {
			nbrs = nbrs[:budget]
		}
		if err := st.evalBatch(ctx, nbrs); err != nil {
			return nil, err
		}
		st.stats.Rounds++
		next := st.frontIDs()
		switch {
		case len(next) == 0:
			// Still probing for a first feasible point; keep the budget.
		case equalIDs(front, next):
			budget /= 2
			radius *= 2
		default:
			budget = seedN
			radius = 1
		}
		front = next
	}

	adv := st.advice(q, objs, minIdx, front)
	//overlaplint:allow simdeterminism Stats.Elapsed is wall-clock diagnostics only, excluded from Advice determinism and fingerprints
	adv.Stats.Elapsed = time.Since(start)
	noteQuery(adv.Stats)
	return adv, nil
}

// searchState accumulates evaluations over rounds.
type searchState struct {
	space  *Space
	runner *sweep.Runner
	objs   []Objective
	cons   Constraints
	evals  map[int]*eval
	order  []int // evaluated candidate IDs in evaluation order
	stats  Stats
}

// evalBatch runs the (unevaluated, deduplicated) candidate IDs through
// the sweep runner and records objective vectors and feasibility.
func (st *searchState) evalBatch(ctx context.Context, ids []int) error {
	fresh := ids[:0:0]
	for _, id := range ids {
		if _, done := st.evals[id]; !done {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	cfgs := make([]core.Config, len(fresh))
	for i, id := range fresh {
		cfgs[i] = st.space.Cands[id].Config
	}
	res, err := st.runner.Run(ctx, cfgs)
	if err != nil {
		return err
	}
	st.stats.Evaluated += len(fresh)
	st.stats.FreshEvals += res.CacheMisses
	st.stats.CacheHits += res.CacheHits
	st.stats.Coalesced += res.Coalesced
	st.stats.OOMs += res.OOMs
	st.stats.Failures += res.Failures
	for i, id := range fresh {
		pt := res.Points[i]
		ev := &eval{cand: &st.space.Cands[id], pt: pt}
		if pt.Res != nil {
			ev.vec = make([]float64, len(st.objs))
			usable := true
			for j, o := range st.objs {
				v, ok := o.Extract(&pt)
				if !ok {
					usable = false
					break
				}
				ev.vec[j] = v
			}
			if usable {
				ev.feasible = st.cons.feasible(&pt)
				if !ev.feasible {
					st.stats.Infeasible++
				}
			} else {
				ev.vec = nil
				st.stats.Failures++
			}
		}
		st.evals[id] = ev
		st.order = append(st.order, id)
	}
	return nil
}

// frontIDs returns the candidate IDs of the incumbent Pareto frontier
// over the feasible evaluations, in Front's deterministic order.
func (st *searchState) frontIDs() []int {
	var ids []int
	var vecs [][]float64
	var keys []string
	for _, id := range st.order {
		if ev := st.evals[id]; ev.feasible {
			ids = append(ids, id)
			vecs = append(vecs, ev.vec)
			keys = append(keys, ev.cand.Key)
		}
	}
	// Evaluation order varies with cache state, but Front sorts by
	// (vector, key), so the frontier does not.
	idx := Front(vecs, keys)
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = ids[j]
	}
	return out
}

// unexploredNeighbors returns the unevaluated axis neighbors (within
// radius) of the anchor candidates, deduplicated, in ascending
// candidate-ID order.
func (st *searchState) unexploredNeighbors(anchors []int, radius int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, id := range anchors {
		st.space.neighbors(&st.space.Cands[id], radius, func(nb int) {
			if _, done := st.evals[nb]; !done && !seen[nb] {
				seen[nb] = true
				out = append(out, nb)
			}
		})
	}
	sort.Ints(out)
	return out
}

// firstFailure returns the failure (or OOM) of the lowest-ID evaluated
// candidate, for diagnosing empty frontiers. Candidate IDs make the
// pick deterministic regardless of worker completion order.
func (st *searchState) firstFailure() string {
	ids := make([]int, 0, len(st.evals))
	for id := range st.evals {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ev := st.evals[id]
		switch {
		case ev.pt.OOM != nil:
			return fmt.Sprintf("%s: %v", ev.cand.Config.Label(), ev.pt.OOM)
		case ev.pt.Err != nil:
			return fmt.Sprintf("%s: %v", ev.cand.Config.Label(), ev.pt.Err)
		case ev.pt.ErrString != "":
			return fmt.Sprintf("%s: %s", ev.cand.Config.Label(), ev.pt.ErrString)
		}
	}
	return ""
}

// equalIDs reports whether two frontier ID lists are identical.
func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// advice assembles the final report.
func (st *searchState) advice(q *Query, objs []Objective, minIdx int, front []int) *Advice {
	adv := &Advice{Name: q.Name, Stats: st.stats}
	adv.Frontier.Objectives = make([]ObjectiveInfo, len(objs))
	for i, o := range objs {
		adv.Frontier.Objectives[i] = ObjectiveInfo{Name: o.Name, Unit: o.Unit}
	}
	for _, id := range front {
		ev := st.evals[id]
		row := report.Row(&ev.pt)
		// Normalize cache provenance out of the advice bytes.
		if row.Status == "hit" {
			row.Status = "ok"
		}
		adv.Frontier.Points = append(adv.Frontier.Points, FrontierPoint{
			Key:        ev.cand.Key,
			Label:      ev.cand.Config.Label(),
			Experiment: ev.cand.Exp,
			Values:     append([]float64(nil), ev.vec...),
			Row:        row,
		})
	}
	if len(adv.Frontier.Points) == 0 {
		adv.Note = "no feasible configuration: every evaluated point failed, OOMed or violated a constraint"
		if example := st.firstFailure(); example != "" {
			adv.Note += "; e.g. " + example
		}
		return adv
	}
	// The recommendation minimizes the chosen objective over the
	// (feasible, by construction) frontier; ties resolve by the full
	// vector, then fingerprint — the frontier's own order.
	rec := 0
	for i := 1; i < len(adv.Frontier.Points); i++ {
		if adv.Frontier.Points[i].Values[minIdx] < adv.Frontier.Points[rec].Values[minIdx] {
			rec = i
		}
	}
	adv.Recommended = &adv.Frontier.Points[rec]
	return adv
}

// RecommendedIndex returns the index of the recommended point within
// the frontier, or -1.
func (a *Advice) RecommendedIndex() int {
	if a.Recommended == nil {
		return -1
	}
	for i := range a.Frontier.Points {
		if a.Frontier.Points[i].Key == a.Recommended.Key {
			return i
		}
	}
	return -1
}
