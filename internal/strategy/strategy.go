// Package strategy defines the open distribution-strategy API: a Strategy
// turns a shared parameter set into an executable plan on a cluster, and a
// name-keyed registry lets implementations plug in without the harness
// knowing them at compile time (mgpusim-style builder registration).
//
// The paper studies three strategies (FSDP, pipeline, DDP — §II-B), but
// the overlap design space is much wider; the registry is how new
// schemes (tensor parallelism, MoE routing, hybrid shardings, ...) join
// every consumer — core.Run, sweep grids, the overlapd catalog — by
// registering themselves in an init function:
//
//	func init() { strategy.Register(Strategy{}) }
//
// Implementations live in their own packages (internal/fsdp,
// internal/pipeline, internal/ddp, internal/tp); internal/strategy/all
// links the stock set into a binary with one blank import.
package strategy

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"overlapsim/internal/exec"
	"overlapsim/internal/gpu"
	"overlapsim/internal/hw"
	"overlapsim/internal/model"
	"overlapsim/internal/precision"
)

// Params is the single shared parameter set every strategy builds from,
// replacing the former per-strategy Config triplication. A strategy reads
// the knobs it understands and ignores the rest; Describe reports which
// knobs those are so canonicalization can zero the inert ones.
type Params struct {
	// Model is the workload.
	Model model.Config
	// Batch is the global batch size.
	Batch int
	// MicroBatch is the pipeline microbatch size (0 picks the strategy
	// default; only read when Info.MicroBatch).
	MicroBatch int
	// Format is the training numeric format.
	Format precision.Format
	// MatrixUnits enables Tensor-Core/Matrix-Core GEMM execution.
	MatrixUnits bool
	// Checkpoint enables full activation recomputation.
	Checkpoint bool
	// PrefetchDepth bounds communication lookahead in overlapped mode
	// (FSDP parameter gathers; 0 picks the strategy default).
	PrefetchDepth int
	// GradAccumSteps accumulates gradients over this many micro-steps
	// before synchronizing (only read when Info.GradAccum; 0 or 1
	// disables).
	GradAccumSteps int
	// BucketBytes is the gradient-bucket size triggering a DDP all-reduce
	// (0 picks the strategy default).
	BucketBytes float64
	// TPDegree is the tensor-parallel group size (only read when
	// Info.TPDegree; 0 picks the strategy default of the whole node).
	TPDegree int
	// Iterations is the number of measured iterations (0 means 2).
	Iterations int
	// Warmup is the number of unmeasured leading iterations (0 means 1,
	// negative means none).
	Warmup int
	// Mode selects overlapped or sequential execution.
	Mode exec.Mode
	// SkipMemoryCheck disables the HBM-capacity feasibility gate.
	SkipMemoryCheck bool
	// FullGraph builds the plan with every rank's edges and runs every
	// rank, collapsing nothing (exec.Builder.FullGraph): the reference
	// the differential tests hold a collapse to. No core.Config field
	// maps to it, so it reaches no fingerprint or cached result.
	FullGraph bool
}

// WithCommonDefaults resolves the parameter defaults every strategy
// shares — measured/warmup iteration counts and the paper's base batch —
// so implementations (and config canonicalization) cannot silently
// diverge on them. Strategy-specific knobs keep their own defaulting.
func (p Params) WithCommonDefaults() Params {
	if p.Iterations <= 0 {
		p.Iterations = 2
	}
	if p.Warmup == 0 {
		p.Warmup = 1
	}
	if p.Warmup < 0 {
		p.Warmup = 0
	}
	if p.Batch <= 0 {
		p.Batch = 8
	}
	return p
}

// NewBuilder starts a plan of p's execution mode on the cluster
// (exec.NewBuilder), reserving about expectTasks tasks, and makes it a
// FullGraph build when p asks for one.
func (p Params) NewBuilder(cl *gpu.Cluster, expectTasks int) *exec.Builder {
	b := exec.NewBuilder(cl, p.Mode, expectTasks)
	if p.FullGraph {
		b.FullGraph()
	}
	return b
}

// CheckMemory is the HBM-capacity feasibility gate every strategy
// applies to its per-GPU footprint estimate: it returns a model.ErrOOM
// naming "<model> (<label>)" when the estimate exceeds the GPU's memory,
// and nil when it fits or SkipMemoryCheck is set.
func (p Params) CheckMemory(g *hw.GPUSpec, est model.MemoryEstimate, label string) error {
	if p.SkipMemoryCheck || est.Total() <= g.MemBytes() {
		return nil
	}
	return &model.ErrOOM{
		Model:     fmt.Sprintf("%s (%s)", p.Model.Name, label),
		GPU:       g.Name,
		NeedBytes: est.Total(),
		HaveBytes: g.MemBytes(),
	}
}

// Info describes a strategy for catalogs, CLIs and canonicalization.
type Info struct {
	// Name is the registry key: the conventional lowercase spelling
	// ("fsdp", "pp", "ddp", "tp").
	Name string
	// Aliases are additional accepted spellings ("pipeline" for "pp").
	Aliases []string
	// Display is the short uppercase label used in result tables ("FSDP").
	Display string
	// Summary is a one-line description for the catalog.
	Summary string
	// Knobs names the strategy-specific settings reachable through the
	// experiment vocabulary (sweep specs, POST /v1/experiments), e.g.
	// "micro_batch", "tp_degree" — only spellings those surfaces accept.
	Knobs []string
	// MicroBatch reports whether the strategy reads Params.MicroBatch.
	MicroBatch bool
	// GradAccum reports whether the strategy reads Params.GradAccumSteps.
	GradAccum bool
	// TPDegree reports whether the strategy reads Params.TPDegree.
	TPDegree bool
}

// Strategy is one distribution strategy: it names itself, describes its
// knobs, and compiles Params into an executable plan on a cluster.
type Strategy interface {
	// Name returns the canonical registry name (lowercase).
	Name() string
	// Describe returns the strategy's catalog metadata.
	Describe() Info
	// Build constructs the multi-iteration task graph on a fresh engine
	// bound to the cluster.
	Build(cl *gpu.Cluster, p Params) (*exec.Plan, error)
}

// Canonicalizer is implemented by strategies whose knobs have implicit,
// context-dependent defaults (the pipeline microbatch, the TP degree).
// CanonicalParams returns p with those defaults made explicit so that
// equivalent configs fingerprint — and therefore cache — identically;
// gpus is the node size the config targets.
type Canonicalizer interface {
	CanonicalParams(p Params, gpus int) Params
}

var (
	mu      sync.RWMutex
	byName  = make(map[string]Strategy)
	byAlias = make(map[string]string)
	order   []string
)

// Register adds a strategy to the registry under its canonical name and
// aliases. It panics on an empty name or a duplicate registration —
// registration happens in init functions, where a collision is a
// programming error that must fail the build loudly, not a runtime
// condition to handle.
func Register(s Strategy) {
	info := s.Describe()
	name := strings.ToLower(strings.TrimSpace(s.Name()))
	if name == "" {
		//overlaplint:allow nopanic init-time registration: a malformed strategy must fail process start loudly
		panic("strategy: Register with empty name")
	}
	if info.Name != name {
		//overlaplint:allow nopanic init-time registration: a malformed strategy must fail process start loudly
		panic(fmt.Sprintf("strategy: %q describes itself as %q", name, info.Name))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := byName[name]; dup {
		//overlaplint:allow nopanic init-time registration: a name collision must fail process start loudly
		panic(fmt.Sprintf("strategy: duplicate registration of %q", name))
	}
	if owner, dup := byAlias[name]; dup {
		//overlaplint:allow nopanic init-time registration: a name collision must fail process start loudly
		panic(fmt.Sprintf("strategy: name %q already aliased to %q", name, owner))
	}
	byName[name] = s
	order = append(order, name)
	for _, a := range info.Aliases {
		a = strings.ToLower(strings.TrimSpace(a))
		if a == "" || a == name {
			continue
		}
		if _, dup := byName[a]; dup {
			//overlaplint:allow nopanic init-time registration: an alias collision must fail process start loudly
			panic(fmt.Sprintf("strategy: alias %q of %q collides with a registered strategy", a, name))
		}
		if owner, dup := byAlias[a]; dup {
			//overlaplint:allow nopanic init-time registration: an alias collision must fail process start loudly
			panic(fmt.Sprintf("strategy: alias %q of %q already claimed by %q", a, name, owner))
		}
		byAlias[a] = name
	}
}

// Lookup resolves a strategy by name or alias, case-insensitively. The
// error lists the registered names so callers can surface actionable
// messages.
func Lookup(name string) (Strategy, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	mu.RLock()
	defer mu.RUnlock()
	if canonical, ok := byAlias[key]; ok {
		key = canonical
	}
	if s, ok := byName[key]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("strategy: unknown strategy %q (have %s)", name, strings.Join(namesLocked(), ", "))
}

// CanonicalName resolves a name or alias to the registry's canonical
// spelling; unknown names are returned lowercased unchanged.
func CanonicalName(name string) string {
	key := strings.ToLower(strings.TrimSpace(name))
	mu.RLock()
	defer mu.RUnlock()
	if canonical, ok := byAlias[key]; ok {
		return canonical
	}
	return key
}

// Names returns the registered canonical names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := append([]string(nil), order...)
	sort.Strings(out)
	return out
}

// All returns every registered strategy in sorted-name order.
func All() []Strategy {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Strategy, 0, len(byName))
	for _, n := range namesLocked() {
		out = append(out, byName[n])
	}
	return out
}
