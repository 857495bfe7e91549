// Package core is the characterization harness — the paper's primary
// contribution turned into a library. One Config names a hardware system,
// a workload, a distribution strategy and the ablation knobs (precision,
// matrix units, power caps); Run executes the workload in both the
// overlapped and sequential modes on the simulated cluster, measures
// kernel times, overlap, power and energy exactly as §IV-D prescribes, and
// derives the paper's metrics (Equations 1–5).
//
// Strategies are resolved by name through the strategy registry, so a new
// scheme plugs into Run (and everything downstream: sweeps, the service
// catalog) by registering itself — core needs no edits. The stock set is
// linked via internal/strategy/all.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"overlapsim/internal/exec"
	"overlapsim/internal/gpu"
	"overlapsim/internal/hw"
	"overlapsim/internal/metrics"
	"overlapsim/internal/model"
	"overlapsim/internal/power"
	"overlapsim/internal/precision"
	"overlapsim/internal/sim"
	"overlapsim/internal/strategy"
	_ "overlapsim/internal/strategy/all" // register the stock strategies
)

// Parallelism names a distribution strategy in the registry vocabulary
// ("fsdp", "pp", "ddp", "tp", ...). The empty value selects FSDP, the
// paper's primary strategy. Lookup is case-insensitive and resolves
// aliases ("pipeline" → "pp").
//
// Parallelism used to be a closed int enum over the paper's three
// strategies; it is now an open registry name. The FSDP/Pipeline/DDP
// constants remain as aliases, and the canonical JSON encoding of the
// three legacy names is still their historical enum integer, so
// fingerprints (and content-addressed caches) of pre-redesign configs
// are unchanged.
type Parallelism string

// Legacy strategy names (§II-B).
//
// Deprecated: use the registry name strings directly ("fsdp", "pp",
// "ddp"); these constants remain for source compatibility.
const (
	// FSDP is fully sharded data parallelism (ZeRO-3).
	FSDP Parallelism = "fsdp"
	// Pipeline is pipeline parallelism.
	Pipeline Parallelism = "pp"
	// DDP is classic replicated data parallelism with bucketed gradient
	// all-reduce — the baseline strategy FSDP improves on.
	DDP Parallelism = "ddp"
)

// Canonical resolves the name to the registry's canonical spelling:
// lowercased, aliases resolved, the empty value defaulted to FSDP.
// Unknown names pass through lowercased (they fail at Run/Lookup time
// with the registry's error, not here).
func (p Parallelism) Canonical() Parallelism {
	if p == "" {
		return FSDP
	}
	return Parallelism(strategy.CanonicalName(string(p)))
}

// String returns the strategy's display label ("FSDP", "PP", ...), the
// spelling the paper's tables use.
func (p Parallelism) String() string {
	if s, err := strategy.Lookup(string(p.Canonical())); err == nil {
		return s.Describe().Display
	}
	return string(p)
}

// legacyEnum maps the paper's three strategies onto their historical enum
// values, keeping the canonical JSON encoding — and therefore every
// pre-redesign fingerprint — byte-identical.
var legacyEnum = map[Parallelism]int{FSDP: 0, Pipeline: 1, DDP: 2}

// MarshalJSON encodes the three legacy strategies as their historical
// enum integers and every other strategy as its canonical name.
func (p Parallelism) MarshalJSON() ([]byte, error) {
	c := p.Canonical()
	if v, ok := legacyEnum[c]; ok {
		return json.Marshal(v)
	}
	return json.Marshal(string(c))
}

// UnmarshalJSON accepts both encodings: a legacy enum integer or a
// registry name.
func (p *Parallelism) UnmarshalJSON(b []byte) error {
	var n int
	if err := json.Unmarshal(b, &n); err == nil {
		for name, v := range legacyEnum {
			if v == n {
				*p = name
				return nil
			}
		}
		return fmt.Errorf("core: unknown legacy parallelism enum %d", n)
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("core: parallelism must be a name or legacy enum: %s", b)
	}
	*p = Parallelism(s).Canonical()
	return nil
}

// ParseParallelism resolves a strategy name against the registry,
// returning its canonical spelling. It accepts the conventional
// lowercase names ("fsdp", "pp"/"pipeline", "ddp", "tp"),
// case-insensitively.
func ParseParallelism(name string) (Parallelism, error) {
	s, err := strategy.Lookup(name)
	if err != nil {
		return "", fmt.Errorf("core: %w", err)
	}
	return Parallelism(s.Name()), nil
}

// Parallelisms lists the registered strategies by canonical name.
func Parallelisms() []Parallelism {
	var out []Parallelism
	for _, n := range strategy.Names() {
		out = append(out, Parallelism(n))
	}
	return out
}

// Config describes one characterization experiment.
type Config struct {
	// System is the GPU platform — a single node or a multi-node fabric.
	// Any registered system works here: set it directly, or resolve a
	// registry name (built-in or JSON-loaded) with ResolveSystem.
	System hw.System `json:"System"`
	// Model is the workload (Table II).
	Model model.Config `json:"Model"`
	// Parallelism is the distribution strategy's registry name.
	Parallelism Parallelism `json:"Parallelism"`
	// Batch is the batch size: per-GPU for FSDP, per-pipeline for
	// pipeline parallelism.
	Batch int `json:"Batch"`
	// MicroBatch is the pipeline microbatch size (pipeline only; 0 picks
	// the default).
	MicroBatch int `json:"MicroBatch"`
	// Format is the training precision (the paper's default is FP16).
	Format precision.Format `json:"Format"`
	// MatrixUnits enables Tensor-Core/Matrix-Core GEMM execution; the
	// Fig. 11 ablation toggles this with FP32/TF32.
	MatrixUnits bool `json:"MatrixUnits"`
	// NoCheckpoint disables activation recomputation (on by default, as
	// in the Megatron/DeepSpeed configurations of this model scale).
	NoCheckpoint bool `json:"NoCheckpoint"`
	// GradAccumSteps enables gradient accumulation under FSDP (§II-B
	// mitigation; 0 or 1 disables).
	GradAccumSteps int `json:"GradAccumSteps"`
	// TPDegree is the tensor-parallel group size (tp only; 0 selects the
	// whole node). The field is omitted from the canonical encoding when
	// zero, so configs of strategies that ignore it fingerprint exactly
	// as before the field existed.
	TPDegree int `json:"TPDegree,omitempty"`
	// Iterations is the number of measured iterations (0 means 2).
	Iterations int `json:"Iterations"`
	// Warmup is the number of unmeasured iterations (0 means 1).
	Warmup int `json:"Warmup"`
	// Caps are the power/frequency limits (Fig. 9).
	Caps power.Caps `json:"Caps"`
	// TraceInterval, when nonzero, records per-GPU power traces at this
	// interval (Fig. 7 uses power.TraceInterval).
	TraceInterval float64 `json:"TraceInterval"`
	// JitterSigma adds run-to-run kernel-time variation; Seed seeds it.
	JitterSigma float64 `json:"JitterSigma"`
	Seed        int64   `json:"Seed"`
	// SkipMemoryCheck disables the HBM feasibility gate.
	SkipMemoryCheck bool `json:"SkipMemoryCheck"`
}

// Label returns a compact human-readable description of the experiment.
// The TP degree and operator caps are appended when set, so
// configurations differing only in those knobs stay distinguishable in
// sweep and advisor reports.
func (c Config) Label() string {
	s := fmt.Sprintf("%s %s %s bs=%d %s", c.System.Name, c.Parallelism, c.Model.Name, c.Batch, c.Format)
	if c.TPDegree > 0 {
		s += fmt.Sprintf(" tp=%d", c.TPDegree)
	}
	if c.Caps.PowerW > 0 {
		s += fmt.Sprintf(" cap=%gW", c.Caps.PowerW)
	}
	if c.Caps.FreqFactor > 0 && c.Caps.FreqFactor < 1 {
		s += fmt.Sprintf(" freq=%g", c.Caps.FreqFactor)
	}
	return s
}

// ResolveSystem returns the config with its system replaced by the
// registry entry of the given name — the hardware analogue of resolving
// a strategy name. The four paper systems resolve to values that
// canonicalize byte-identically to the legacy constructors, so switching
// a caller from hw.SystemH100x8() to ResolveSystem("H100x8") preserves
// fingerprints and cache addresses.
func (c Config) ResolveSystem(name string) (Config, error) {
	sys, err := hw.SystemByName(name)
	if err != nil {
		return c, fmt.Errorf("core: %w", err)
	}
	c.System = sys
	return c, nil
}

// params maps the config onto the shared strategy parameter set for the
// given execution mode.
func (c Config) params(mode exec.Mode) strategy.Params {
	return strategy.Params{
		Model:           c.Model,
		Batch:           c.Batch,
		MicroBatch:      c.MicroBatch,
		Format:          c.Format,
		MatrixUnits:     c.MatrixUnits,
		Checkpoint:      !c.NoCheckpoint,
		GradAccumSteps:  c.GradAccumSteps,
		TPDegree:        c.TPDegree,
		Iterations:      c.Iterations,
		Warmup:          c.Warmup,
		Mode:            mode,
		SkipMemoryCheck: c.SkipMemoryCheck,
	}
}

// ModeResult is the measurement of one execution mode.
type ModeResult struct {
	// Mode is the executed mode.
	Mode exec.Mode
	// Mean is the average of the measured iterations.
	Mean metrics.Iteration
	// Iterations are the individual measured iterations.
	Iterations []metrics.Iteration
	// GPUPower is per-GPU power telemetry for the whole run.
	GPUPower []power.Stats
	// AvgTDP and PeakTDP aggregate power across GPUs (mean of averages,
	// max of peaks) normalized to TDP — the Fig. 6 quantities.
	AvgTDP, PeakTDP float64
	// EnergyJ is total energy across GPUs.
	EnergyJ float64
	// Traces holds per-GPU fine-grained power samples when tracing was
	// requested.
	Traces [][]power.Sample
	// OverlapRatio is Eq. 2 measured on this mode's trace.
	OverlapRatio float64
	// Engine is the simulation engine's self-report for this mode's run
	// (epochs, dirty-set rechecks, arena usage). Deterministic per
	// config, so cached results replay it unchanged; results cached
	// before the field existed decode it as zero.
	Engine sim.Stats `json:"engine_stats"`
}

// Result is a full characterization: both modes plus derived metrics.
type Result struct {
	// Config echoes the experiment.
	Config Config
	// Overlapped and Sequential are the two measured modes.
	Overlapped, Sequential ModeResult
	// Char holds the derived Eq. 1–5 metrics.
	Char metrics.Characterization
}

// BuildPlan constructs the simulation plan of one execution mode on a
// fresh cluster without running it, resolving the strategy through the
// registry. Callers that need the raw task graph (differential testing,
// trace tooling) build here and run the plan themselves; RunMode is the
// measuring wrapper.
func BuildPlan(cfg Config, mode exec.Mode) (*exec.Plan, error) {
	return buildPlan(cfg, cfg.params(mode))
}

// BuildFullGraph is BuildPlan with strategy.Params.FullGraph set: the
// plan wires every rank's edges and simulates every rank. It is the
// reference the differential tests hold a collapse to; no Config field
// reaches it, so no fingerprint or cached result depends on it.
func BuildFullGraph(cfg Config, mode exec.Mode) (*exec.Plan, error) {
	p := cfg.params(mode)
	p.FullGraph = true
	return buildPlan(cfg, p)
}

// buildPlan builds the plan of the strategy parameters p on a fresh
// cluster of cfg.
func buildPlan(cfg Config, p strategy.Params) (*exec.Plan, error) {
	mode := p.Mode
	s, err := strategy.Lookup(string(cfg.Parallelism.Canonical()))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cl, err := gpu.New(gpu.Config{
		System:        cfg.System,
		Caps:          cfg.Caps,
		TraceInterval: cfg.TraceInterval,
		JitterSigma:   cfg.JitterSigma,
		Seed:          modeSeed(cfg.Seed, mode),
	})
	if err != nil {
		return nil, err
	}
	return s.Build(cl, p)
}

// RunMode executes the experiment in a single mode on a fresh cluster,
// resolving the strategy through the registry. Cancelling ctx aborts the
// simulation between epochs and returns ctx.Err().
func RunMode(ctx context.Context, cfg Config, mode exec.Mode) (*ModeResult, error) {
	plan, err := BuildPlan(cfg, mode)
	if err != nil {
		return nil, err
	}
	if err := plan.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("core: %s (%v): %w", cfg.Label(), mode, err)
	}

	its, err := plan.MeasuredIterations()
	if err != nil {
		return nil, fmt.Errorf("core: %s (%v): %w", cfg.Label(), mode, err)
	}
	res := &ModeResult{Mode: mode, Iterations: its}
	res.Mean = metrics.Mean(res.Iterations)
	res.OverlapRatio = res.Mean.OverlapRatio()
	res.Engine = plan.EngineStats()
	cl := plan.Cluster
	for i := 0; i < cl.N(); i++ {
		st := cl.PowerStats(i)
		res.GPUPower = append(res.GPUPower, st)
		res.AvgTDP += st.AvgTDP / float64(cl.N())
		if st.PeakTDP > res.PeakTDP {
			res.PeakTDP = st.PeakTDP
		}
		res.EnergyJ += st.EnergyJ
		if tr := cl.Trace(i); tr != nil {
			res.Traces = append(res.Traces, tr.Samples())
		}
	}
	return res, nil
}

// Run executes the experiment in both modes and derives the paper's
// characterization metrics. The two modes simulate concurrently on
// independent clusters (halving wall-clock per characterization); the
// first failure cancels the sibling. Cancelling ctx aborts both
// simulations and returns ctx.Err().
func Run(ctx context.Context, cfg Config) (*Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg             sync.WaitGroup
		ovl, seq       *ModeResult
		ovlErr, seqErr error
	)
	run := func(mode exec.Mode, res **ModeResult, errp *error) {
		defer wg.Done()
		*res, *errp = RunMode(ctx, cfg, mode)
		if *errp != nil {
			cancel() // fail fast: stop the sibling mode
		}
	}
	wg.Add(2)
	go run(exec.Overlapped, &ovl, &ovlErr)
	go run(exec.Sequential, &seq, &seqErr)
	wg.Wait()

	if err := firstError(ovlErr, seqErr); err != nil {
		return nil, err
	}
	return &Result{
		Config:     cfg,
		Overlapped: *ovl,
		Sequential: *seq,
		Char:       metrics.Characterize(seq.Mean, ovl.Mean),
	}, nil
}

// modeSeed derives the jitter seed of one execution mode from the
// config's seed: a splitmix64-style mix keyed by the mode, so the two
// concurrently simulated modes draw from independent deterministic
// streams. Previously both modes seeded identical streams, correlating
// their "run-to-run" variation sample-for-sample — the sequential run
// inherited the overlapped run's perturbations in task-creation order
// instead of being an independent measurement. Runs stay reproducible:
// the same (Seed, mode) always yields the same stream.
func modeSeed(seed int64, mode exec.Mode) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(mode)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e9b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// firstError picks the error to report from the concurrent modes,
// preferring a root cause over the sibling's induced cancellation.
func firstError(errs ...error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}
