package overlapsim_bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"overlapsim/internal/core"
	"overlapsim/internal/exec"
	"overlapsim/internal/hw"
	"overlapsim/internal/model"
	"overlapsim/internal/precision"
	"overlapsim/internal/workload"
)

// The golden differential test pins the engine's numerical output: it
// hashes every task's (name, start, end) across the paper's main grid,
// the builder paths that grid misses (goldenPaths) and a 4-node × 8-GPU
// FSDP run, and compares the digests against
// testdata/engine_golden.json. Any scheduling or floating-point change —
// however small — flips a digest, so engine refactors must reproduce the
// committed digests bit for bit. Regenerate deliberately with
//
//	go test -run TestGoldenEngineDigests -update-golden
//
// and justify the diff in the commit message.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/engine_golden.json from the current engine")

const goldenPath = "testdata/engine_golden.json"

// goldenEntry is one config's digest in the golden file.
type goldenEntry struct {
	Label  string `json:"label"`
	Digest string `json:"digest"`
}

// goldenMultiNode is the multi-node configuration hashed alongside the
// main grid: the BenchmarkMultiNodeFSDP shape, one measured iteration.
func goldenMultiNode() core.Config {
	return core.Config{
		System:      hw.NewMultiNode(hw.H100(), 8, 4),
		Model:       model.GPT3_13B(),
		Parallelism: "fsdp",
		Batch:       64,
		Format:      precision.FP16,
		MatrixUnits: true,
		Iterations:  1,
		Warmup:      0,
	}
}

// goldenPaths covers the builder paths the paper grid does not reach:
// FSDP gradient accumulation, DDP and TP on one and two nodes (TP with
// several data-parallel groups, so the cross-group all-reduce runs), and
// the single-sample pipeline microbatch.
func goldenPaths() []core.Config {
	base := func(sys hw.System, par core.Parallelism) core.Config {
		return core.Config{
			System:      sys,
			Model:       model.GPT3XL(),
			Parallelism: par,
			Batch:       8,
			Format:      precision.FP16,
			MatrixUnits: true,
		}
	}
	h100x8 := hw.NewSystem(hw.H100(), 8)
	h100x4x2 := hw.NewMultiNode(hw.H100(), 4, 2)
	accum := base(h100x8, "fsdp")
	accum.Batch = 16
	accum.GradAccumSteps = 2
	tp2 := base(h100x8, "tp")
	tp2.TPDegree = 2
	mb1 := base(hw.SystemMI250x4(), "pp")
	mb1.MicroBatch = 1
	return []core.Config{accum, base(h100x4x2, "ddp"), tp2, base(h100x4x2, "tp"), mb1}
}

func goldenConfigs() []core.Config {
	return append(append(workload.MainGrid(), goldenPaths()...), goldenMultiNode())
}

// goldenLabel keys a config in the golden file: its Label plus the
// knobs Label omits, so the added paths do not collide with grid points.
func goldenLabel(cfg core.Config) string {
	s := cfg.Label()
	if cfg.GradAccumSteps > 1 {
		s += fmt.Sprintf(" accum=%d", cfg.GradAccumSteps)
	}
	if cfg.MicroBatch > 0 {
		s += fmt.Sprintf(" mb=%d", cfg.MicroBatch)
	}
	return s
}

// digestConfig runs both execution modes of one config and hashes every
// task's (name, start, end) in creation order. Infeasible configs hash a
// fixed "oom" marker so grid shape changes are still caught; any other
// build or run error fails the caller.
func digestConfig(cfg core.Config) (string, error) {
	h := sha256.New()
	var buf [8]byte
	for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
		fmt.Fprintf(h, "mode=%d\n", int(mode))
		plan, err := core.BuildPlan(cfg, mode)
		if err != nil {
			var oom *model.ErrOOM
			if errors.As(err, &oom) {
				fmt.Fprintf(h, "oom\n")
				continue
			}
			return "", fmt.Errorf("%s (%v): build: %w", cfg.Label(), mode, err)
		}
		if err := plan.Run(); err != nil {
			return "", fmt.Errorf("%s (%v): run: %w", cfg.Label(), mode, err)
		}
		for _, t := range plan.Engine.Tasks() {
			h.Write([]byte(t.Name()))
			h.Write([]byte{0})
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(t.Start()))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(t.End()))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// digestConfigs runs the configs on a worker pool (each point is an
// independent simulation, so parallelism cannot affect the digests).
func digestConfigs(t *testing.T, cfgs []core.Config) []goldenEntry {
	t.Helper()
	entries := make([]goldenEntry, len(cfgs))
	errs := make([]error, len(cfgs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				d, err := digestConfig(cfgs[i])
				entries[i] = goldenEntry{Label: goldenLabel(cfgs[i]), Digest: d}
				errs[i] = err
			}
		}()
	}
	for i := range cfgs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return entries
}

// TestGoldenEngineDigests is the safety net for engine refactors: the
// simulated schedules of the whole characterization grid must reproduce
// the committed digests exactly.
func TestGoldenEngineDigests(t *testing.T) {
	cfgs := goldenConfigs()
	if raceEnabled && !*updateGolden {
		// Under the race detector the full grid is ~10× slower and adds no
		// coverage beyond the non-race run; keep a deterministic subset
		// plus the multi-node config as a smoke check.
		var sub []core.Config
		for i := 0; i < len(cfgs); i += 16 {
			sub = append(sub, cfgs[i])
		}
		if last := cfgs[len(cfgs)-1]; len(sub) == 0 || goldenLabel(sub[len(sub)-1]) != goldenLabel(last) {
			sub = append(sub, last)
		}
		cfgs = sub
	}
	got := digestConfigs(t, cfgs)

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}

	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	byLabel := make(map[string]string, len(want))
	for _, e := range want {
		byLabel[e.Label] = e.Digest
	}
	for _, e := range got {
		wantDigest, ok := byLabel[e.Label]
		if !ok {
			t.Errorf("%s: no golden digest (grid changed? regenerate with -update-golden)", e.Label)
			continue
		}
		if e.Digest != wantDigest {
			t.Errorf("%s: engine output changed:\n  got  %s\n  want %s", e.Label, e.Digest, wantDigest)
		}
	}
	if !raceEnabled && len(got) != len(want) {
		t.Errorf("digest count %d != golden count %d", len(got), len(want))
	}
}

// TestGoldenRunTwiceIdentical runs the multi-node config twice and
// demands identical digests — determinism of a single engine build,
// independent of the committed golden file.
func TestGoldenRunTwiceIdentical(t *testing.T) {
	cfg := goldenMultiNode()
	a, err := digestConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := digestConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two runs of the same config diverged: %s vs %s", a, b)
	}
}
