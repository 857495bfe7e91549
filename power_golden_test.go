package overlapsim_bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"testing"

	"overlapsim/internal/core"
	"overlapsim/internal/exec"
	"overlapsim/internal/hw"
	"overlapsim/internal/model"
	"overlapsim/internal/power"
	"overlapsim/internal/precision"
)

// The power golden pins what TestGoldenEngineDigests does not: the DVFS
// fixed point under power caps, jittered rates, and the power telemetry
// the device model integrates. Each config hashes every task's (name,
// start, end) plus every GPU's energy, peak-to-TDP ratio, telemetry
// samples and fine-grained trace, in both execution modes. Regenerate
// deliberately with
//
//	go test -run TestGoldenPowerDigests -update-golden
//
// and justify the diff in the commit message.
const powerGoldenPath = "testdata/power_golden.json"

// powerGoldenConfigs is the grid: every stock strategy on an NVIDIA and
// an AMD node, uncapped and under two power caps, with and without
// jitter, each tracing power at 1 ms.
func powerGoldenConfigs() []core.Config {
	var out []core.Config
	for _, par := range []core.Parallelism{"fsdp", "ddp", "pp", "tp"} {
		for _, sys := range []hw.System{hw.SystemH100x4(), hw.SystemMI250x4()} {
			for _, capW := range []float64{0, 300, 450} {
				for _, sigma := range []float64{0, 0.03} {
					out = append(out, core.Config{
						System:        sys,
						Model:         model.GPT3XL(),
						Parallelism:   par,
						Batch:         8,
						Format:        precision.FP16,
						MatrixUnits:   true,
						Iterations:    1,
						Warmup:        0,
						Caps:          power.Caps{PowerW: capW},
						TraceInterval: power.TraceInterval,
						JitterSigma:   sigma,
						Seed:          1,
					})
				}
			}
		}
	}
	return out
}

func powerGoldenLabel(cfg core.Config) string {
	return fmt.Sprintf("%s sigma=%g", cfg.Label(), cfg.JitterSigma)
}

func hashFloat(h hash.Hash, buf *[8]byte, v float64) {
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	h.Write(buf[:])
}

func hashSamples(h hash.Hash, buf *[8]byte, samples []power.Sample) {
	fmt.Fprintf(h, "n=%d\n", len(samples))
	for _, s := range samples {
		hashFloat(h, buf, s.T)
		hashFloat(h, buf, s.Watts)
	}
}

// powerDigest runs both modes of cfg and hashes the schedule and every
// GPU's power telemetry.
func powerDigest(cfg core.Config) (string, error) {
	h := sha256.New()
	var buf [8]byte
	for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
		fmt.Fprintf(h, "mode=%d\n", int(mode))
		plan, err := core.BuildPlan(cfg, mode)
		if err != nil {
			return "", fmt.Errorf("%s (%v): build: %w", powerGoldenLabel(cfg), mode, err)
		}
		if err := plan.Run(); err != nil {
			return "", fmt.Errorf("%s (%v): run: %w", powerGoldenLabel(cfg), mode, err)
		}
		hashPlan(h, &buf, plan)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashPlan hashes a finished plan's schedule and every GPU's power
// telemetry.
func hashPlan(h hash.Hash, buf *[8]byte, plan *exec.Plan) {
	for _, t := range plan.Engine.Tasks() {
		h.Write([]byte(t.Name()))
		h.Write([]byte{0})
		hashFloat(h, buf, t.Start())
		hashFloat(h, buf, t.End())
	}
	cl := plan.Cluster
	for i := 0; i < cl.N(); i++ {
		st := cl.PowerStats(i)
		fmt.Fprintf(h, "gpu=%d\n", i)
		hashFloat(h, buf, st.EnergyJ)
		hashFloat(h, buf, st.PeakTDP)
		hashSamples(h, buf, cl.Sampler(i).Samples())
		if tr := cl.Trace(i); tr != nil {
			hashSamples(h, buf, tr.Samples())
		}
	}
}

// TestGoldenPowerDigests is the safety net for device-model refactors:
// capped and jittered schedules and their power telemetry must
// reproduce the committed digests exactly.
func TestGoldenPowerDigests(t *testing.T) {
	cfgs := powerGoldenConfigs()
	if raceEnabled && !*updateGolden {
		// A deterministic subset keeps the race run short; the full grid
		// runs without the race detector.
		var sub []core.Config
		for i := 0; i < len(cfgs); i += 7 {
			sub = append(sub, cfgs[i])
		}
		cfgs = sub
	}
	got := make([]goldenEntry, len(cfgs))
	for i, cfg := range cfgs {
		d, err := powerDigest(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = goldenEntry{Label: powerGoldenLabel(cfg), Digest: d}
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(powerGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), powerGoldenPath)
		return
	}

	b, err := os.ReadFile(powerGoldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("parsing %s: %v", powerGoldenPath, err)
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
			t.Errorf("%s: power output changed:\n  got  %s\n  want %s", e.Label, e.Digest, wantDigest)
		}
	}
	if !raceEnabled && len(got) != len(want) {
		t.Errorf("digest count %d != golden count %d", len(got), len(want))
	}
}
