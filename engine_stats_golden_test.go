package overlapsim_bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"

	"overlapsim/internal/core"
	"overlapsim/internal/exec"
	"overlapsim/internal/model"
	"overlapsim/internal/sim"
)

// The engine-stats golden pins what the schedule digests cannot see: the
// engine's own accounting of a run — task and stream counts, epochs,
// admission rechecks, slab arena bytes and slabs, reserved capacity,
// collapsed classes and ghost tasks. A refactor that keeps every
// schedule bit-identical but builds different tasks, arenas or streams,
// or collapses differently, flips an entry here. Arena bytes depend on
// pointer size, so the file holds 64-bit figures. Regenerate
// deliberately with
//
//	go test -run TestGoldenEngineStats -update-golden
//
// and justify the diff in the commit message.
const statsGoldenPath = "testdata/engine_stats_golden.json"

// statsEntry is one config's engine stats in both modes; a nil mode did
// not fit in device memory.
type statsEntry struct {
	Label      string     `json:"label"`
	Overlapped *sim.Stats `json:"overlapped"`
	Sequential *sim.Stats `json:"sequential"`
}

// engineStats builds and runs both modes of cfg and returns their
// engine stats.
func engineStats(cfg core.Config) (statsEntry, error) {
	e := statsEntry{Label: goldenLabel(cfg)}
	for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
		plan, err := core.BuildPlan(cfg, mode)
		if err != nil {
			var oom *model.ErrOOM
			if errors.As(err, &oom) {
				continue
			}
			return e, fmt.Errorf("%s (%v): build: %w", e.Label, mode, err)
		}
		if err := plan.Run(); err != nil {
			return e, fmt.Errorf("%s (%v): run: %w", e.Label, mode, err)
		}
		st := plan.EngineStats()
		if mode == exec.Overlapped {
			e.Overlapped = &st
		} else {
			e.Sequential = &st
		}
	}
	return e, nil
}

func statsJSON(st *sim.Stats) string {
	b, err := json.Marshal(st)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// TestGoldenEngineStats requires the engine stats of both modes of every
// golden config to match the committed file exactly.
func TestGoldenEngineStats(t *testing.T) {
	if strconv.IntSize != 64 && !*updateGolden {
		t.Skip("arena byte counts are pinned for 64-bit pointers")
	}
	cfgs := goldenConfigs()
	if raceEnabled && !*updateGolden {
		var sub []core.Config
		for i := 0; i < len(cfgs); i += 16 {
			sub = append(sub, cfgs[i])
		}
		cfgs = append(sub, cfgs[len(cfgs)-1])
	}
	got := make([]statsEntry, len(cfgs))
	for i, cfg := range cfgs {
		e, err := engineStats(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = e
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statsGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), statsGoldenPath)
		return
	}

	b, err := os.ReadFile(statsGoldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	var want []statsEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("parsing %s: %v", statsGoldenPath, err)
	}
	byLabel := make(map[string]statsEntry, len(want))
	for _, e := range want {
		byLabel[e.Label] = e
	}
	for _, e := range got {
		w, ok := byLabel[e.Label]
		if !ok {
			t.Errorf("%s: no golden stats (grid changed? regenerate with -update-golden)", e.Label)
			continue
		}
		for _, m := range []struct {
			mode      string
			got, want *sim.Stats
		}{{"overlapped", e.Overlapped, w.Overlapped}, {"sequential", e.Sequential, w.Sequential}} {
			if g, w := statsJSON(m.got), statsJSON(m.want); g != w {
				t.Errorf("%s (%s): engine stats changed:\n  got  %s\n  want %s", e.Label, m.mode, g, w)
			}
		}
	}
	if !raceEnabled && len(got) != len(want) {
		t.Errorf("entry count %d != golden count %d", len(got), len(want))
	}
}
