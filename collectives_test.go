package overlapsim_bench

import (
	"testing"

	"overlapsim/internal/collective"
	"overlapsim/internal/core"
	"overlapsim/internal/exec"
	"overlapsim/internal/hw"
	"overlapsim/internal/model"
	"overlapsim/internal/precision"
)

// TestCollectivesValidate is the oracle for every collective a builder
// emits: each registered strategy, on one node, on two nodes and with
// tensor-parallel degree 2 (several data-parallel groups), in both
// modes, must only produce communication payloads that pass
// collective.Desc.Validate.
func TestCollectivesValidate(t *testing.T) {
	shapes := []struct {
		sys      hw.System
		tpDegree int
	}{
		{hw.NewSystem(hw.H100(), 8), 0},
		{hw.NewMultiNode(hw.H100(), 4, 2), 0},
		{hw.NewSystem(hw.H100(), 8), 2},
	}
	for _, sh := range shapes {
		for _, par := range core.Parallelisms() {
			cfg := core.Config{
				System:      sh.sys,
				Model:       model.GPT3XL(),
				Parallelism: par,
				Batch:       8,
				Format:      precision.FP16,
				MatrixUnits: true,
				TPDegree:    sh.tpDegree,
			}
			for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
				plan, err := core.BuildPlan(cfg, mode)
				if err != nil {
					t.Fatalf("%s (%v): %v", cfg.Label(), mode, err)
				}
				n := 0
				for _, task := range plan.Engine.Tasks() {
					cd, ok := task.Payload().(collective.Desc)
					if !ok {
						continue
					}
					n++
					if err := cd.Validate(); err != nil {
						t.Errorf("%s (%v): %v", cfg.Label(), mode, err)
					}
				}
				if n == 0 {
					t.Errorf("%s (%v): no collectives", cfg.Label(), mode)
				}
			}
		}
	}
}
