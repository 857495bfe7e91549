// Package workload defines the experiment grids behind every table and
// figure of the paper's evaluation. sweep.Runner executes them; it
// reports infeasible configurations (out of HBM) as OOM points,
// reproducing the memory gating the paper observes on the A100.
package workload

import (
	"overlapsim/internal/core"
	"overlapsim/internal/hw"
	"overlapsim/internal/model"
	"overlapsim/internal/power"
	"overlapsim/internal/precision"
)

// Systems returns the four 4-GPU systems of the main evaluation grid.
func Systems() []hw.System {
	return []hw.System{
		hw.SystemA100x4(),
		hw.SystemH100x4(),
		hw.SystemMI210x4(),
		hw.SystemMI250x4(),
	}
}

// EvalBatches are the global batch sizes swept in the evaluation figures.
func EvalBatches() []int { return []int{8, 16, 32, 64} }

// Figure1a returns the Fig. 1(a) grid: overlap amount versus model size
// under FSDP on the 8×H100 system.
func Figure1a() []core.Config {
	var out []core.Config
	for _, m := range model.Zoo() {
		for _, bs := range []int{8, 16, 32} {
			out = append(out, core.Config{
				System:      hw.SystemH100x8(),
				Model:       m,
				Parallelism: "fsdp",
				Batch:       bs,
				Format:      precision.FP16,
				MatrixUnits: true,
			})
		}
	}
	return out
}

// Figure1b returns the Fig. 1(b) grid: overlap amount versus batch size
// under pipeline parallelism with GPT-3 2.7B on the 4×A100 system.
func Figure1b() []core.Config {
	var out []core.Config
	for _, bs := range EvalBatches() {
		out = append(out, core.Config{
			System:      hw.SystemA100x4(),
			Model:       model.GPT3_2_7B(),
			Parallelism: "pp",
			Batch:       bs,
			Format:      precision.FP16,
			MatrixUnits: true,
		})
	}
	return out
}

// MainGrid returns the grid behind Figures 4, 5 and 6: every system ×
// every Table II model × the batch sweep × both distribution strategies,
// in FP16 with matrix units (the paper's base configuration).
func MainGrid() []core.Config {
	var out []core.Config
	for _, sys := range Systems() {
		for _, m := range model.Zoo() {
			for _, bs := range EvalBatches() {
				for _, par := range []core.Parallelism{"fsdp", "pp"} {
					out = append(out, core.Config{
						System:      sys,
						Model:       m,
						Parallelism: par,
						Batch:       bs,
						Format:      precision.FP16,
						MatrixUnits: true,
					})
				}
			}
		}
	}
	return out
}

// Figure7 returns the Fig. 7 configuration: the MI250 LLaMA-2 13B power
// trace at 1 ms sampling.
func Figure7() core.Config {
	return core.Config{
		System:        hw.SystemMI250x4(),
		Model:         model.LLaMA2_13B(),
		Parallelism:   "fsdp",
		Batch:         8,
		Format:        precision.FP16,
		MatrixUnits:   true,
		TraceInterval: power.TraceInterval,
	}
}

// Figure9Caps are the power caps swept on the 4×A100 system (watts; 0
// means uncapped).
func Figure9Caps() []float64 { return []float64{0, 400, 350, 300, 250, 200, 150, 100} }

// Figure9 returns the Fig. 9 grid: power capping on the 4×A100 system.
func Figure9() []core.Config {
	var out []core.Config
	for _, cap := range Figure9Caps() {
		out = append(out, core.Config{
			System:      hw.SystemA100x4(),
			Model:       model.GPT3_2_7B(),
			Parallelism: "fsdp",
			Batch:       16,
			Format:      precision.FP16,
			MatrixUnits: true,
			Caps:        power.Caps{PowerW: cap},
		})
	}
	return out
}

// PrecisionModels are the workloads used in the precision and Tensor-Core
// ablations (Figures 10 and 11).
func PrecisionModels() []model.Config {
	return []model.Config{model.GPT3XL(), model.GPT3_2_7B(), model.GPT3_6_7B()}
}

// Figure10 returns the Fig. 10 grid: FP32 (general datapath) versus FP16
// (matrix datapath) on the 4×H100 system.
func Figure10() []core.Config {
	var out []core.Config
	for _, m := range PrecisionModels() {
		for _, bs := range []int{8, 16} {
			out = append(out,
				core.Config{System: hw.SystemH100x4(), Model: m, Parallelism: "fsdp",
					Batch: bs, Format: precision.FP32, MatrixUnits: false},
				core.Config{System: hw.SystemH100x4(), Model: m, Parallelism: "fsdp",
					Batch: bs, Format: precision.FP16, MatrixUnits: true},
			)
		}
	}
	return out
}

// Figure11 returns the Fig. 11 grid: FP32 on the general datapath versus
// TF32 on Tensor Cores, on the 4×H100 system.
func Figure11() []core.Config {
	var out []core.Config
	for _, m := range PrecisionModels() {
		for _, bs := range []int{8, 16} {
			out = append(out,
				core.Config{System: hw.SystemH100x4(), Model: m, Parallelism: "fsdp",
					Batch: bs, Format: precision.FP32, MatrixUnits: false},
				core.Config{System: hw.SystemH100x4(), Model: m, Parallelism: "fsdp",
					Batch: bs, Format: precision.FP32, MatrixUnits: true},
			)
		}
	}
	return out
}
