// Package overlapsim_bench regenerates every table and figure of the
// paper's evaluation section as Go benchmarks: one benchmark per artifact.
// Each benchmark runs the corresponding simulation grid and reports the
// headline quantity as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The shapes to compare against the paper
// are asserted as the paper's takeaways in internal/core/takeaways_test.go.
package overlapsim_bench

import (
	"context"
	"fmt"
	"testing"

	"overlapsim/internal/core"
	"overlapsim/internal/exec"
	"overlapsim/internal/hw"
	"overlapsim/internal/metrics"
	"overlapsim/internal/microbench"
	"overlapsim/internal/model"
	"overlapsim/internal/power"
	"overlapsim/internal/precision"
	"overlapsim/internal/sweep"
	"overlapsim/internal/workload"
)

// BenchmarkTable1GPUs walks the Table I catalog (trivially cheap; included
// so every artifact has a bench target).
func BenchmarkTable1GPUs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, g := range hw.Catalog() {
			if g.TDPW <= 0 {
				b.Fatal("bad catalog entry")
			}
		}
	}
	b.ReportMetric(float64(len(hw.Catalog())), "gpus")
}

// BenchmarkTable2Workloads validates the Table II model zoo accounting.
func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range model.Zoo() {
			if m.TotalParams() <= 0 {
				b.Fatal("bad model")
			}
		}
	}
	b.ReportMetric(float64(len(model.Zoo())), "models")
}

// runPoints executes a grid once per benchmark iteration and reports
// slowdown aggregates.
func runPoints(b *testing.B, cfgs []core.Config) []sweep.Point {
	b.Helper()
	var res *sweep.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = (&sweep.Runner{}).Run(context.Background(), cfgs); err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Err(); err != nil {
		b.Fatal(err)
	}
	return res.Points
}

func reportSlowdowns(b *testing.B, pts []sweep.Point) {
	b.Helper()
	var slows, ratios []float64
	for _, p := range pts {
		if p.Res == nil {
			continue
		}
		slows = append(slows, p.Res.Char.ComputeSlowdown)
		ratios = append(ratios, p.Res.Char.OverlapRatio)
	}
	s := metrics.Summarize(slows)
	r := metrics.Summarize(ratios)
	b.ReportMetric(s.Mean*100, "slowdown_mean_%")
	b.ReportMetric(s.Max*100, "slowdown_max_%")
	b.ReportMetric(r.Max*100, "overlap_max_%")
}

// BenchmarkFigure1aOverlapFSDP regenerates Fig. 1(a): overlapped
// computation versus model size, FSDP on H100x8.
func BenchmarkFigure1aOverlapFSDP(b *testing.B) {
	pts := runPoints(b, workload.Figure1a())
	reportSlowdowns(b, pts)
}

// BenchmarkFigure1bOverlapPipeline regenerates Fig. 1(b): overlapped
// computation versus batch size, pipeline parallelism on A100x4.
func BenchmarkFigure1bOverlapPipeline(b *testing.B) {
	pts := runPoints(b, workload.Figure1b())
	var amounts []float64
	for _, p := range pts {
		if p.Res != nil {
			amounts = append(amounts, p.Res.Overlapped.Mean.OverlappedComputeTime*1e3)
		}
	}
	if len(amounts) > 1 && amounts[len(amounts)-1] <= amounts[0] {
		b.Errorf("overlapped computation must grow with batch: %v", amounts)
	}
	b.ReportMetric(amounts[len(amounts)-1], "overlapped_ms_bs64")
}

// BenchmarkFigure4Slowdowns regenerates Fig. 4: compute slowdowns across
// every system, model, batch and strategy.
func BenchmarkFigure4Slowdowns(b *testing.B) {
	pts := runPoints(b, workload.MainGrid())
	reportSlowdowns(b, pts)
}

// BenchmarkFigure5EndToEnd regenerates Fig. 5: the ideal / overlapped /
// sequential end-to-end latencies, reporting how much sequential trails
// overlapped execution.
func BenchmarkFigure5EndToEnd(b *testing.B) {
	pts := runPoints(b, workload.MainGrid())
	var pen, gap []float64
	for _, p := range pts {
		if p.Res == nil {
			continue
		}
		pen = append(pen, p.Res.Char.SeqPenalty)
		gap = append(gap, p.Res.Char.IdealGap)
	}
	b.ReportMetric(metrics.Summarize(pen).Mean*100, "seq_penalty_mean_%")
	b.ReportMetric(metrics.Summarize(pen).Max*100, "seq_penalty_max_%")
	b.ReportMetric(metrics.Summarize(gap).Max*100, "ideal_gap_max_%")
}

// BenchmarkFigure6Power regenerates Fig. 6: power across GPUs and models.
func BenchmarkFigure6Power(b *testing.B) {
	pts := runPoints(b, workload.MainGrid())
	var avg, peak []float64
	for _, p := range pts {
		if p.Res == nil {
			continue
		}
		avg = append(avg, p.Res.Overlapped.AvgTDP)
		peak = append(peak, p.Res.Overlapped.PeakTDP)
	}
	b.ReportMetric(metrics.Summarize(avg).Mean, "avg_tdp_mean")
	b.ReportMetric(metrics.Summarize(peak).Max, "peak_tdp_max")
}

// BenchmarkFigure7PowerTrace regenerates Fig. 7: the 1 ms MI250 power
// trace during LLaMA-2 13B training.
func BenchmarkFigure7PowerTrace(b *testing.B) {
	var res *core.ModeResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.RunMode(context.Background(), workload.Figure7(), exec.Overlapped)
		if err != nil {
			b.Fatal(err)
		}
	}
	tr := res.Traces[0]
	tdp := workload.Figure7().System.GPU.TDPW
	maxW := 0.0
	for _, s := range tr {
		if s.Watts > maxW {
			maxW = s.Watts
		}
	}
	b.ReportMetric(float64(len(tr)), "samples")
	b.ReportMetric(maxW/tdp, "trace_peak_tdp")
}

// BenchmarkFigure8Microbench regenerates Fig. 8: N×N GEMM concurrent with
// a 1 GB all-reduce, swept over N on H100x4.
func BenchmarkFigure8Microbench(b *testing.B) {
	var last *microbench.Result
	for i := 0; i < b.N; i++ {
		for _, n := range microbench.SweepNs() {
			res, err := microbench.Run(microbench.Config{
				System:      hw.SystemH100x4(),
				N:           n,
				Format:      precision.FP16,
				MatrixUnits: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
	}
	b.ReportMetric(last.Slowdown*100, "slowdown_16k_%")
	b.ReportMetric(last.OverlappedPower.PeakTDP, "peak_tdp_16k")
}

// BenchmarkFigure9PowerCap regenerates Fig. 9: the power-cap sweep on
// A100x4, reporting the execution-time increase at the strictest cap.
func BenchmarkFigure9PowerCap(b *testing.B) {
	pts := runPoints(b, workload.Figure9())
	var base, strict float64
	for _, p := range pts {
		if p.Config.Caps.PowerW == 0 {
			base = p.Res.Overlapped.Mean.E2E
		}
		if p.Config.Caps.PowerW == 100 {
			strict = p.Res.Overlapped.Mean.E2E
		}
	}
	b.ReportMetric((strict/base-1)*100, "e2e_increase_100W_%")
}

// BenchmarkFigure10Precision regenerates Fig. 10: FP32 versus FP16 on
// H100x4.
func BenchmarkFigure10Precision(b *testing.B) {
	pts := runPoints(b, workload.Figure10())
	reportPairDelta(b, pts)
}

// BenchmarkFigure11TensorCores regenerates Fig. 11: FP32 general datapath
// versus TF32 Tensor Cores on H100x4.
func BenchmarkFigure11TensorCores(b *testing.B) {
	pts := runPoints(b, workload.Figure11())
	reportPairDelta(b, pts)
}

// reportPairDelta reports the mean slowdown increase of the second variant
// of each (baseline, ablated) pair.
func reportPairDelta(b *testing.B, pts []sweep.Point) {
	b.Helper()
	var deltas []float64
	for i := 0; i+1 < len(pts); i += 2 {
		if pts[i].Res == nil || pts[i+1].Res == nil {
			continue
		}
		deltas = append(deltas, pts[i+1].Res.Char.ComputeSlowdown-pts[i].Res.Char.ComputeSlowdown)
	}
	b.ReportMetric(metrics.Summarize(deltas).Mean*100, "slowdown_delta_mean_pp")
}

// BenchmarkHeadlineAggregates reproduces the abstract's aggregates over
// the main grid: mean/max compute slowdown from overlap and mean/max
// sequential penalty (paper: 18.9%/40.0% and 10.2%/26.6%).
func BenchmarkHeadlineAggregates(b *testing.B) {
	pts := runPoints(b, workload.MainGrid())
	var slows, pens []float64
	for _, p := range pts {
		if p.Res == nil {
			continue
		}
		slows = append(slows, p.Res.Char.ComputeSlowdown)
		pens = append(pens, p.Res.Char.SeqPenalty)
	}
	s := metrics.Summarize(slows)
	q := metrics.Summarize(pens)
	b.ReportMetric(s.Mean*100, "slowdown_mean_%")
	b.ReportMetric(s.Max*100, "slowdown_max_%")
	b.ReportMetric(q.Mean*100, "seqpen_mean_%")
	b.ReportMetric(q.Max*100, "seqpen_max_%")
}

// BenchmarkSingleIterationFSDP measures raw simulator throughput for
// overlapped FSDP on GPT-3 13B on MI250x4 — the paper's worst-case
// configuration — as an engine microbenchmark. Warmup: 0 means the
// default of one warm-up iteration (only a negative count means none),
// so each op builds and simulates a warm-up and one measured iteration.
func BenchmarkSingleIterationFSDP(b *testing.B) {
	cfg := core.Config{
		System:      hw.SystemMI250x4(),
		Model:       model.GPT3_13B(),
		Parallelism: "fsdp",
		Batch:       8,
		Format:      precision.FP16,
		MatrixUnits: true,
		Iterations:  1,
		Warmup:      0,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunMode(context.Background(), cfg, exec.Overlapped); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiNodeFSDP measures engine throughput beyond one node:
// overlapped FSDP on GPT-3 13B on a 4-node × 8-GPU H100 cluster (32
// ranks, hierarchical NVLink+NIC fabric), each op a warm-up and one
// measured iteration (Warmup: 0 is the default of one). Alongside
// BenchmarkSingleIterationFSDP it tracks how simulation cost scales with
// cluster size, and its characterization metrics expose the NIC tier:
// the overlap ratio reported here should exceed the single-node runs'.
func BenchmarkMultiNodeFSDP(b *testing.B) {
	cfg := core.Config{
		System:      hw.NewMultiNode(hw.H100(), 8, 4),
		Model:       model.GPT3_13B(),
		Parallelism: "fsdp",
		Batch:       64,
		Format:      precision.FP16,
		MatrixUnits: true,
		Iterations:  1,
		Warmup:      0,
	}
	var res *core.ModeResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = core.RunMode(context.Background(), cfg, exec.Overlapped); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.System.TotalGPUs()), "gpus")
	b.ReportMetric(res.Mean.E2E*1e3, "e2e_ms")
	b.ReportMetric(res.OverlapRatio*100, "overlap_%")
}

// BenchmarkEngineScale is the engine's scale trajectory: overlapped FSDP
// on GPT-3 XL at 8 to 4096 ranks (H100 nodes of 8, hierarchical
// NVLink+NIC fabric beyond one node), each op building and simulating a
// warm-up and one measured iteration (Warmup: 0 is the default of one
// warm-up; only a negative count means none). ns/op and allocs/op at
// each rank count are the numbers BENCH.md tracks; a scheduling or
// allocation regression shows up here before it shows up in a paper
// grid. The per-GPU batch is fixed at 1 so the task graph — and
// therefore simulation cost — grows linearly with ranks, while the
// rank-symmetry fast path keeps the simulated portion at O(classes).
func BenchmarkEngineScale(b *testing.B) {
	for _, ranks := range []int{8, 32, 128, 512, 4096} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			nodes := (ranks + 7) / 8
			cfg := core.Config{
				System:      hw.NewMultiNode(hw.H100(), 8, nodes),
				Model:       model.GPT3XL(),
				Parallelism: "fsdp",
				Batch:       ranks,
				Format:      precision.FP16,
				MatrixUnits: true,
				Iterations:  1,
				Warmup:      0,
			}
			edges := censusEdges(b, cfg, exec.Overlapped)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunMode(context.Background(), cfg, exec.Overlapped); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.System.TotalGPUs()), "gpus")
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// censusEdges builds the plan of cfg in the mode and returns the
// dependency edges it wires (sim.Engine.Census), which the scale
// benchmarks report beside ns/op: a committed FSDP plan wires no edge
// into or out of a ghost rank, so a wiring regression shows as edges.
func censusEdges(b *testing.B, cfg core.Config, mode exec.Mode) int {
	b.Helper()
	plan, err := core.BuildPlan(cfg, mode)
	if err != nil {
		b.Fatal(err)
	}
	return plan.Engine.Census().Edges
}

// BenchmarkEngineScaleSequential is BenchmarkEngineScale's sequential
// mode at the shapes where the collapse dominates: the core-scale 512
// ranks and 4096, each op again a warm-up and one measured iteration.
// Sequential mode chains every collective into every rank's compute, so
// its plan holds more edges, and in core.Run it is the slower of the two
// modes, which run side by side.
func BenchmarkEngineScaleSequential(b *testing.B) {
	for _, ranks := range []int{512, 4096} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			cfg := core.Config{
				System:      hw.NewMultiNode(hw.H100(), 8, ranks/8),
				Model:       model.GPT3XL(),
				Parallelism: "fsdp",
				Batch:       ranks,
				Format:      precision.FP16,
				MatrixUnits: true,
				Iterations:  1,
				Warmup:      0,
			}
			edges := censusEdges(b, cfg, exec.Sequential)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunMode(context.Background(), cfg, exec.Sequential); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.System.TotalGPUs()), "gpus")
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkEngineScaleJitter is the jittered counterpart of
// BenchmarkEngineScale: the same FSDP shape, a warm-up and one measured
// iteration per op, with σ=0.02 kernel jitter, which vetoes the symmetry
// collapse, so every rank is simulated and the ranks de-synchronize. It
// reports the epoch count and the wall-clock cost per epoch, separating
// "more epochs" from "dearer epochs" when the jittered path gets faster
// or slower.
func BenchmarkEngineScaleJitter(b *testing.B) {
	for _, ranks := range []int{32, 128} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			cfg := core.Config{
				System:      hw.NewMultiNode(hw.H100(), 8, (ranks+7)/8),
				Model:       model.GPT3XL(),
				Parallelism: "fsdp",
				Batch:       ranks,
				Format:      precision.FP16,
				MatrixUnits: true,
				Iterations:  1,
				Warmup:      0,
				JitterSigma: 0.02,
				Seed:        1,
			}
			var res *core.ModeResult
			var err error
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err = core.RunMode(context.Background(), cfg, exec.Overlapped); err != nil {
					b.Fatal(err)
				}
			}
			epochs := float64(res.Engine.Epochs)
			b.ReportMetric(epochs, "epochs")
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/epochs, "us/epoch")
		})
	}
}

// BenchmarkPowerSampling measures telemetry overhead.
func BenchmarkPowerSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := power.NewSampler(power.AMDSMIInterval)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 1000; k++ {
			s.Add(float64(k)*1e-3, float64(k+1)*1e-3, float64(100+k%300))
		}
		if s.Peak() <= 0 {
			b.Fatal("no peak")
		}
	}
}
