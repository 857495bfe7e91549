// Command perfbench is overlapsim's end-to-end benchmark. It links the
// public packages, drives one closed-loop client through a workload for a
// fixed time, verifies every operation's simulated output against a
// reference digest, and prints its metrics as one JSON object on the last
// line of standard output.
//
//	go run . --workload core-scale --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the run measures an untraced half and then a traced half
// that records spans around each public call; the result carries the
// per-layer metrics and the tracing overhead. --print-digests prints the
// default seed's digests, the content of expected.json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed whose digests expected.json commits.
const defaultSeed = 1

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 9

// workload is one set of inputs and its closed-loop operation.
type workload struct {
	name string
	// tail is the op_tail_ms percentile: the highest that keeps at
	// least ten samples beyond it over a 20-second run at the rate of
	// the commit that added this benchmark, except on core-scale and
	// serve-warm, where that percentile was too unsteady (README.md
	// gives the rates and the measurements).
	tail  float64
	setup func(ctx context.Context, d *digests, seed uint64) (instance, error)
}

// instance is a set-up workload. op performs one operation, with root
// its span when t is non-nil, and returns the check of its output, which
// runs after the operation's clock stops.
type instance interface {
	op(ctx context.Context, t *tracer, root int) (verify, error)
	close()
}

// verify checks one operation's output.
type verify func() error

// now runs an operation's check at once.
func now(v verify, err error) error {
	if err != nil {
		return err
	}
	return v()
}

// prober is an instance with an extra traced measurement, made probeReps
// times after the traced operations.
type prober interface {
	probe(t *tracer) error
}

const probeReps = 5

// coreOverheadBand is how far, in percent, trace.overhead_pct may stray on
// the core workloads before the run warns. Their traced half composes
// core.Run from the calls core.RunMode makes (coreops.go), and the few
// dozen spans per operation cost well under 1%; host drift between the
// halves moved it by up to 15% when this benchmark was added. A figure
// beyond the band suggests the copy no longer matches core.RunMode.
const coreOverheadBand = 25.0

var workloads = []workload{
	{name: "core-scale", tail: 90, setup: func(ctx context.Context, d *digests, _ uint64) (instance, error) {
		return newCoreRun(ctx, fsdpConfig(64), "core-scale", d)
	}},
	{name: "jitter-32", tail: 87, setup: func(ctx context.Context, d *digests, seed uint64) (instance, error) {
		cfg := fsdpConfig(4)
		cfg.JitterSigma = 0.02
		cfg.Seed = int64(seed)
		return newCoreRun(ctx, cfg, fmt.Sprintf("jitter-32/seed=%d", seed), d)
	}},
	{name: "sweep-cold", tail: 90, setup: func(ctx context.Context, d *digests, _ uint64) (instance, error) {
		return newSweepCold(ctx, d)
	}},
	{name: "serve-warm", tail: 95, setup: func(ctx context.Context, d *digests, seed uint64) (instance, error) {
		return newServeWarm(ctx, d, seed)
	}},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	traced := fs.Int("trace", 0, "1 measures per-layer metrics")
	printDigests := fs.Bool("print-digests", false, "print the default seed's result digests and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	d, err := loadDigests()
	if err != nil {
		return err
	}
	if *printDigests {
		d.committed = map[string]string{}
		for _, w := range workloads {
			inst, err := w.setup(ctx, d, defaultSeed)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			inst.close()
		}
		_, err := stdout.Write(d.observedJSON())
		return err
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	w := workloads[i]

	h, err := newHostRef()
	if err != nil {
		return err
	}
	inst, setupS, err := setUp(ctx, w, d, *seed, h)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer inst.close()

	dur := time.Duration(*seconds * float64(time.Second))
	res := result{Metrics: map[string]metric{}}
	if *traced == 0 {
		p := measure(ctx, inst, nil, dur, h)
		res.add(p)
		p.endToEnd(res.Metrics, w.tail, setupS)
		fmt.Fprintln(stdout, p.summary(w, "untraced"))
	} else {
		base := measure(ctx, inst, nil, dur/2, h)
		t := newTracer()
		before := scrape(inst)
		p := measure(ctx, inst, t, dur/2, h)
		after := scrape(inst)
		if pr, ok := inst.(prober); ok {
			for r := 0; r < probeReps; r++ {
				if err := pr.probe(t); err != nil {
					return fmt.Errorf("probe: %w", err)
				}
			}
		}
		res.add(base)
		res.add(p)
		fmt.Fprintln(stdout, base.summary(w, "untraced"))
		fmt.Fprintln(stdout, p.summary(w, "traced"))
		ls := t.layers()
		printLayers(stdout, ls, t.counts)
		perLayer(res.Metrics, ls, t.counts, base, p, after.sub(before))
		if _, ok := inst.(*coreRun); ok {
			if o := res.Metrics["trace.overhead_pct"].Value; math.Abs(o) > coreOverheadBand {
				fmt.Fprintf(os.Stderr, "perfbench: warning: trace.overhead_pct %.1f%% is outside ±%g%%; check that runMode in coreops.go still makes the calls core.RunMode makes\n", o, coreOverheadBand)
			}
		}
		fmt.Fprintf(stdout, "exec.ghost_share base: %.0f tasks over %.0f plans\n", t.counts["sim.tasks"], t.counts["sim.plans"])
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := t.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(t.spans), path)
	}
	unscaled := maps.Clone(res.Metrics)
	atReferenceSpeed(res.Metrics, h)
	if *traced == 1 {
		res.Metrics["host.wall_scale"] = metric{h.wallSpeed(), "ratio"}
		res.Metrics["host.cpu_scale"] = metric{h.cpuSpeed(), "ratio"}
	}
	fmt.Fprintf(stdout, "host speed: reference kernel (%d copies) median %.4f ms wall, %.4f CPU-ms per copy, over %d samples; wall times scaled by %.4f, CPU times by %.4f\n",
		len(h.copies), percentile(h.wall, 50), percentile(h.cpu, 50), len(h.wall), h.wallSpeed(), h.cpuSpeed())
	raw, err := json.Marshal(struct {
		Metrics   map[string]metric `json:"metrics"`
		WallScale float64           `json:"wall_scale"`
		CPUScale  float64           `json:"cpu_scale"`
	}{unscaled, h.wallSpeed(), h.cpuSpeed()})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "unscaled: %s\n", raw)
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// setUp builds the workload setupReps times from scratch and keeps the
// last. Each set-up is fixed work: the server or config, serve-warm's
// cache fill, the warm-up operations, and a closing GC so every measured
// phase starts from the same heap. It returns the median set-up time and
// samples the reference kernel after each set-up.
func setUp(ctx context.Context, w workload, d *digests, seed uint64, h *hostRef) (instance, float64, error) {
	var inst instance
	var times []float64
	for r := 0; r < setupReps; r++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		inst, err = w.setup(ctx, d, seed)
		if err != nil {
			return nil, 0, err
		}
		runtime.GC()
		times = append(times, time.Since(start).Seconds())
		for k := 0; k < 3; k++ {
			h.sample()
		}
	}
	return inst, percentile(times, 50), nil
}

// phase is one measured stretch of closed-loop operations.
type phase struct {
	lat      []float64 // per-operation latency, ms
	failed   int
	elapsed  time.Duration
	cpu      time.Duration // user+sys
	alloc    uint64        // bytes allocated
	gcCycles uint32
	gcCPU    float64   // GC share of the process's CPU time
	liveHeap []float64 // live heap after each operation, MB
}

var runtimeSamples = []string{
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// measure runs operations back to back for d, each under a root span
// when t is non-nil, sampling the reference kernel between operations
// every refEvery. The kernel's time is left out of the phase's elapsed
// and CPU time.
func measure(ctx context.Context, inst instance, t *tracer, d time.Duration, h *hostRef) phase {
	var p phase
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	var kernel, kernelCPU time.Duration
	var lastSample time.Time
	for time.Since(start) < d {
		if time.Since(lastSample) >= refEvery {
			w, c := h.sample()
			kernel += w
			kernelCPU += c
			lastSample = time.Now()
		}
		root := t.beginOp()
		t0 := time.Now()
		v, err := inst.op(ctx, t, root)
		lat := time.Since(t0)
		t.end(root)
		p.lat = append(p.lat, float64(lat)/float64(time.Millisecond))
		if err == nil {
			err = v()
		}
		if err != nil {
			p.failed++
			fmt.Fprintln(os.Stderr, "op failed:", err)
		}
		p.liveHeap = append(p.liveHeap, float64(readRuntime()[0].Value.Uint64())/1e6)
	}
	p.elapsed = time.Since(start) - kernel
	p.cpu = cpuTime() - cpu0 - kernelCPU
	rt1 := readRuntime()
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcCycles = ms1.NumGC - ms0.NumGC
	if total := rt1[2].Value.Float64() - rt0[2].Value.Float64(); total > 0 {
		p.gcCPU = (rt1[1].Value.Float64() - rt0[1].Value.Float64()) / total
	}
	return p
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (p phase) ops() int { return len(p.lat) }

func (p phase) perOp(v float64) float64 { return v / float64(p.ops()) }

// endToEnd fills the end-to-end metrics as measured; atReferenceSpeed
// scales them.
func (p phase) endToEnd(m map[string]metric, tail, setupS float64) {
	m["setup_s"] = metric{setupS, "s"}
	m["ops_per_s"] = metric{float64(p.ops()) / p.elapsed.Seconds(), "1/s"}
	m["op_p50_ms"] = metric{percentile(p.lat, 50), "ms"}
	m["op_tail_ms"] = metric{percentile(p.lat, tail), "ms"}
	m["cpu_ms_per_op"] = metric{p.perOp(ms(p.cpu)), "ms"}
	m["alloc_mb_per_op"] = metric{p.perOp(float64(p.alloc) / 1e6), "MB"}
	// The maximum depends on where GC cycles happen to fall; the 90th
	// percentile of the marked live heap repeats run to run.
	m["peak_heap_mb"] = metric{percentile(p.liveHeap, 90), "MB"}
}

func (p phase) summary(w workload, label string) string {
	beyond := int(float64(p.ops()) * (100 - w.tail) / 100)
	return fmt.Sprintf("%s %s: %d ops in %.2fs, %d failed; p50 %.3f ms; op_tail_ms = p%g over %d samples (%d beyond); %.2f cpu-ms/op; %.3f MB/op; %.2f GC/op",
		w.name, label, p.ops(), p.elapsed.Seconds(), p.failed, percentile(p.lat, 50),
		w.tail, p.ops(), beyond, p.perOp(ms(p.cpu)), p.perOp(float64(p.alloc)/1e6), p.perOp(float64(p.gcCycles)))
}

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := pct / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) add(p phase) {
	r.Attempted += p.ops()
	r.Failed += p.failed
}
