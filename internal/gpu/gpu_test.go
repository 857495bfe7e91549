package gpu

import (
	"math"
	"testing"

	"overlapsim/internal/collective"
	"overlapsim/internal/hw"
	"overlapsim/internal/kernels"
	"overlapsim/internal/power"
	"overlapsim/internal/precision"
	"overlapsim/internal/sim"
)

func newCluster(t *testing.T, g *hw.GPUSpec, n int, caps power.Caps) *Cluster {
	t.Helper()
	c, err := New(Config{System: hw.NewSystem(g, n), Caps: caps})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config must fail")
	}
	if _, err := New(Config{System: hw.NewSystem(hw.A100(), 4), Caps: power.Caps{PowerW: 1}}); err == nil {
		t.Error("cap below idle must fail")
	}
}

func TestIsolatedComputeMatchesBaseRate(t *testing.T) {
	g := hw.H100()
	cl := newCluster(t, g, 2, power.Caps{})
	eng := sim.NewEngine(cl)
	eng.AddObserver(cl)
	s := eng.NewStream("c0", 0)
	d := kernels.GEMM("g", 4096, 4096, 4096, 1, precision.FP16, precision.Matrix)
	task := eng.NewTask("g", sim.KindCompute, kernels.Work(d), d, s)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := kernels.BaseTime(d, g)
	got := task.End() - task.Start()
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("isolated GEMM time %g, want base %g", got, want)
	}
}

func TestCollectiveSlowsCoRunningCompute(t *testing.T) {
	g := hw.MI250()
	run := func(withComm bool) float64 {
		cl := newCluster(t, g, 4, power.Caps{})
		eng := sim.NewEngine(cl)
		cs := eng.NewStream("c0", 0)
		d := kernels.GEMM("g", 8192, 8192, 8192, 1, precision.FP16, precision.Matrix)
		task := eng.NewTask("g", sim.KindCompute, kernels.Work(d), d, cs)
		if withComm {
			comm := eng.NewStream("comm", 0)
			cd := collective.Desc{Name: "ar", Op: collective.AllReduce, Bytes: 8 << 30, N: 4}
			eng.NewTask("ar", sim.KindComm, collective.EffWireBytes(cd, cl.Fabric()), cd, comm)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return task.End() - task.Start()
	}
	iso := run(false)
	ovl := run(true)
	if ovl <= iso {
		t.Errorf("co-running collective must slow compute: %g vs %g", ovl, iso)
	}
}

func TestGatedCommWaitsAndReleases(t *testing.T) {
	g := hw.H100()
	cl := newCluster(t, g, 2, power.Caps{})
	eng := sim.NewEngine(cl)
	cs := eng.NewStream("c0", 0)
	link := eng.NewStream("link", 0)
	d := kernels.GEMM("producer", 4096, 4096, 4096, 1, precision.FP16, precision.Matrix)
	producer := eng.NewTask("producer", sim.KindCompute, kernels.Work(d), d, cs)
	cd := collective.Desc{Name: "xfer", Op: collective.SendRecv, Bytes: 64 << 20, N: 2, Src: 0, Dst: 1, Gate: producer}
	xfer := eng.NewTask("xfer", sim.KindComm, collective.EffWireBytes(cd, cl.Fabric()), cd, link)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if xfer.Start() != 0 {
		t.Errorf("posted transfer should become resident immediately, started %g", xfer.Start())
	}
	if xfer.End() <= producer.End() {
		t.Errorf("transfer finished %g before producer %g", xfer.End(), producer.End())
	}
	wire := cd.Bytes / cl.Fabric().P2PBW(0, 1)
	if got := xfer.End() - producer.End(); got < wire*0.5 {
		t.Errorf("post-gate transfer time %g implausibly small vs wire %g", got, wire)
	}
}

func TestPowerCapThrottlesCompute(t *testing.T) {
	g := hw.A100()
	run := func(capW float64) float64 {
		cl := newCluster(t, g, 2, power.Caps{PowerW: capW})
		eng := sim.NewEngine(cl)
		cs := eng.NewStream("c0", 0)
		d := kernels.GEMM("g", 8192, 8192, 8192, 1, precision.FP32, precision.Vector)
		task := eng.NewTask("g", sim.KindCompute, kernels.Work(d), d, cs)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return task.End()
	}
	uncapped := run(0)
	capped := run(120)
	if capped <= uncapped {
		t.Errorf("120W cap must slow the A100: %g vs %g", capped, uncapped)
	}
}

func TestFreqCap(t *testing.T) {
	g := hw.H100()
	cl := newCluster(t, g, 1, power.Caps{FreqFactor: 0.5})
	eng := sim.NewEngine(cl)
	cs := eng.NewStream("c0", 0)
	d := kernels.GEMM("g", 8192, 8192, 8192, 1, precision.FP16, precision.Matrix)
	task := eng.NewTask("g", sim.KindCompute, kernels.Work(d), d, cs)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := kernels.BaseTime(d, g) / 0.5
	got := task.End()
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("half-frequency GEMM time %g, want ≈%g", got, want)
	}
	if f := cl.FreqFactor(0); f != 0.5 {
		t.Errorf("frequency factor %g", f)
	}
}

func TestPowerObservation(t *testing.T) {
	g := hw.H100()
	cl := newCluster(t, g, 2, power.Caps{})
	eng := sim.NewEngine(cl)
	eng.AddObserver(cl)
	cs := eng.NewStream("c0", 0)
	d := kernels.GEMM("g", 8192, 8192, 8192, 1, precision.FP16, precision.Matrix)
	eng.NewTask("g", sim.KindCompute, kernels.Work(d), d, cs)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	busy := cl.PowerStats(0)
	idle := cl.PowerStats(1)
	if busy.AvgW <= idle.AvgW {
		t.Errorf("busy GPU avg %gW not above idle GPU %gW", busy.AvgW, idle.AvgW)
	}
	if idle.AvgW < g.Power.IdleW*0.99 {
		t.Errorf("idle GPU below idle power: %g", idle.AvgW)
	}
	if busy.EnergyJ <= 0 {
		t.Error("no energy integrated")
	}
}

// TestPowerStatsPerClass pins the memoized class summaries: after a
// collapsed run every device reports exactly the summary of its own
// (shared) sampler, and telemetry recorded afterwards is not hidden by
// the memo. The trailing Segment is out of band: it integrates the
// partitions of the run's last Rates call again, which is all this
// invalidation check needs.
func TestPowerStatsPerClass(t *testing.T) {
	g := hw.H100()
	cl := newCluster(t, g, 4, power.Caps{})
	cl.SetAliases([]int{0, 0, 2, 2})
	eng := sim.NewEngine(cl)
	eng.AddObserver(cl)
	d := kernels.GEMM("g", 8192, 8192, 8192, 1, precision.FP16, precision.Matrix)
	eng.NewTask("g", sim.KindCompute, kernels.Work(d), d, eng.NewStream("c0", 0))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	cl.FinalizeAliases()
	for i := 0; i < 4; i++ {
		if got, want := cl.PowerStats(i), power.StatsFor(cl.Sampler(i), g); got != want {
			t.Fatalf("gpu %d: PowerStats %+v, sampler summary %+v", i, got, want)
		}
	}
	if busy, idle := cl.PowerStats(1), cl.PowerStats(3); busy.EnergyJ <= idle.EnergyJ {
		t.Fatalf("ghost of the busy class reports %g J, ghost of the idle class %g J", busy.EnergyJ, idle.EnergyJ)
	}
	before := cl.PowerStats(0)
	cl.Segment(eng.Now(), eng.Now()+1, nil)
	if got := cl.PowerStats(0); got == before || got != power.StatsFor(cl.Sampler(0), g) {
		t.Fatalf("summary after a new segment = %+v, want a fresh one (was %+v)", got, before)
	}
}

func TestJitterDeterministicBySeed(t *testing.T) {
	g := hw.H100()
	run := func(seed int64) float64 {
		cl, err := New(Config{System: hw.NewSystem(g, 1), JitterSigma: 0.05, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine(cl)
		cs := eng.NewStream("c0", 0)
		d := kernels.GEMM("g", 4096, 4096, 4096, 1, precision.FP16, precision.Matrix)
		task := eng.NewTask("g", sim.KindCompute, kernels.Work(d), d, cs)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return task.End()
	}
	if run(1) != run(1) {
		t.Error("same seed must reproduce")
	}
	if run(1) == run(2) {
		t.Error("different seeds should differ under jitter")
	}
}

func TestTraceRecording(t *testing.T) {
	g := hw.MI250()
	cl, err := New(Config{System: hw.NewSystem(g, 1), TraceInterval: power.TraceInterval})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(cl)
	eng.AddObserver(cl)
	cs := eng.NewStream("c0", 0)
	d := kernels.GEMM("g", 8192, 8192, 8192, 1, precision.FP16, precision.Matrix)
	eng.NewTask("g", sim.KindCompute, kernels.Work(d), d, cs)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	tr := cl.Trace(0)
	if tr == nil || len(tr.Samples()) == 0 {
		t.Fatal("trace not recorded")
	}
}

// A multi-node system simulates TotalGPUs devices behind a hierarchical
// fabric; collectives spanning nodes run at the NIC-bottlenecked rate.
func TestMultiNodeCluster(t *testing.T) {
	sys := hw.NewMultiNode(hw.H100(), 4, 2)
	cl, err := New(Config{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	if cl.N() != 8 {
		t.Fatalf("N = %d, want 8", cl.N())
	}
	f := cl.Fabric()
	if f.N() != 8 {
		t.Errorf("fabric N = %d", f.N())
	}
	if f.RingBW() >= cl.GPU().UniLinkBW() {
		t.Error("spanning ring must be bottlenecked below NVLink by the NIC tier")
	}
	// Every device has telemetry.
	for i := 0; i < cl.N(); i++ {
		if cl.Sampler(i) == nil {
			t.Fatalf("device %d has no sampler", i)
		}
	}

	eng := sim.NewEngine(cl)
	eng.AddObserver(cl)
	comm := eng.NewStream("comm", 0)
	cd := collective.Desc{Name: "ar", Op: collective.AllReduce, Bytes: 64 << 20, N: 8}
	task := eng.NewTask("ar", sim.KindComm, collective.EffWireBytes(cd, f), cd, comm)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	got := task.End() - task.Start()
	want := collective.Time(cd, f)
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("spanning all-reduce took %g, want per-tier time %g", got, want)
	}
}
