package gpu

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"overlapsim/internal/collective"
	"overlapsim/internal/hw"
	"overlapsim/internal/kernels"
	"overlapsim/internal/power"
	"overlapsim/internal/precision"
	"overlapsim/internal/sim"
	"overlapsim/internal/topo"
)

// refCluster is the reference for FuzzClusterRates: the device model
// before it became incremental. Every epoch it re-partitions the running
// set and re-solves every device from scratch, evaluating kernels through
// the unprepared recursive roofline (refWorkTime) and the per-descriptor
// activity conversion (refActivityOf). The incremental Cluster must agree
// with it bit for bit.
type refCluster struct {
	cfg      Config
	g        *hw.GPUSpec
	fabric   topo.Fabric
	freq     []float64
	samplers []*power.Sampler
	traces   []*power.Sampler
	rng      *rand.Rand
	jitter   map[*sim.Task]float64
	compute  [][]*sim.Task
	comms    [][]*sim.Task
	idleFreq float64
	idleW    float64
}

func newRefCluster(t testing.TB, cfg Config) *refCluster {
	n := cfg.System.TotalGPUs()
	c := &refCluster{
		cfg:     cfg,
		g:       cfg.System.GPU,
		fabric:  topo.ForSystem(cfg.System),
		freq:    make([]float64, n),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		jitter:  make(map[*sim.Task]float64),
		compute: make([][]*sim.Task, n),
		comms:   make([][]*sim.Task, n),
	}
	for i := range c.freq {
		c.freq[i] = 1
		s, err := power.NewSampler(power.SamplerIntervalFor(c.g.Vendor))
		if err != nil {
			t.Fatal(err)
		}
		c.samplers = append(c.samplers, s)
		tr, err := power.NewSampler(cfg.TraceInterval)
		if err != nil {
			t.Fatal(err)
		}
		c.traces = append(c.traces, tr)
	}
	c.idleFreq = power.SolveFreq(c.g, power.Activity{}, cfg.Caps)
	c.idleW = power.Instant(c.g, power.Activity{}, c.idleFreq)
	return c
}

func (c *refCluster) jitterFor(t *sim.Task) float64 {
	if c.cfg.JitterSigma <= 0 {
		return 1
	}
	if j, ok := c.jitter[t]; ok {
		return j
	}
	j := math.Exp(c.rng.NormFloat64() * c.cfg.JitterSigma)
	c.jitter[t] = j
	return j
}

func (c *refCluster) partition(running []*sim.Task) {
	for i := range c.compute {
		c.compute[i] = c.compute[i][:0]
		c.comms[i] = c.comms[i][:0]
	}
	for _, t := range running {
		switch p := t.Payload().(type) {
		case kernels.Desc:
			d := t.Streams()[0].Device()
			c.compute[d] = append(c.compute[d], t)
		case collective.Desc:
			if p.Op == collective.SendRecv && p.Waiting() {
				c.comms[p.Dst] = append(c.comms[p.Dst], t)
				continue
			}
			for _, r := range p.Participants() {
				c.comms[r] = append(c.comms[r], t)
			}
		}
	}
}

func (c *refCluster) Rates(running []*sim.Task) {
	c.partition(running)
	for _, t := range running {
		switch p := t.Payload().(type) {
		case collective.Desc:
			if p.Waiting() {
				t.SetRate(0)
			} else {
				t.SetRate(p.WireBW(c.fabric) * c.jitterFor(t))
			}
		case kernels.Desc:
		default:
			t.SetRate(1)
		}
	}
	for dev := range c.freq {
		nCompute := len(c.compute[dev])
		if nCompute == 0 && len(c.comms[dev]) == 0 {
			c.freq[dev] = c.idleFreq
			continue
		}
		smStolen, hbmStolen, serialize := c.pressure(dev)
		if nCompute == 0 {
			c.freq[dev] = power.SolveFreq(c.g, c.deviceActivity(dev, 1, 0, 0, 0), c.cfg.Caps)
			continue
		}
		f := c.freq[dev]
		if f <= 0 {
			f = 1
		}
		for iter := 0; iter < 4; iter++ {
			act := c.deviceActivity(dev, f, smStolen, hbmStolen, serialize)
			nf := power.SolveFreq(c.g, act, c.cfg.Caps)
			if math.Abs(nf-f) < 1e-6 {
				f = nf
				break
			}
			f = nf
		}
		c.freq[dev] = f
		for _, t := range c.compute[dev] {
			kd := t.Payload().(kernels.Desc)
			r := refRate(kd, c.g, f, smStolen, hbmStolen, serialize)
			if nCompute > 1 {
				r /= float64(nCompute)
			}
			t.SetRate(r * c.jitterFor(t))
		}
	}
}

func (c *refCluster) pressure(dev int) (smStolen, hbmStolen, serialize float64) {
	for _, t := range c.comms[dev] {
		cd := t.Payload().(collective.Desc)
		sm := float64(collective.SMOccupancy(cd, c.g))
		w := c.g.Contention.SerializeFrac * serializeWeight(cd.Op)
		if cd.Waiting() {
			sm = sm / 2
			w = w / 2
		} else {
			hbmStolen += collective.HBMDraw(cd, c.g, cd.WireBW(c.fabric))
		}
		smStolen += sm
		if w > serialize {
			serialize = w
		}
	}
	if max := float64(c.g.SMs) * 0.6; smStolen > max {
		smStolen = max
	}
	return smStolen, hbmStolen, serialize
}

func (c *refCluster) deviceActivity(dev int, f, smStolen, hbmStolen, serialize float64) power.Activity {
	var act power.Activity
	for _, t := range c.compute[dev] {
		kd := t.Payload().(kernels.Desc)
		r := refRate(kd, c.g, f, smStolen, hbmStolen, serialize)
		if n := len(c.compute[dev]); n > 1 {
			r /= float64(n)
		}
		v, m, mem := refActivityOf(kd, c.g, r, f)
		act.Vec += v
		act.Mat += m
		act.Mem += mem
	}
	commUtil := 0.0
	for _, t := range c.comms[dev] {
		cd := t.Payload().(collective.Desc)
		if cd.Waiting() {
			continue
		}
		wireRate := cd.WireBW(c.fabric)
		commUtil += wireRate / c.g.UniLinkBW()
		act.Mem += collective.HBMDraw(cd, c.g, wireRate) / c.g.MemBW()
	}
	act.Comm = commUtil
	act.Surge = surgeActivity(act, surgeMatWeight)
	return act.Clamped()
}

func (c *refCluster) Segment(t0, t1 float64) {
	for dev := range c.freq {
		var w float64
		if len(c.compute[dev]) == 0 && len(c.comms[dev]) == 0 && c.freq[dev] == c.idleFreq {
			w = c.idleW
		} else {
			w = power.Instant(c.g, c.segmentActivity(dev), c.freq[dev])
		}
		c.samplers[dev].Add(t0, t1, w)
		c.traces[dev].Add(t0, t1, w)
	}
}

func (c *refCluster) segmentActivity(dev int) power.Activity {
	var act power.Activity
	f := c.freq[dev]
	for _, t := range c.compute[dev] {
		v, m, mem := refActivityOf(t.Payload().(kernels.Desc), c.g, t.Rate(), f)
		act.Vec += v
		act.Mat += m
		act.Mem += mem
	}
	for _, t := range c.comms[dev] {
		cd := t.Payload().(collective.Desc)
		wireRate := t.Rate()
		act.Comm += wireRate / c.g.UniLinkBW()
		act.Mem += collective.HBMDraw(cd, c.g, wireRate) / c.g.MemBW()
	}
	computeAct := act.Vec + act.Mat
	if computeAct > 0.05 && act.Comm > 0.05 {
		act.Surge = math.Min(computeAct, act.Comm)
	}
	return act.Clamped()
}

func refRate(d kernels.Desc, g *hw.GPUSpec, freq, smStolen, hbmStolen, serialize float64) float64 {
	t := refWorkTime(d, g, freq, smStolen, hbmStolen, serialize)
	if t <= 0 {
		return math.Inf(1)
	}
	return kernels.Work(d) / t
}

func refWorkTime(d kernels.Desc, g *hw.GPUSpec, freq, smStolen, hbmStolen, serialize float64) float64 {
	if len(d.Parts) > 0 {
		t := 0.0
		for _, p := range d.Parts {
			t += refWorkTime(p, g, freq, smStolen, hbmStolen, serialize)
		}
		return t
	}
	if freq <= 0 {
		freq = g.Power.FMin
	}
	smFrac := 1 - smStolen/float64(g.SMs)
	if smFrac < 0.05 {
		smFrac = 0.05
	}
	issue := 1 - serialize
	if issue < 0.05 {
		issue = 0.05
	}
	peak := g.PeakFLOPS(d.Path, d.Format)
	eff := 1.0
	if d.Op == kernels.OpGEMM {
		eff = g.GEMMEff(d.K, d.Path, d.Format)
	} else {
		eff = 0.5
	}
	availMem := g.MemBW() - hbmStolen
	if floor := g.MemBW() * 0.15; availMem < floor {
		availMem = floor
	}
	var tCompute, tMem float64
	if d.FLOPs > 0 && peak > 0 {
		tCompute = d.FLOPs / (peak * eff * smFrac * freq * issue)
	}
	if d.Bytes > 0 {
		tMem = d.Bytes / (availMem * issue)
	}
	if d.FLOPs > 0 && peak == 0 {
		return math.Inf(1)
	}
	return math.Max(tCompute, tMem)
}

func refActivityOf(d kernels.Desc, g *hw.GPUSpec, r, f float64) (vec, mat, mem float64) {
	if r <= 0 || math.IsInf(r, 1) || f <= 0 {
		return 0, 0, 0
	}
	w := kernels.Work(d)
	if w <= 0 {
		return 0, 0, 0
	}
	dur := w / r
	vecF, matF := d.FLOPsByPath()
	if vecF > 0 {
		if peak := refPeakFor(g, precision.Vector, d.Format); peak > 0 {
			vec = (vecF / dur) / (peak * f)
		}
	}
	if matF > 0 {
		if peak := refPeakFor(g, precision.Matrix, d.Format); peak > 0 {
			mat = (matF / dur) / (peak * f)
		}
	}
	if vec > 1 {
		vec = 1
	}
	if mat > 1 {
		mat = 1
	}
	if d.Bytes > 0 {
		mem = (d.Bytes / dur) / g.MemBW()
		if mem > 1 {
			mem = 1
		}
	}
	return vec, mat, mem
}

func refPeakFor(g *hw.GPUSpec, path precision.Datapath, f precision.Format) float64 {
	if p := g.PeakFLOPS(path, f); p > 0 {
		return p
	}
	return g.PeakFLOPS(path, precision.FP32)
}

// fuzzBytes reads a fuzz input as a stream of small choices; an
// exhausted input reads as zeros.
type fuzzBytes struct {
	b []byte
	i int
}

func (f *fuzzBytes) next() int {
	if f.i >= len(f.b) {
		return 0
	}
	v := f.b[f.i]
	f.i++
	return int(v)
}

func (f *fuzzBytes) pick(n int) int { return f.next() % n }

// fuzzGate is a collective gate the fuzzer flips by hand.
type fuzzGate struct{ done bool }

func (g *fuzzGate) Done() bool { return g.done }

// fuzzKernel draws one unfused kernel descriptor; every one has work.
func fuzzKernel(in *fuzzBytes) kernels.Desc {
	formats := []precision.Format{precision.FP16, precision.BF16, precision.FP32, precision.TF32}
	f := formats[in.pick(len(formats))]
	size := float64(int(256) << in.pick(6))
	switch in.pick(4) {
	case 0:
		return kernels.GEMM("gemm", size, size, size, 1, f, precision.Matrix)
	case 1:
		return kernels.GEMM("vgemm", size, size/2, size*2, 1, f, precision.Vector)
	case 2:
		return kernels.Elementwise("ew", size*size, float64(1+in.pick(4)), float64(in.pick(3)), f)
	default:
		return kernels.Norm("norm", size*size, f)
	}
}

// FuzzClusterRates drives the memoized Cluster and refCluster through
// the same random epoch sequence — fused and unfused, prepared and
// unprepared kernels; collectives whose gates flip; fan-outs of one
// kernel descriptor over several devices with a collective spanning
// them, whose devices hit each other's memo entries; bursts of more
// tasks on one device than the memo key holds; random caps and jitter;
// running sets that change on one device, on a fan-out's devices at
// once, or on many — and after every epoch demands bit-identical task
// rates, frequency factors and sampler and trace energies.
func FuzzClusterRates(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 1, 7, 12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 0, 1, 0, 9, 40, 3, 3, 3, 2, 2, 1, 1, 0, 0, 5, 6, 7, 200, 100, 50, 25, 12, 6, 3, 1})
	f.Add([]byte{4, 1, 3, 1, 33, 90, 250, 17, 4, 99, 23, 1, 5, 8, 13, 21, 34, 55, 89, 144, 233, 1, 2, 4, 8, 16, 32, 64, 128})
	f.Add([]byte{2, 0, 2, 0, 1, 16, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 3, 3, 3, 3})
	f.Add([]byte{4, 0, 1, 1, 5, 2, 0, 5, 0, 0, 1, 1, 3, 0, 0, 6, 6, 1, 0, 0, 4, 0, 4, 0, 4, 0, 2, 0, 4, 1, 3, 4, 0, 4, 1})
	f.Add([]byte{3, 1, 2, 1, 9, 3, 1, 6, 0, 2, 3, 0, 0, 0, 1, 6, 0, 1, 1, 1, 2, 4, 0, 4, 1, 4, 0, 1, 4, 1, 2, 2, 4, 0})
	// A gated all-reduce whose gate flips while it is not running, so it
	// enters released, and later enters waiting and is released by a flip.
	f.Add([]byte{0, 0, 0, 1, 1, 7, 0,
		0, 2, 0, 3, 0, 1, 0, 0, 0, 0, 0, 2, 0, 1, 0, 1, 0, 0, 3, 0, 1, 0, 0, 6,
		0, 1, 1, 5, 2, 0, 1, 5, 0, 0, 1, 5, 2, 0, 1, 5, 0, 2, 1, 5, 0, 0, 1, 5, 2, 0, 1, 5, 0, 0, 0, 2, 0, 1, 5})
	// Gated SendRecvs that enter waiting, on their destination only, and
	// are released onto both endpoints (one prepared, one not), then one
	// is gated again while running.
	f.Add([]byte{1, 0, 0, 1, 1, 9, 0,
		0, 2, 3, 2, 1, 1, 0, 2, 1, 1, 3, 2, 1, 1, 1, 0, 0, 0, 0, 4, 0, 1, 0, 2, 3, 3, 4, 0, 0, 0,
		0, 1, 1, 3, 0, 2, 1, 3, 0, 0, 1, 3, 2, 0, 1, 3, 0, 3, 1, 4, 2, 1, 1, 4, 0, 0, 1, 2, 2, 1, 1, 2, 0, 3, 1, 2})
	// Tasks that enter below the sequence numbers of the tasks their
	// device runs, one at a time and several in one epoch.
	f.Add([]byte{0, 0, 2, 1, 1, 3, 0,
		0, 0, 0, 1, 3, 0, 2, 0, 0, 1, 1, 2, 1, 0, 0, 2, 1, 5, 0, 0, 0, 1, 0, 0, 2, 2, 0, 1, 0, 1, 3, 2, 6, 0, 1, 0, 0,
		1, 0, 1, 0, 1, 1, 10, 0, 3, 1, 10, 0, 0, 1, 10, 0, 0, 1, 10, 0, 1, 1, 10, 1, 0, 0, 0, 0, 1, 10, 1, 0, 0, 0, 0, 1, 10, 2, 0, 1, 10, 0, 2, 0})
	// A capped device whose solve moves its frequency for several epochs
	// of one running set, so it must stay dirty until the move stops.
	f.Add([]byte("001000A00000100110008"))
	// Released comms that enter in one epoch, in reverse creation order,
	// and must draw their jitter in creation order.
	f.Add([]byte("000010000000000000Y1000000000000001000000000C00000000000009000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{b: data}
		n := 2 + in.pick(5)
		g := []*hw.GPUSpec{hw.H100(), hw.MI250()}[in.pick(2)]
		caps := power.Caps{PowerW: []float64{0, 250, 300, 450}[in.pick(4)]}
		if in.pick(4) == 0 {
			caps.FreqFactor = 0.7
		}
		cfg := Config{
			System:        hw.NewSystem(g, n),
			Caps:          caps,
			TraceInterval: power.TraceInterval,
			JitterSigma:   []float64{0, 0.03}[in.pick(2)],
			Seed:          int64(in.next()),
		}
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCluster(t, cfg)

		// The task pool: one payload list, instantiated identically in
		// two engines so each model writes rates into its own tasks.
		type spec struct {
			name    string
			kind    sim.Kind
			work    float64
			payload any
			device  int
		}
		var gates []*fuzzGate
		var specs []spec
		// groups lists the specs of each fan-out and burst, which an
		// epoch may start or stop together.
		var groups [][]int
		kernel := func(dev int) {
			d := fuzzKernel(in)
			if in.pick(2) == 0 {
				parts := []kernels.Desc{d}
				for k := in.pick(5); k > 0; k-- {
					if in.pick(2) == 0 {
						parts = append(parts, parts[in.pick(len(parts))]) // repeated part
					} else {
						parts = append(parts, fuzzKernel(in))
					}
				}
				d = kernels.Fuse("fused", parts...)
			}
			if in.pick(2) == 0 {
				d = kernels.Prepare(d, g)
			}
			specs = append(specs, spec{"k", sim.KindCompute, kernels.Work(d), d, dev})
		}
		// coll adds a collective, possibly gated: a reducing or gathering
		// one over ranks when ranks is given, otherwise a send/recv from
		// dev or a collective over ranks counted from dev.
		coll := func(dev int, ranks []int) {
			ops := []collective.Op{collective.AllReduce, collective.AllGather,
				collective.ReduceScatter, collective.SendRecv}
			if ranks != nil {
				ops = ops[:3]
			}
			cd := collective.Desc{Name: "c", Op: ops[in.pick(len(ops))], Bytes: float64(int(1) << (20 + in.pick(10)))}
			switch {
			case ranks != nil:
				cd.N, cd.Ranks = len(ranks), ranks
			case cd.Op == collective.SendRecv:
				cd.N, cd.Src, cd.Dst = 2, dev, (dev+1+in.pick(n-1))%n
			default:
				cd.N = 2 + in.pick(n-1)
				if in.pick(2) == 0 {
					for r := 0; r < cd.N; r++ {
						cd.Ranks = append(cd.Ranks, (dev+r)%n)
					}
				}
			}
			if err := cd.Validate(); err != nil {
				t.Fatal(err)
			}
			var work float64
			if in.pick(2) == 0 {
				cd, work = collective.Prepare(cd, cl.Fabric())
			} else {
				work = collective.EffWireBytes(cd, cl.Fabric())
			}
			if in.pick(2) == 0 {
				gate := &fuzzGate{}
				gates = append(gates, gate)
				cd.Gate = gate
			}
			specs = append(specs, spec{"c", sim.KindComm, work, cd, cd.Participants()[0]})
		}
		// group adds the specs add makes as one group.
		group := func(add func()) {
			first := len(specs)
			add()
			var members []int
			for i := first; i < len(specs); i++ {
				members = append(members, i)
			}
			groups = append(groups, members)
		}
		nTasks := 4 + in.pick(13)
		for i := 0; i < nTasks; i++ {
			dev := in.pick(n)
			switch in.pick(7) {
			case 0, 1: // kernel, possibly fused, possibly prepared
				kernel(dev)
			case 2, 3: // collective, possibly gated
				coll(dev, nil)
			case 4: // fan-out: one descriptor on several devices, as exec.Builder.Compute places it, and a collective over them
				group(func() {
					d := fuzzKernel(in)
					if in.pick(4) != 0 {
						d = kernels.Prepare(d, g)
					}
					ranks := make([]int, 2+in.pick(n-1))
					for r := range ranks {
						ranks[r] = (dev + r) % n
						specs = append(specs, spec{"fan", sim.KindCompute, kernels.Work(d), d, ranks[r]})
					}
					coll(dev, ranks)
				})
			case 5: // burst: more kernels or collectives on dev than the memo key holds
				group(func() {
					if in.pick(2) == 0 {
						for k := 0; k < 2; k++ {
							kernel(dev)
						}
						return
					}
					for k := 0; k <= keyComms; k++ {
						ranks := []int{dev, (dev + 1 + in.pick(n-1)) % n}
						coll(dev, ranks)
					}
				})
			default:
				specs = append(specs, spec{"h", sim.KindHost, 1, nil, dev})
			}
		}
		build := func() []*sim.Task {
			eng := sim.NewEngine(nil)
			streams := make([]*sim.Stream, n)
			for d := range streams {
				streams[d] = eng.NewStream(fmt.Sprintf("s%d", d), d)
			}
			out := make([]*sim.Task, len(specs))
			for i, s := range specs {
				out[i] = eng.NewTask(s.name, s.kind, s.work, s.payload, streams[s.device])
			}
			return out
		}
		tasksA, tasksB := build(), build()

		in2 := make([]bool, len(specs))
		was := make([]bool, len(specs)) // in2 at the last Rates call
		now := 0.0
		for epoch := 0; epoch < 48; epoch++ {
			switch in.pick(5) {
			case 0: // toggle one task: typically one device's set changes
				i := in.pick(len(specs))
				in2[i] = !in2[i]
			case 3: // start or stop a fan-out or burst
				if len(groups) > 0 {
					members := groups[in.pick(len(groups))]
					on := !in2[members[0]]
					for _, i := range members {
						in2[i] = on
					}
				}
			case 1: // reshuffle many devices at once
				for i := range in2 {
					if in.pick(3) == 0 {
						in2[i] = !in2[i]
					}
				}
			case 2: // flip a gate
				if len(gates) > 0 {
					gate := gates[in.pick(len(gates))]
					gate.done = !gate.done
				}
			default: // unchanged running set
			}
			var runA, runB, entered, left []*sim.Task
			for i, on := range in2 {
				if on {
					runA = append(runA, tasksA[i])
					runB = append(runB, tasksB[i])
				}
				switch {
				case on && !was[i]:
					entered = append(entered, tasksA[i])
				case !on && was[i]:
					left = append(left, tasksA[i])
				}
			}
			copy(was, in2)
			// The engine reports the delta in admission order, not
			// creation order.
			slices.Reverse(entered)
			cl.Rates(now, runA, entered, left)
			ref.Rates(runB)
			for i := range runA {
				if a, b := runA[i].Rate(), runB[i].Rate(); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("epoch %d: task %d (%s) rate %v, reference %v", epoch, i, runA[i].Name(), a, b)
				}
			}
			for d := 0; d < n; d++ {
				if a, b := cl.FreqFactor(d), ref.freq[d]; math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("epoch %d: device %d freq %v, reference %v", epoch, d, a, b)
				}
			}
			if in.pick(4) == 0 {
				continue // instant epoch: rates without a segment
			}
			dt := float64(1+in.pick(50)) * 1e-4
			cl.Segment(now, now+dt, runA)
			ref.Segment(now, now+dt)
			now += dt
			for d := 0; d < n; d++ {
				if a, b := cl.Sampler(d).Energy(), ref.samplers[d].Energy(); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("epoch %d: device %d energy %v, reference %v", epoch, d, a, b)
				}
				if a, b := cl.Trace(d).Energy(), ref.traces[d].Energy(); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("epoch %d: device %d trace energy %v, reference %v", epoch, d, a, b)
				}
			}
		}
	})
}
