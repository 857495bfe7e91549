// Package gpu implements the device model: a cluster of identical GPUs
// that serves as the simulation Platform. It converts kernel and
// collective descriptors into execution rates, applying the three
// contention mechanisms the paper identifies — SM stealing by collective
// kernels, HBM bandwidth sharing, and power-cap-induced DVFS throttling —
// and observes every simulated segment to drive the power telemetry.
//
// The model is memoized. A device's solve — contention pressure, the
// rate/DVFS fixed point, its compute tasks' rates — is a pure function
// of the costs of its running compute kernels, its running communication
// tasks with the gate bit of each, and the frequency the solve starts
// from. Its key (solveKey) holds exactly those: the prepared
// kernels.Cost pointer of its compute kernel, the ordered comm tasks and
// their gate bits, and the starting frequency's bits. The cluster keeps
// one memo from key to the solved frequency and the compute task's rate
// before jitter, shared by every device and epoch: a strategy fans one
// prepared kernel out to every rank and runs one collective task across
// them, so de-synchronized ranks of a jittered run pass through the same
// few states at different times. A hit is bit-identical to a solve
// because it replays the values that solve computed from the same
// inputs. It then multiplies in the task's jitter exactly as a solve
// does, calling jitterFor for the same task at the same point, so the
// generator's draw order is unchanged.
//
// A device whose key equals its last solve's key, with the same compute
// task, is skipped outright: equal keys mean its frequency did not move
// (the last solve ended at a bitwise fixed point), so its frequency and
// its task's rate are already what a solve would write, and Segment
// reuses the watts it priced after that solve. Partitions the key cannot
// hold — a kernel that was never prepared (kernels.Desc.CostOn returns a
// fresh Cost), or more tasks than its fixed width — are solved afresh
// every epoch. Devices without compute are keyed for the skip but never
// memoized: their solve is a few multiplications, and they made more
// than half of a paper-grid sweep's memo entries.
package gpu

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"overlapsim/internal/collective"
	"overlapsim/internal/hw"
	"overlapsim/internal/kernels"
	"overlapsim/internal/power"
	"overlapsim/internal/sim"
	"overlapsim/internal/topo"
)

// Config configures a Cluster.
type Config struct {
	// System is the system under simulation — one node or several joined
	// by a hierarchical fabric; the cluster simulates System.TotalGPUs()
	// devices.
	System hw.System
	// Caps are the power/frequency limits applied to every GPU.
	Caps power.Caps
	// TraceInterval, when nonzero, additionally records a fine-grained
	// power trace at this interval (Fig. 7 uses 1 ms).
	TraceInterval float64
	// JitterSigma adds lognormal run-to-run variation to kernel rates
	// (fractional sigma, for example 0.02); zero is fully deterministic.
	JitterSigma float64
	// Seed seeds the jitter stream. Every cluster owns a private
	// generator seeded here — there is no shared or global source — so
	// concurrent simulations (core.Run's two modes, sweep workers) are
	// reproducible independently of scheduling; callers running several
	// clusters of one experiment must derive a distinct seed per cluster.
	Seed int64
}

// Cluster is a system of identical GPUs — one node or several behind a
// hierarchical fabric. It implements sim.Platform (rate assignment) and
// sim.Observer (power integration).
//
// Every epoch Rates partitions the running set by device and solves each
// device through the memo (see the package comment), skipping a device
// whose key and compute tasks are those of its last solve. Segment
// reuses a skipped device's watts once they have been priced for the
// solved state. Both shortcuts reproduce the full recompute bit for bit;
// FuzzClusterRates checks them against a reference copy of it.
type Cluster struct {
	cfg      Config
	n        int
	g        *hw.GPUSpec
	fabric   topo.Fabric
	freq     []float64
	samplers []*power.Sampler
	traces   []*power.Sampler
	rng      *rand.Rand
	jitter   []float64 // each task's multiplier by creation index (Task.Seq), 0 until drawn

	// dev holds each device's per-epoch partition and last solve.
	dev []device

	// memo maps solve inputs to outputs (see solveKey); it is cleared
	// whenever it reaches memoCap entries. solves counts the solves that
	// consulted it and inserts its insertions, for tests.
	memo    map[solveKey]solution
	solves  int
	inserts int

	// partFresh marks the partition as computed by Rates for the
	// current epoch; Segment observes the identical running set
	// immediately after and skips repartitioning. partLen guards the
	// reuse against out-of-band Segment calls.
	partFresh bool
	partLen   int

	// idleFreq and idleW are the DVFS solution and power draw of a fully
	// idle device — constant for a given cap configuration, precomputed so
	// per-epoch device sweeps skip the fixed-point solve on quiet devices.
	idleFreq float64
	idleW    float64

	// alias maps each device to its symmetry-class representative when a
	// collapsed plan runs (see SetAliases), nil for a full simulation;
	// active lists the devices that are actually simulated.
	alias  []int
	active []int

	// repStats memoizes each class representative's power summary once
	// a collapsed run is finalized: ghost devices share their
	// representative's sampler, so their summary is the same value. nil
	// for a full simulation, and dropped when telemetry changes again.
	repStats []repStat
}

// repStat is one representative's memoized power summary.
type repStat struct {
	stats power.Stats
	ok    bool
}

// Key width and memo size. Across the paper's main grid and the golden
// configs no device runs more than one compute kernel and two
// collectives at once; wider partitions bypass the memo, and so do
// devices without compute, whose solve is a few multiplications. A
// 300 W-capped jittered 4×8 FSDP run, the most varied state space
// measured, fills about 330 entries (TestMemoCapHoldsCappedJitter). A
// memo that reaches the cap is cleared, which costs re-solves but never
// changes a result.
const (
	keyComms = 2
	memoCap  = 1024
)

// solveKey is the input of one device solve: the cost of its compute
// kernel, its comm tasks in partition order (nil-padded), the gate bit
// of each (bit i for comms[i]), and the bits of the frequency the solve
// starts from. A device without compute keys with a nil cost and zero
// frequency, which its solve does not read.
type solveKey struct {
	cost    *kernels.Cost
	comms   [keyComms]*sim.Task
	waiting uint8
	freq    uint64
}

// solution is the output of one device solve: the DVFS frequency and the
// compute task's rate before jitter.
type solution struct {
	freq, rate float64
}

// device is one GPU's running-set partition for the current epoch plus
// the record of its last solve.
type device struct {
	compute  []*sim.Task
	costs    []*kernels.Cost // cost of each compute task on the cluster's GPU
	comms    []*sim.Task
	waiting  []bool // gate bit of each comm this epoch
	prepared bool   // every cost is a prepared descriptor's shared Cost

	// key and task are the last solve's key and compute task (nil
	// without compute); keyed marks them valid (the last solve fit the
	// key).
	key   solveKey
	task  *sim.Task
	keyed bool

	// watts is the segment power priced for the solved state; priced
	// marks it valid. Every solve clears priced.
	watts  float64
	priced bool
}

// unchanged reports whether the device's partition, starting from
// frequency f, has its last solve's key and compute task. The same task
// has the same cost, so only the task is compared.
func (d *device) unchanged(f float64) bool {
	k := &d.key
	nm := len(d.comms)
	if !d.keyed || len(d.compute) > 1 || nm > keyComms || (nm < keyComms && k.comms[nm] != nil) {
		return false
	}
	var task *sim.Task
	if len(d.compute) == 1 {
		task = d.compute[0]
	}
	if task != d.task {
		return false
	}
	var waiting uint8
	for i, t := range d.comms {
		if t != k.comms[i] {
			return false
		}
		if d.waiting[i] {
			waiting |= 1 << i
		}
	}
	return waiting == k.waiting && (task == nil || k.freq == math.Float64bits(f))
}

// rekey records the key and compute task of the device's current
// partition, starting from frequency f, and reports whether the
// partition fits the key.
func (d *device) rekey(f float64) bool {
	d.keyed = d.prepared && len(d.compute) <= 1 && len(d.comms) <= keyComms
	if !d.keyed {
		return false
	}
	d.key, d.task = solveKey{}, nil
	if len(d.compute) == 1 {
		d.task, d.key.cost, d.key.freq = d.compute[0], d.costs[0], math.Float64bits(f)
	}
	for i, t := range d.comms {
		d.key.comms[i] = t
		if d.waiting[i] {
			d.key.waiting |= 1 << i
		}
	}
	return true
}

// clear empties the partition.
func (d *device) clear() {
	d.compute, d.costs = d.compute[:0], d.costs[:0]
	d.comms, d.waiting = d.comms[:0], d.waiting[:0]
	d.prepared = true
}

// reset clears the partition and forgets the last solve.
func (d *device) reset() {
	d.clear()
	d.keyed, d.priced = false, false
}

var (
	_ sim.Platform = (*Cluster)(nil)
	_ sim.Observer = (*Cluster)(nil)
)

// New builds a cluster for the given configuration.
func New(cfg Config) (*Cluster, error) {
	if cfg.System.GPU == nil || cfg.System.N < 1 || cfg.System.Nodes < 0 {
		return nil, fmt.Errorf("gpu: invalid system %+v", cfg.System)
	}
	if err := cfg.Caps.Validate(cfg.System.GPU); err != nil {
		return nil, err
	}
	n := cfg.System.TotalGPUs()
	interval := power.SamplerIntervalFor(cfg.System.GPU.Vendor)
	c := &Cluster{
		cfg:    cfg,
		n:      n,
		g:      cfg.System.GPU,
		fabric: topo.ForSystem(cfg.System),
		freq:   make([]float64, n),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		dev:    make([]device, n),
		memo:   make(map[solveKey]solution),
		active: make([]int, n),
	}
	for i := range c.freq {
		c.freq[i] = 1
		c.active[i] = i
	}
	for i := 0; i < n; i++ {
		s, err := power.NewSampler(interval)
		if err != nil {
			return nil, err
		}
		c.samplers = append(c.samplers, s)
		if cfg.TraceInterval > 0 {
			tr, err := power.NewSampler(cfg.TraceInterval)
			if err != nil {
				return nil, err
			}
			c.traces = append(c.traces, tr)
		}
	}
	c.idleFreq = power.SolveFreq(c.g, power.Activity{}, c.cfg.Caps)
	c.idleW = power.Instant(c.g, power.Activity{}, c.idleFreq)
	return c, nil
}

// Fabric returns the cluster's interconnect model.
func (c *Cluster) Fabric() topo.Fabric { return c.fabric }

// GPU returns the device spec.
func (c *Cluster) GPU() *hw.GPUSpec { return c.g }

// N returns the number of GPUs across all nodes.
func (c *Cluster) N() int { return c.n }

// FreqFactor returns the most recently solved DVFS frequency factor of
// GPU i.
func (c *Cluster) FreqFactor(i int) float64 { return c.freq[i] }

// Sampler returns the telemetry sampler of GPU i.
func (c *Cluster) Sampler(i int) *power.Sampler { return c.samplers[i] }

// Trace returns the fine-grained power trace of GPU i, or nil if tracing
// was not enabled.
func (c *Cluster) Trace(i int) *power.Sampler {
	if c.traces == nil {
		return nil
	}
	return c.traces[i]
}

// PowerStats summarizes the telemetry of GPU i. After a collapsed run
// the summary is computed once per symmetry class and shared by its
// members, whose telemetry is the representative's.
func (c *Cluster) PowerStats(i int) power.Stats {
	if c.repStats == nil {
		return power.StatsFor(c.samplers[i], c.g)
	}
	rep := c.alias[i]
	r := &c.repStats[rep]
	if !r.ok {
		r.stats, r.ok = power.StatsFor(c.samplers[rep], c.g), true
	}
	return r.stats
}

// jitterFor returns the stable rate multiplier of a task, drawn the
// first time the task is rated. Multipliers are kept by the task's
// creation index, so a cluster rates the tasks of one engine; 0 marks
// one not drawn yet (a drawn multiplier, the exp of a normal draw, is
// positive). The table grows on demand: completion callbacks create
// tasks mid-run.
func (c *Cluster) jitterFor(t *sim.Task) float64 {
	if c.cfg.JitterSigma <= 0 {
		return 1
	}
	i := t.Seq()
	if i >= len(c.jitter) {
		c.jitter = slices.Grow(c.jitter, i+1-len(c.jitter))
		c.jitter = c.jitter[:cap(c.jitter)]
	}
	if j := c.jitter[i]; j != 0 {
		return j
	}
	j := math.Exp(c.rng.NormFloat64() * c.cfg.JitterSigma)
	c.jitter[i] = j
	return j
}

// partition groups the running tasks by device into compute and comm
// sets, with each compute task's cost and each comm's gate bit. Aliased
// (collapsed) devices are excluded: their timelines come from the class
// representative, so accumulating per-epoch comm sets for them would
// re-introduce the O(ranks) cost the collapse removed.
func (c *Cluster) partition(running []*sim.Task) {
	alias := c.alias
	for _, i := range c.active {
		c.dev[i].clear()
	}
	for _, t := range running {
		switch p := t.Payload().(type) {
		case kernels.Desc:
			d := &c.dev[t.Streams()[0].Device()]
			d.compute = append(d.compute, t)
			d.costs = append(d.costs, p.CostOn(c.g))
			d.prepared = d.prepared && p.PreparedOn(c.g)
		case collective.Desc:
			waiting := p.Waiting()
			if p.Op == collective.SendRecv && waiting {
				// A posted receive spins only on the destination; the
				// sender's kernel does not launch until the producer is
				// done.
				if alias == nil || alias[p.Dst] == p.Dst {
					c.dev[p.Dst].addComm(t, true)
				}
				continue
			}
			for _, r := range p.Participants() {
				if alias != nil && alias[r] != r {
					continue
				}
				c.dev[r].addComm(t, waiting)
			}
		default:
			// Host tasks run at unit rate and occupy no device resources.
		}
	}
}

func (d *device) addComm(t *sim.Task, waiting bool) {
	d.comms = append(d.comms, t)
	d.waiting = append(d.waiting, waiting)
}

// Rates implements sim.Platform.
func (c *Cluster) Rates(now float64, running []*sim.Task) {
	c.partition(running)
	c.partFresh, c.partLen = true, len(running)

	// Communication rates first: collectives are bandwidth-bound and set
	// the contention pressure computes see.
	for _, t := range running {
		switch p := t.Payload().(type) {
		case collective.Desc:
			if p.Waiting() {
				// Posted-early kernel spinning for its producer: resident
				// but moving no data.
				t.SetRate(0)
			} else {
				t.SetRate(p.WireBW(c.fabric) * c.jitterFor(t))
			}
		case kernels.Desc:
			// set below
		default:
			// Host and other non-device tasks run at unit rate.
			t.SetRate(1)
		}
	}

	for _, dev := range c.active {
		c.solve(dev)
	}
}

// solve resolves device dev's DVFS frequency and its compute tasks'
// rates. A device whose key and compute task are its last solve's is
// skipped: its frequency and rates are already what this solve would
// write. A keyed device with compute takes its frequency and base rate
// from the memo when it holds the key, and from a fresh solve, which it
// records, when it does not; every other device is solved afresh.
// Either way each rate is multiplied by its task's jitter in partition
// order; skipping draws no jitter, because every task of a solved device
// drew its multiplier when that solve ran. So the generator's draw order
// is the full recompute's.
func (c *Cluster) solve(dev int) {
	d := &c.dev[dev]
	f := c.freq[dev]
	if d.unchanged(f) {
		return
	}
	d.priced = false
	if !d.rekey(f) || d.task == nil {
		c.solveFresh(dev)
		return
	}
	c.solves++
	if s, ok := c.memo[d.key]; ok {
		c.freq[dev] = s.freq
		d.task.SetRate(s.rate * c.jitterFor(d.task))
		return
	}
	if len(c.memo) >= memoCap {
		clear(c.memo)
	}
	c.memo[d.key] = c.solveFresh(dev)
	c.inserts++
}

// solveFresh solves device dev from its partition, writes its frequency
// and its compute tasks' rates, and returns the solution (the rate is
// the first compute task's).
func (c *Cluster) solveFresh(dev int) solution {
	d := &c.dev[dev]
	var s solution
	nCompute := len(d.compute)
	if nCompute == 0 {
		// The idle and comm-only solutions do not depend on the starting
		// frequency. A fully idle device's is a constant, precomputed in
		// New.
		if len(d.comms) == 0 {
			s.freq = c.idleFreq
		} else {
			s.freq = c.solveFreqIdleComm(dev)
		}
		c.freq[dev] = s.freq
		return s
	}
	smStolen, hbmStolen, serialize := c.pressure(dev)

	// Fixed-point iteration between rate and DVFS frequency: rates
	// depend on f, the cap-solved f depends on the activity the rates
	// imply. Compute-bound kernels converge immediately; memory-bound
	// ones within a few iterations.
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
	s.freq = f

	for i, t := range d.compute {
		r := d.costs[i].Rate(f, smStolen, hbmStolen, serialize)
		if nCompute > 1 {
			r /= float64(nCompute)
		}
		if i == 0 {
			s.rate = r
		}
		t.SetRate(r * c.jitterFor(t))
	}
	return s
}

// SetAliases installs the device→representative map of a collapsed plan
// (alias[d] == d for simulated devices, the class representative for the
// rest). A nil or identity map restores full simulation. The map must
// cover every device. Callers must install aliases before the run and
// call FinalizeAliases after it.
func (c *Cluster) SetAliases(alias []int) {
	c.alias = nil
	c.repStats = nil
	c.active = c.active[:0]
	for d := range c.dev {
		c.dev[d].reset()
	}
	identity := true
	if alias != nil && len(alias) >= c.n {
		for d := 0; d < c.n; d++ {
			if alias[d] != d {
				identity = false
				break
			}
		}
	}
	if !identity {
		c.alias = alias
	}
	for d := 0; d < c.n; d++ {
		if c.alias == nil || c.alias[d] == d {
			c.active = append(c.active, d)
		}
	}
}

// FinalizeAliases back-fills aliased devices' telemetry from their class
// representatives after a collapsed run. Sharing the sampler and trace
// by reference is exact, not an approximation: class members of a
// deterministic run would have produced bit-identical telemetry. From
// here until the next segment, PowerStats summarizes each class once.
func (c *Cluster) FinalizeAliases() {
	if c.alias == nil {
		return
	}
	for d := 0; d < c.n; d++ {
		rep := c.alias[d]
		if rep == d {
			continue
		}
		c.freq[d] = c.freq[rep]
		c.samplers[d] = c.samplers[rep]
		if c.traces != nil {
			c.traces[d] = c.traces[rep]
		}
	}
	c.repStats = make([]repStat, c.n)
}

// Deterministic reports whether the rate model is free of run-to-run
// jitter — the precondition for collapsing symmetry classes.
func (c *Cluster) Deterministic() bool { return c.cfg.JitterSigma <= 0 }

// serializeWeight scales the vendor serialization fraction by operation
// class: reducing ring collectives interfere with the compute scheduler
// most, copy collectives less, and point-to-point kernels (few channels,
// mostly spinning) least.
func serializeWeight(op collective.Op) float64 {
	switch {
	case op.Reducing():
		return 1.0
	case op == collective.SendRecv:
		return 0.35
	default:
		return 0.8
	}
}

// pressure returns the contention collective kernels exert on device dev:
// stolen SMs, stolen HBM bandwidth (bytes/s) and the issue-serialization
// fraction.
func (c *Cluster) pressure(dev int) (smStolen, hbmStolen, serialize float64) {
	d := &c.dev[dev]
	for i, t := range d.comms {
		cd := t.Payload().(collective.Desc)
		sm := float64(collective.SMOccupancy(cd, c.g))
		w := c.g.Contention.SerializeFrac * serializeWeight(cd.Op)
		if d.waiting[i] {
			// A spinning kernel holds its launch footprint but issues
			// little traffic; it steals fewer resources than an active
			// transfer.
			sm = sm / 2
			w = w / 2
		} else {
			wireRate := cd.WireBW(c.fabric)
			hbmStolen += collective.HBMDraw(cd, c.g, wireRate)
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

// deviceActivity estimates the power-model activity of device dev when its
// compute tasks run at frequency factor f under the given contention.
func (c *Cluster) deviceActivity(dev int, f, smStolen, hbmStolen, serialize float64) power.Activity {
	d := &c.dev[dev]
	var act power.Activity
	n := len(d.compute)
	for _, cost := range d.costs {
		r := cost.Rate(f, smStolen, hbmStolen, serialize)
		if n > 1 {
			r /= float64(n)
		}
		v, m, mem := cost.Activity(r, f)
		act.Vec += v
		act.Mat += m
		act.Mem += mem
	}
	commUtil := 0.0
	for i, t := range d.comms {
		if d.waiting[i] {
			continue
		}
		cd := t.Payload().(collective.Desc)
		wireRate := cd.WireBW(c.fabric)
		commUtil += wireRate / c.g.UniLinkBW()
		act.Mem += collective.HBMDraw(cd, c.g, wireRate) / c.g.MemBW()
	}
	act.Comm = commUtil
	act.Surge = surgeActivity(act)
	return act.Clamped()
}

// surgeMatWeight makes matrix-unit activity contribute disproportionately
// to the overlap surge in the activity the DVFS solve reads
// (deviceActivity): tensor-core current transients are the worst case
// for the voltage regulators, so matrix-heavy overlap throttles the
// frequency harder. The recorded watts do not see it: segmentActivity
// prices each segment with an unweighted Vec+Mat surge, so the weight
// moves power only through the frequency the solve picks.
const surgeMatWeight = 2.5

// surgeActivity derives the compute∧communication co-activity that drives
// the transient surge component.
func surgeActivity(act power.Activity) float64 {
	computeAct := act.Vec + surgeMatWeight*act.Mat
	if computeAct <= 0.05 || act.Comm <= 0.05 {
		return 0
	}
	return math.Min(computeAct, act.Comm)
}

// solveFreqIdleComm resolves frequency for a device running only
// communication (or nothing).
func (c *Cluster) solveFreqIdleComm(dev int) float64 {
	act := c.deviceActivity(dev, 1, 0, 0, 0)
	return power.SolveFreq(c.g, act, c.cfg.Caps)
}

// Segment implements sim.Observer: it integrates per-GPU power over one
// constant-rate segment. The engine calls Segment immediately after
// Rates with the identical running set, so the device partition computed
// there is reused instead of rebuilt, and a device Rates skipped reuses
// the watts priced after its last solve.
func (c *Cluster) Segment(t0, t1 float64, running []*sim.Task) {
	fresh := c.partFresh && c.partLen == len(running)
	if !fresh {
		c.partition(running)
	}
	c.partFresh = false
	c.repStats = nil
	for _, dev := range c.active {
		d := &c.dev[dev]
		var w float64
		switch {
		case fresh && d.priced:
			w = d.watts
		case len(d.compute) == 0 && len(d.comms) == 0 && c.freq[dev] == c.idleFreq:
			w = c.idleW
		default:
			w = power.Instant(c.g, c.segmentActivity(dev), c.freq[dev])
		}
		if fresh {
			d.watts, d.priced = w, true
		}
		c.samplers[dev].Add(t0, t1, w)
		if c.traces != nil {
			c.traces[dev].Add(t0, t1, w)
		}
	}
}

// segmentActivity reads activity directly from the rates the platform
// assigned for the current segment.
func (c *Cluster) segmentActivity(dev int) power.Activity {
	d := &c.dev[dev]
	var act power.Activity
	f := c.freq[dev]
	for i, t := range d.compute {
		v, m, mem := d.costs[i].Activity(t.Rate(), f)
		act.Vec += v
		act.Mat += m
		act.Mem += mem
	}
	for _, t := range d.comms {
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
