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
// The model is also incremental. The engine hands Rates the tasks that
// entered and left the running set, and the cluster keeps each device's
// share of it (its partition) across epochs, in creation order. A change
// marks the touched devices dirty, and only dirty devices are solved: a
// device whose running kernels, collectives and gate bits did not change
// keeps its rates, because a solve is a pure function of those and of
// its starting frequency. That frequency is the last solve's result, so
// a device with compute stays dirty while its last solve moved its
// frequency, and is left alone once a solve ends at a bitwise fixed point.
//
// A dirty device whose key equals its last solve's key, with the same
// compute task, is skipped outright: equal keys mean its frequency did
// not move, so its frequency and its task's rate are already what a solve
// would write, and Segment reuses the watts it priced after that solve.
// Partitions the key cannot hold — a kernel that was never prepared
// (kernels.Desc.CostOn returns a fresh Cost, priced once when the task
// enters), or more tasks than its fixed width — are solved afresh
// whenever they are dirty. Devices without compute are keyed for the
// skip but never memoized: their solve is a few multiplications, and they
// made more than half of a paper-grid sweep's memo entries.
package gpu

import (
	"fmt"
	"math"
	"math/bits"
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
// Rates applies the engine's running-set delta to the device partitions
// it keeps across epochs and solves the dirty devices through the memo
// (see the package comment), skipping a device whose key and compute
// tasks are those of its last solve. Segment integrates the partitions
// and frequencies of the preceding Rates call, reusing each device's
// watts until a change unprices them. These shortcuts reproduce the full
// per-epoch recompute bit for bit; FuzzClusterRates checks them against
// a reference copy of it.
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

	// dev holds each device's partition and last solve. dirty is the set
	// of devices the next Rates solves, one bit per device.
	dev   []device
	dirty []uint64

	// gated lists the running comms that have a gate, for the poll that
	// catches gate flips; stale holds the comms whose rate the current
	// Rates call sets, in creation order.
	gated []gatedComm
	stale []rating

	// memo maps solve inputs to outputs (see solveKey); it is cleared
	// whenever it reaches memoCap entries. solves counts the solves that
	// consulted it and inserts its insertions, for tests.
	memo    map[solveKey]solution
	solves  int
	inserts int

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

// device is one GPU's partition of the running set, kept in creation
// (Task.Seq) order across epochs, plus the record of its last solve.
type device struct {
	compute []kernel
	comms   []comm

	// key and task are the last solve's key and compute task (nil
	// without compute); keyed marks them valid (the last solve fit the
	// key).
	key   solveKey
	task  *sim.Task
	keyed bool

	// watts is the segment power priced for the solved state; priced
	// marks it valid. A change to the partition or a solve clears it.
	watts  float64
	priced bool
}

// kernel is a running compute task with its cost on the cluster's GPU,
// priced when it entered; prepared marks a prepared descriptor's shared
// Cost, which the memo key may hold.
type kernel struct {
	t        *sim.Task
	cost     *kernels.Cost
	prepared bool
}

// comm is a running collective on one of its devices with its gate bit.
type comm struct {
	t       *sim.Task
	waiting bool
}

// gatedComm is a running comm with a gate, the gate itself (so a poll
// reads no payload) and the gate bit its placement was made with.
type gatedComm struct {
	t       *sim.Task
	gate    collective.Gate
	waiting bool
}

// rating is a comm whose rate is due: 0 while waiting, its wire
// bandwidth times its jitter otherwise.
type rating struct {
	t       *sim.Task
	wire    float64
	waiting bool
}

// insertKernel, insertComm and insertRating insert an entry into a list
// kept in creation (Task.Seq) order. Tasks mostly enter after the ones
// already listed, so the scan runs from the end. They are written per
// type: a generic version calls the entry's accessor through a
// dictionary, uninlined, which a lock-step run pays on every epoch.
func insertKernel(s []kernel, k kernel) []kernel {
	i := len(s)
	for i > 0 && s[i-1].t.Seq() > k.t.Seq() {
		i--
	}
	s = append(s, k)
	if i < len(s)-1 {
		copy(s[i+1:], s[i:])
		s[i] = k
	}
	return s
}

func insertComm(s []comm, cm comm) []comm {
	i := len(s)
	for i > 0 && s[i-1].t.Seq() > cm.t.Seq() {
		i--
	}
	s = append(s, cm)
	if i < len(s)-1 {
		copy(s[i+1:], s[i:])
		s[i] = cm
	}
	return s
}

func insertRating(s []rating, r rating) []rating {
	i := len(s)
	for i > 0 && s[i-1].t.Seq() > r.t.Seq() {
		i--
	}
	s = append(s, r)
	if i < len(s)-1 {
		copy(s[i+1:], s[i:])
		s[i] = r
	}
	return s
}

// removeKernel and removeComm remove t's entry, found by pointer;
// removeKernel also reports whether t was listed.
func removeKernel(s []kernel, t *sim.Task) ([]kernel, bool) {
	for i := range s {
		if s[i].t == t {
			return append(s[:i], s[i+1:]...), true
		}
	}
	return s, false
}

func removeComm(s []comm, t *sim.Task) []comm {
	for i := range s {
		if s[i].t == t {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
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
		task = d.compute[0].t
	}
	if task != d.task {
		return false
	}
	var waiting uint8
	for i, cm := range d.comms {
		if cm.t != k.comms[i] {
			return false
		}
		if cm.waiting {
			waiting |= 1 << i
		}
	}
	return waiting == k.waiting && (task == nil || k.freq == math.Float64bits(f))
}

// rekey records the key and compute task of the device's current
// partition, starting from frequency f, and reports whether the
// partition fits the key.
func (d *device) rekey(f float64) bool {
	d.keyed = len(d.comms) <= keyComms &&
		(len(d.compute) == 0 || len(d.compute) == 1 && d.compute[0].prepared)
	if !d.keyed {
		return false
	}
	d.key, d.task = solveKey{}, nil
	if len(d.compute) == 1 {
		k := d.compute[0]
		d.task, d.key.cost, d.key.freq = k.t, k.cost, math.Float64bits(f)
	}
	for i, cm := range d.comms {
		d.key.comms[i] = cm.t
		if cm.waiting {
			d.key.waiting |= 1 << i
		}
	}
	return true
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
		dirty:  make([]uint64, (n+63)/64),
		memo:   make(map[solveKey]solution),
		active: make([]int, n),
	}
	for i := range c.freq {
		c.freq[i] = 1
		c.active[i] = i
		c.markDirty(i)
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

// simulated reports whether device dev is simulated: a collapsed plan's
// aliased devices take their timelines from their class representative,
// so the cluster keeps no partition for them, which would re-introduce
// the O(ranks) cost the collapse removed.
func (c *Cluster) simulated(dev int) bool {
	return c.alias == nil || c.alias[dev] == dev
}

// markDirty queues simulated device dev for the next solve and unprices
// its watts.
func (c *Cluster) markDirty(dev int) {
	if c.simulated(dev) {
		c.dirty[dev>>6] |= 1 << (dev & 63)
		c.dev[dev].priced = false
	}
}

// enter adds a task that joined the running set to its devices'
// partitions. A compute task is priced here, once; a comm is placed by
// its gate bit and its rate falls due; a host task runs at unit rate.
func (c *Cluster) enter(t *sim.Task) {
	switch p := t.Payload().(type) {
	case kernels.Desc:
		dev := t.Streams()[0].Device()
		if !c.simulated(dev) {
			return
		}
		d := &c.dev[dev]
		d.compute = insertKernel(d.compute, kernel{t, p.CostOn(c.g), p.PreparedOn(c.g)})
		c.markDirty(dev)
	case collective.Desc:
		waiting := p.Waiting()
		if p.Gate != nil {
			c.gated = append(c.gated, gatedComm{t, p.Gate, waiting})
		}
		c.place(t, &p, waiting)
	default:
		// Host and other non-device tasks run at unit rate and occupy no
		// device resources.
		t.SetRate(1)
	}
}

// leave removes a task that left the running set from its devices'
// partitions. A compute task is found by pointer on its device, so its
// payload is not read.
func (c *Cluster) leave(t *sim.Task) {
	if dev := t.Streams()[0].Device(); dev >= 0 && dev < c.n {
		d := &c.dev[dev]
		var found bool
		if d.compute, found = removeKernel(d.compute, t); found {
			c.markDirty(dev)
			return
		}
	}
	p, ok := t.Payload().(collective.Desc)
	if !ok {
		return
	}
	waiting := false
	if p.Gate != nil {
		for i := range c.gated {
			if c.gated[i].t == t {
				waiting = c.gated[i].waiting
				last := len(c.gated) - 1
				c.gated[i] = c.gated[last]
				c.gated = c.gated[:last]
				break
			}
		}
	}
	c.unplace(t, &p, waiting)
}

// poll re-places every running gated comm whose gate flipped since it
// was placed: a posted SendRecv spins on its destination only, and a
// gate bit enters the pressure and the memo key.
func (c *Cluster) poll() {
	for i := range c.gated {
		g := &c.gated[i]
		if waiting := !g.gate.Done(); waiting != g.waiting {
			p := g.t.Payload().(collective.Desc)
			c.unplace(g.t, &p, g.waiting)
			g.waiting = waiting
			c.place(g.t, &p, waiting)
		}
	}
}

// occupied returns the devices comm p occupies with gate bit waiting. A
// posted receive spins only on the destination; the sender's kernel does
// not launch until the producer is done.
func occupied(p *collective.Desc, waiting bool) []int {
	if p.Op == collective.SendRecv && waiting {
		return []int{p.Dst}
	}
	return p.Participants()
}

// place adds comm t with gate bit waiting to its devices' partitions and
// makes its rate due.
func (c *Cluster) place(t *sim.Task, p *collective.Desc, waiting bool) {
	for _, r := range occupied(p, waiting) {
		if c.simulated(r) {
			d := &c.dev[r]
			d.comms = insertComm(d.comms, comm{t, waiting})
			c.markDirty(r)
		}
	}
	var wire float64
	if !waiting {
		wire = p.WireBW(c.fabric)
	}
	c.stale = insertRating(c.stale, rating{t, wire, waiting})
}

// unplace removes comm t, placed with gate bit waiting, from its
// devices' partitions.
func (c *Cluster) unplace(t *sim.Task, p *collective.Desc, waiting bool) {
	for _, r := range occupied(p, waiting) {
		if c.simulated(r) {
			d := &c.dev[r]
			d.comms = removeComm(d.comms, t)
			c.markDirty(r)
		}
	}
}

// Rates implements sim.Platform. It applies the running-set delta to the
// partitions, re-places the gated comms whose gate flipped, and then
// rates what changed: first the due comms in creation order, then the
// dirty devices in index order, which draws each jitter multiplier at
// the point the full per-epoch recompute would. Every other task keeps
// the rate it was given.
func (c *Cluster) Rates(now float64, running, entered, left []*sim.Task) {
	for _, t := range left {
		c.leave(t)
	}
	for _, t := range entered {
		c.enter(t)
	}
	c.poll()

	// Communication rates first: collectives are bandwidth-bound and set
	// the contention pressure computes see.
	for _, r := range c.stale {
		if r.waiting {
			// Posted-early kernel spinning for its producer: resident but
			// moving no data.
			r.t.SetRate(0)
		} else {
			r.t.SetRate(r.wire * c.jitterFor(r.t))
		}
	}
	c.stale = c.stale[:0]

	for w, word := range c.dirty {
		c.dirty[w] = 0
		for word != 0 {
			dev := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			f := c.freq[dev]
			c.solve(dev)
			if len(c.dev[dev].compute) > 0 && math.Float64bits(c.freq[dev]) != math.Float64bits(f) {
				// Not a fixed point yet: the next solve starts from the
				// new frequency and may move it again.
				c.markDirty(dev)
			}
		}
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

	for i, k := range d.compute {
		r := k.cost.Rate(f, smStolen, hbmStolen, serialize)
		if nCompute > 1 {
			r /= float64(nCompute)
		}
		if i == 0 {
			s.rate = r
		}
		k.t.SetRate(r * c.jitterFor(k.t))
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
		c.dev[d] = device{}
	}
	clear(c.dirty)
	c.gated, c.stale = c.gated[:0], c.stale[:0]
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
		if c.simulated(d) {
			c.active = append(c.active, d)
			c.markDirty(d)
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
	for _, cm := range c.dev[dev].comms {
		cd := cm.t.Payload().(collective.Desc)
		sm := float64(collective.SMOccupancy(cd, c.g))
		w := c.g.Contention.SerializeFrac * serializeWeight(cd.Op)
		if cm.waiting {
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
	for _, k := range d.compute {
		r := k.cost.Rate(f, smStolen, hbmStolen, serialize)
		if n > 1 {
			r /= float64(n)
		}
		v, m, mem := k.cost.Activity(r, f)
		act.Vec += v
		act.Mat += m
		act.Mem += mem
	}
	for _, cm := range d.comms {
		if cm.waiting {
			continue
		}
		cd := cm.t.Payload().(collective.Desc)
		c.addComm(&act, cd, cd.WireBW(c.fabric))
	}
	act.Surge = surgeActivity(act, surgeMatWeight)
	return act.Clamped()
}

// addComm adds to act the link utilization and the HBM draw of
// collective cd moving wireRate bytes per second.
func (c *Cluster) addComm(act *power.Activity, cd collective.Desc, wireRate float64) {
	act.Comm += wireRate / c.g.UniLinkBW()
	act.Mem += collective.HBMDraw(cd, c.g, wireRate) / c.g.MemBW()
}

// surgeMatWeight makes matrix-unit activity contribute disproportionately
// to the overlap surge in the activity the DVFS solve reads
// (deviceActivity): tensor-core current transients are the worst case
// for the voltage regulators, so matrix-heavy overlap throttles the
// frequency harder. The recorded watts do not see it: segmentActivity
// prices each segment with the same surge at a matrix weight of 1, so
// the weight moves power only through the frequency the solve picks.
const surgeMatWeight = 2.5

// surgeActivity derives the compute∧communication co-activity that drives
// the transient surge component, with matrix activity weighted by matW.
func surgeActivity(act power.Activity, matW float64) float64 {
	computeAct := act.Vec + matW*act.Mat
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
// constant-rate segment. It reads the partitions and rates of the
// preceding Rates call, not running: the engine calls Segment right
// after Rates with the same running set. A device's watts are priced
// once per change and reused until the next one.
func (c *Cluster) Segment(t0, t1 float64, running []*sim.Task) {
	c.repStats = nil
	for _, dev := range c.active {
		d := &c.dev[dev]
		if !d.priced {
			if len(d.compute) == 0 && len(d.comms) == 0 && c.freq[dev] == c.idleFreq {
				d.watts = c.idleW
			} else {
				d.watts = power.Instant(c.g, c.segmentActivity(dev), c.freq[dev])
			}
			d.priced = true
		}
		c.samplers[dev].Add(t0, t1, d.watts)
		if c.traces != nil {
			c.traces[dev].Add(t0, t1, d.watts)
		}
	}
}

// segmentActivity reads activity directly from the rates the platform
// assigned for the current segment.
func (c *Cluster) segmentActivity(dev int) power.Activity {
	d := &c.dev[dev]
	var act power.Activity
	f := c.freq[dev]
	for _, k := range d.compute {
		v, m, mem := k.cost.Activity(k.t.Rate(), f)
		act.Vec += v
		act.Mat += m
		act.Mem += mem
	}
	for _, cm := range d.comms {
		c.addComm(&act, cm.t.Payload().(collective.Desc), cm.t.Rate())
	}
	act.Surge = surgeActivity(act, 1)
	return act.Clamped()
}
