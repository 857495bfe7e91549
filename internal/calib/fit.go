package calib

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"overlapsim/internal/collective"
	"overlapsim/internal/core"
	"overlapsim/internal/hw"
	"overlapsim/internal/model"
	"overlapsim/internal/precision"
)

// FitOptions configure a fit.
type FitOptions struct {
	// Registry resolves the profile's GPU and system names; nil uses the
	// default registry. Fitted hardware is never registered here — the
	// fit's output is the overlay, which the caller loads where it
	// wants it.
	Registry *hw.Registry
	// Suffix names the calibrated GPU/system: stock name + Suffix
	// (default "-cal"). Ignored when Override is set.
	Suffix string
	// Override keeps the stock names and marks the overlay entries
	// "override": true, so loading it replaces the stock hardware
	// in-registry instead of registering parallel "-cal" entries.
	Override bool
}

// Fitted is the result of a fit: the calibrated hardware plus
// human-readable notes on what each fitter did.
type Fitted struct {
	// ProfileName echoes the profile's label.
	ProfileName string `json:"profile,omitempty"`
	// BaseGPU and BaseSystem are the stock registry names the fit
	// anchored to.
	BaseGPU    string `json:"base_gpu"`
	BaseSystem string `json:"base_system"`
	// GPU and System are the calibrated hardware.
	GPU    *hw.GPUSpec `json:"gpu"`
	System hw.System   `json:"system"`
	// Base is the stock system, kept for validation's side-by-side runs.
	Base hw.System `json:"-"`
	// Override mirrors FitOptions.Override into the overlay.
	Override bool `json:"override,omitempty"`
	// Notes describe each fitter's outcome, in fit order.
	Notes []string `json:"notes,omitempty"`
}

// DefaultSuffix names calibrated hardware when FitOptions leave Suffix
// empty: "H100" fits to "H100-cal".
const DefaultSuffix = "-cal"

// Fit maps a measured profile onto calibrated simulator parameters:
// GEMM roofline knees and memory headroom from the matmul sweep,
// per-tier collective efficiency and step latency from the collective
// sweep, and power-model components from the step profiles. Every
// fitter is a deterministic closed form — equal profiles (and equal
// stock hardware) fit to byte-identical overlays. The context bounds
// the step-replay simulations the power fitter runs.
func Fit(ctx context.Context, p *Profile, opts FitOptions) (*Fitted, error) {
	if err := p.Validate(); err != nil {
		recordFit(outcomeError)
		return nil, err
	}
	reg := opts.Registry
	if reg == nil {
		reg = hw.DefaultRegistry()
	}
	base := reg.GPU(p.GPU)
	if base == nil {
		recordFit(outcomeError)
		return nil, fmt.Errorf("calib: profile GPU %q is not registered", p.GPU)
	}
	baseSys, err := reg.System(p.System)
	if err != nil {
		recordFit(outcomeError)
		return nil, fmt.Errorf("calib: profile system: %w", err)
	}
	if baseSys.GPU == nil || !sameName(baseSys.GPU.Name, base.Name) {
		recordFit(outcomeError)
		return nil, fmt.Errorf("calib: profile system %q runs %q GPUs, profile measures %q",
			p.System, baseSys.GPU.Name, p.GPU)
	}

	g := base.Clone()
	f := &Fitted{
		ProfileName: p.Name,
		BaseGPU:     base.Name, BaseSystem: baseSys.Name,
		Base:     baseSys,
		Override: opts.Override,
	}

	if notes, err := fitRoofline(g, p.Matmuls); err != nil {
		recordFit(outcomeError)
		return nil, err
	} else {
		f.Notes = append(f.Notes, notes...)
	}
	nic, notes, err := fitCollectives(g, baseSys, p.Collectives)
	if err != nil {
		recordFit(outcomeError)
		return nil, err
	}
	f.Notes = append(f.Notes, notes...)
	if notes, err := fitPower(ctx, g, base, baseSys, nic, p); err != nil {
		recordFit(outcomeError)
		return nil, err
	} else {
		f.Notes = append(f.Notes, notes...)
	}

	suffix := opts.Suffix
	if suffix == "" {
		suffix = DefaultSuffix
	}
	if opts.Override {
		suffix = ""
	}
	g.Name = base.Name + suffix
	sys := baseSys
	sys.GPU = g
	sys.Name = baseSys.Name + suffix
	if nic != nil {
		sys.NIC = nic
	}
	f.GPU = g
	f.System = sys.Canonical()
	if err := f.System.Validate(); err != nil {
		recordFit(outcomeError)
		return nil, fmt.Errorf("calib: fitted system is not simulable: %w", err)
	}
	recordFit(outcomeOK)
	return f, nil
}

func sameName(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// effPoint is one compute-bound GEMM observation: reduction size and
// achieved fraction of peak.
type effPoint struct{ k, eff float64 }

// memBoundFrac classifies a GEMM as memory-bound when its peak-bandwidth
// memory time covers at least this fraction of the measured time; such
// points calibrate MemHeadroom and are excluded from the saturation fit.
// A genuinely memory-bound point sits near the achievable-bandwidth
// fraction (~0.85), a compute-bound one orders of magnitude lower, so
// the halfway threshold separates the regimes with wide margins.
const memBoundFrac = 0.5

// fitRoofline fits the GEMM saturation curve eff(k) = MaxEff*k/(k+KHalf)
// per datapath, and MemHeadroom from memory-bound points. The curve
// linearizes exactly: 1/eff = 1/MaxEff + (KHalf/MaxEff)*(1/k), so an
// ordinary least-squares line through (1/k, 1/eff) recovers both
// parameters in closed form. MaxEff is shared across datapaths (it
// models scheduling overheads, not datapath width), so the richest
// bucket fits (MaxEff, KHalf) jointly and the others fit KHalf with
// MaxEff held.
func fitRoofline(g *hw.GPUSpec, pts []MatmulPoint) ([]string, error) {
	if len(pts) == 0 {
		return []string{"roofline: no matmul points; saturation curve kept at stock"}, nil
	}
	var matHalf, matTF32, vec []effPoint
	var headrooms []float64
	for i, m := range pts {
		format, err := precision.Parse(m.Dtype)
		if err != nil {
			return nil, fmt.Errorf("calib: matmul %d: %w", i, err)
		}
		eff := precision.EffectiveGEMMFormat(format, m.MatrixUnits)
		path := precision.PathFor(eff, m.MatrixUnits)
		peak := g.PeakFLOPS(path, eff)
		if peak <= 0 {
			return nil, fmt.Errorf("calib: matmul %d: GPU %s has no %s %s throughput", i, g.Name, path, eff)
		}
		flops := 2 * float64(m.M) * float64(m.N) * float64(m.K)
		t := flops / (m.TFLOPs * 1e12)
		bytes := (float64(m.M)*float64(m.K) + float64(m.K)*float64(m.N) + float64(m.M)*float64(m.N)) * float64(format.Bytes())
		if tMem := bytes / (g.MemBWGBs * 1e9); tMem >= memBoundFrac*t {
			// Memory-bound: the achieved HBM bandwidth fraction is the
			// measurement, not the FLOP rate.
			headrooms = append(headrooms, (bytes/t)/(g.MemBWGBs*1e9))
			continue
		}
		frac := m.TFLOPs * 1e12 / peak
		if frac >= 1 {
			return nil, fmt.Errorf("calib: matmul %d: achieved %g TFLOP/s is at or above the %s %s peak %g TFLOP/s",
				i, m.TFLOPs, path, eff, peak/1e12)
		}
		pt := effPoint{k: float64(m.K), eff: frac}
		switch {
		case path == precision.Vector:
			vec = append(vec, pt)
		case eff == precision.TF32:
			matTF32 = append(matTF32, pt)
		default:
			matHalf = append(matHalf, pt)
		}
	}

	var notes []string
	if len(headrooms) > 0 {
		h := 0.0
		for _, v := range headrooms {
			if v > h {
				h = v
			}
		}
		if h > 1 {
			notes = append(notes, fmt.Sprintf("roofline: measured HBM bandwidth %.4g of peak clamped to 1", h))
			h = 1
		}
		g.MemHeadroom = h
		notes = append(notes, fmt.Sprintf("roofline: MemHeadroom=%.4g from %d memory-bound points", h, len(headrooms)))
	}

	// The richest compute-bound bucket anchors MaxEff; prefer the
	// half-precision matrix bucket (the paper's training format) on ties.
	type bucket struct {
		name string
		pts  []effPoint
		kh   *float64
	}
	buckets := []bucket{
		{"KHalfMatrix", matHalf, &g.KHalfMatrix},
		{"KHalfMatrixTF32", matTF32, &g.KHalfMatrixTF32},
		{"KHalfVector", vec, &g.KHalfVector},
	}
	joint := -1
	for i, b := range buckets {
		if len(b.pts) >= 2 && distinctK(b.pts) && (joint < 0 || len(b.pts) > len(buckets[joint].pts)) {
			joint = i
		}
	}
	if joint >= 0 {
		b := buckets[joint]
		maxEff, kh, ok := fitSaturation(b.pts)
		if ok {
			if maxEff > 1 {
				notes = append(notes, fmt.Sprintf("roofline: fitted MaxEff %.4g clamped to 1", maxEff))
				maxEff = 1
			}
			g.MaxEff = maxEff
			*b.kh = kh
			notes = append(notes, fmt.Sprintf("roofline: MaxEff=%.4g %s=%.4g from %d points", maxEff, b.name, kh, len(b.pts)))
		} else {
			notes = append(notes, fmt.Sprintf("roofline: %s joint fit degenerate; kept at stock", b.name))
			joint = -1
		}
	}
	for i, b := range buckets {
		if i == joint || len(b.pts) == 0 {
			continue
		}
		kh, ok := fitKHalf(b.pts, g.MaxEff)
		if !ok {
			notes = append(notes, fmt.Sprintf("roofline: %s fit degenerate (points above MaxEff?); kept at stock", b.name))
			continue
		}
		*b.kh = kh
		notes = append(notes, fmt.Sprintf("roofline: %s=%.4g from %d points", b.name, kh, len(b.pts)))
	}
	if len(notes) == 0 {
		notes = append(notes, "roofline: no compute-bound points; saturation curve kept at stock")
	}
	return notes, nil
}

func distinctK(pts []effPoint) bool {
	for _, p := range pts[1:] {
		if p.k != pts[0].k {
			return true
		}
	}
	return false
}

// fitSaturation solves the linearized saturation curve for (MaxEff,
// KHalf): least squares of y = a + b*x with x=1/k, y=1/eff, giving
// MaxEff=1/a, KHalf=b/a.
func fitSaturation(pts []effPoint) (maxEff, kHalf float64, ok bool) {
	n := float64(len(pts))
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x, y := 1/p.k, 1/p.eff
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	det := n*sxx - sx*sx
	if det <= 0 {
		return 0, 0, false
	}
	a := (sy*sxx - sx*sxy) / det
	b := (n*sxy - sx*sy) / det
	if a <= 0 || b <= 0 {
		return 0, 0, false
	}
	return 1 / a, b / a, true
}

// fitKHalf solves for KHalf with MaxEff held: least squares through the
// origin of (y - 1/E) = (K/E)*x.
func fitKHalf(pts []effPoint, maxEff float64) (float64, bool) {
	var num, den float64
	for _, p := range pts {
		x := 1 / p.k
		num += x * (1/p.eff - 1/maxEff)
		den += x * x
	}
	if den <= 0 {
		return 0, false
	}
	k := maxEff * num / den
	if k <= 0 || math.IsInf(k, 0) || math.IsNaN(k) {
		return 0, false
	}
	return k, true
}

// collPoint is one collective observation reduced to the a-b model's
// terms: wire bytes (or residual bytes for the NIC tier), latency-bound
// steps, and measured (or residual) seconds.
type collPoint struct {
	wire  float64
	steps float64
	secs  float64
}

// fitCollectives fits the intra-node collective efficiency (AlgEff) and
// step latency from points whose ring stays inside one node, then — on
// a multi-node system — the NIC tier's efficiency and latency from the
// residual of spanning points after the fitted intra-node phases are
// subtracted. The model per tier is T = wireBytes/bw + steps*latency,
// linear in (1/bw, latency): a 2x2 least-squares solve.
func fitCollectives(g *hw.GPUSpec, sys hw.System, pts []CollectivePoint) (*hw.NICSpec, []string, error) {
	if len(pts) == 0 {
		return nil, []string{"collective: no points; efficiencies kept at stock"}, nil
	}
	hop := hopFactor(sys)
	var intra, inter []CollectivePoint
	for i, c := range pts {
		if c.Ranks > sys.TotalGPUs() {
			return nil, nil, fmt.Errorf("calib: collective %d: %d ranks exceed system %s (%d GPUs)",
				i, c.Ranks, sys.Name, sys.TotalGPUs())
		}
		if c.Ranks <= sys.N {
			intra = append(intra, c)
		} else {
			inter = append(inter, c)
		}
	}

	var notes []string
	if len(intra) > 0 {
		var obs []collPoint
		for _, c := range intra {
			d := descFor(c)
			obs = append(obs, collPoint{
				wire:  d.WireBytesPerRank(),
				steps: float64(d.Steps()),
				secs:  measuredTime(d, c.BusGBs),
			})
		}
		u, lat, ok := fitAlphaBeta(obs, g.LinkLatency*hop)
		if !ok || u <= 0 {
			notes = append(notes, "collective: intra-node fit degenerate; kept at stock")
		} else {
			algEff := (1 / u) / (g.LinkBWGBs / 2 * 1e9)
			if algEff > 1 {
				notes = append(notes, fmt.Sprintf("collective: intra-node efficiency %.4g above link peak clamped to 1", algEff))
				algEff = 1
			}
			g.AlgEff = algEff
			if lat >= 0 {
				g.LinkLatency = lat / hop
			} else {
				notes = append(notes, "collective: fitted negative intra-node latency; kept at stock")
			}
			notes = append(notes, fmt.Sprintf("collective: AlgEff=%.4g LinkLatency=%.4gs from %d intra-node points",
				g.AlgEff, g.LinkLatency, len(intra)))
		}
	} else {
		notes = append(notes, "collective: no intra-node points; link efficiency kept at stock")
	}

	if len(inter) == 0 {
		return nil, notes, nil
	}
	if sys.NodeCount() < 2 {
		return nil, nil, fmt.Errorf("calib: profile has %d-rank collective points but system %s is a single %d-GPU node",
			inter[0].Ranks, sys.Name, sys.N)
	}
	stock := sys.NICSpec()
	var obs []collPoint
	for i, c := range inter {
		d := descFor(c)
		intraT, nicWire, nicSteps := nicDecompose(d, sys, g, hop)
		resid := measuredTime(d, c.BusGBs) - intraT
		if resid <= 0 {
			return nil, nil, fmt.Errorf("calib: collective %d: measured time is below the fitted intra-node phases (bus bandwidth %g GB/s too high for %d ranks)",
				i, c.BusGBs, c.Ranks)
		}
		obs = append(obs, collPoint{wire: nicWire, steps: nicSteps, secs: resid})
	}
	u, lat, ok := fitAlphaBeta(obs, stock.Latency)
	if !ok || u <= 0 {
		notes = append(notes, "collective: NIC-tier fit degenerate; kept at stock")
		return nil, notes, nil
	}
	nic := stock
	algEff := (1 / u) / (stock.BWGBs * 1e9)
	if algEff > 1 {
		notes = append(notes, fmt.Sprintf("collective: NIC efficiency %.4g above wire peak clamped to 1", algEff))
		algEff = 1
	}
	nic.AlgEff = algEff
	if lat >= 0 {
		nic.Latency = lat
	} else {
		notes = append(notes, "collective: fitted negative NIC latency; kept at stock")
	}
	notes = append(notes, fmt.Sprintf("collective: NIC AlgEff=%.4g Latency=%.4gs from %d spanning points",
		nic.AlgEff, nic.Latency, len(inter)))
	return &nic, notes, nil
}

// hopFactor is the ratio of one intra-node collective step's latency to
// the GPU's link latency: switched fabrics pay an extra half hop for
// the switch traversal (topo.Switched.HopLatency), meshes do not.
func hopFactor(sys hw.System) float64 {
	if sys.FabricKind() == hw.FabricMesh {
		return 1
	}
	return 1.5
}

func descFor(c CollectivePoint) collective.Desc {
	op, err := parseOp(c.Op)
	if err != nil {
		// Validate gates Fit, so an unparseable op cannot reach here;
		// fall back to the factor-1 op rather than panicking in a
		// library path.
		op = collective.Broadcast
	}
	return collective.Desc{Name: c.Op, Op: op, Bytes: c.Bytes, N: c.Ranks}
}

// measuredTime inverts collective.BusBW: the completion time a measured
// bus bandwidth implies. For every ring collective the bus-bandwidth
// normalization equals WireBytesPerRank/Bytes, so the time is simply
// wire bytes over bus rate.
func measuredTime(d collective.Desc, busGBs float64) float64 {
	return d.WireBytesPerRank() / (busGBs * 1e9)
}

// nicDecompose mirrors the hierarchical ring decomposition of
// collective.Time for a two-tier (node + NIC) fabric with contiguous
// rank placement: it returns the time of the intra-node phase under the
// currently fitted GPU parameters, plus the NIC phase's wire bytes and
// step count. A unit test pins this mirror against collective.Time so
// the two cannot drift apart.
func nicDecompose(d collective.Desc, sys hw.System, g *hw.GPUSpec, hop float64) (intraT, nicWire, nicSteps float64) {
	nodes := (d.N + sys.N - 1) / sys.N
	perNode := (d.N + nodes - 1) / nodes
	n := float64(d.N)
	shard := d.Bytes
	filled := 1

	bytesFor := func(k int) (float64, int) {
		kf := float64(k)
		switch d.Op {
		case collective.AllReduce:
			return 2 * shard * (kf - 1) / kf, 2 * (k - 1)
		case collective.AllGather, collective.ReduceScatter:
			return shard * (kf - 1) / kf, k - 1
		case collective.Broadcast:
			return d.Bytes, k - 1
		case collective.AllToAll:
			return d.Bytes * float64(filled*k-filled) / n, k - 1
		default:
			return 0, 0
		}
	}
	if perNode >= 2 {
		b, s := bytesFor(perNode)
		intraBW := g.LinkBWGBs / 2 * g.AlgEff * 1e9
		intraT = b/intraBW + float64(s)*g.LinkLatency*hop
		shard /= float64(perNode)
		filled = perNode
	}
	if nodes >= 2 {
		b, s := bytesFor(nodes)
		nicWire, nicSteps = b, float64(s)
	}
	return intraT, nicWire, nicSteps
}

// fitAlphaBeta solves min sum (u*wire + lat*steps - secs)^2 over (u,
// lat) — the inverse bandwidth and per-step latency of one tier. With a
// singular system (one point, or bytes and steps collinear) it holds
// lat at the fallback and solves for u alone.
func fitAlphaBeta(obs []collPoint, fallbackLat float64) (u, lat float64, ok bool) {
	var sww, sws, sss, swt, sst float64
	for _, o := range obs {
		sww += o.wire * o.wire
		sws += o.wire * o.steps
		sss += o.steps * o.steps
		swt += o.wire * o.secs
		sst += o.steps * o.secs
	}
	det := sww*sss - sws*sws
	if det > 1e-9*sww*sss {
		u = (swt*sss - sws*sst) / det
		lat = (sww*sst - sws*swt) / det
		if u > 0 {
			return u, lat, true
		}
	}
	// Singular: hold latency, fit bandwidth alone.
	if sww <= 0 {
		return 0, 0, false
	}
	var num float64
	for _, o := range obs {
		num += o.wire * (o.secs - o.steps*fallbackLat)
	}
	u = num / sww
	if u <= 0 {
		return 0, 0, false
	}
	return u, fallbackLat, true
}

// fitPower fits the dynamic power components. The measured idle power
// (when profiled) becomes IdleW directly. Each step profile is then
// replayed on the already-fitted timing parameters with the base power
// split — so the simulated component durations match the measured
// machine, and all that is left to fit is the power magnitudes. The
// single scale factor s minimizing sum (measuredDyn - s*simulatedDyn)^2
// — least squares through the origin — multiplies every dynamic
// component, and the mean residual of the measured peaks lands on
// SurgeW (the component that only shows under compute/communication
// co-activity, which is where peaks occur).
func fitPower(ctx context.Context, g, base *hw.GPUSpec, baseSys hw.System, nic *hw.NICSpec, p *Profile) ([]string, error) {
	var notes []string
	if p.Power != nil {
		if p.Power.IdleW >= g.TDPW {
			return nil, fmt.Errorf("calib: measured idle power %g W at or above TDP %g W", p.Power.IdleW, g.TDPW)
		}
		g.Power.IdleW = p.Power.IdleW
		notes = append(notes, fmt.Sprintf("power: IdleW=%.4g measured", g.Power.IdleW))
	}
	if len(p.Steps) == 0 {
		notes = append(notes, "power: no step profiles; dynamic components kept at stock")
		return notes, nil
	}

	replayG := *g
	replayG.Power = base.Power
	replaySys := baseSys
	replaySys.GPU = &replayG
	if nic != nil {
		replaySys.NIC = nic
	}

	type peakPair struct{ measDyn, simDyn float64 }
	var sMeasSim, sSimSim float64
	var peaks []peakPair
	for i, st := range p.Steps {
		cfg, err := stepConfig(replaySys, st)
		if err != nil {
			return nil, fmt.Errorf("calib: step %d: %w", i, err)
		}
		res, err := core.Run(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("calib: step %d (%s): replaying on fitted timing: %w", i, cfg.Label(), err)
		}
		simAvg := res.Overlapped.AvgTDP * base.TDPW
		simDyn := simAvg - base.Power.IdleW
		measDyn := st.AvgPowerW - g.Power.IdleW
		if simDyn <= 0 || measDyn <= 0 {
			notes = append(notes, fmt.Sprintf("power: step %d has no dynamic draw; skipped", i))
			continue
		}
		sMeasSim += measDyn * simDyn
		sSimSim += simDyn * simDyn
		if st.PeakPowerW > 0 {
			peaks = append(peaks, peakPair{
				measDyn: st.PeakPowerW - g.Power.IdleW,
				simDyn:  res.Overlapped.PeakTDP*base.TDPW - base.Power.IdleW,
			})
		}
	}
	if sSimSim <= 0 {
		notes = append(notes, "power: no usable step profiles; dynamic components kept at stock")
		return notes, nil
	}
	s := sMeasSim / sSimSim
	g.Power.VectorW = s * base.Power.VectorW
	g.Power.MatrixW = s * base.Power.MatrixW
	g.Power.MemW = s * base.Power.MemW
	g.Power.CommW = s * base.Power.CommW
	g.Power.SurgeW = s * base.Power.SurgeW
	notes = append(notes, fmt.Sprintf("power: dynamic components scaled %.4gx from %d step profiles", s, len(p.Steps)))

	if len(peaks) > 0 {
		// What the scaled model still misses at the peaks — the
		// co-activity spike the average fit cannot see — lands on the
		// surge component.
		adj := 0.0
		for _, pk := range peaks {
			adj += pk.measDyn - s*pk.simDyn
		}
		adj /= float64(len(peaks))
		g.Power.SurgeW = math.Max(0, g.Power.SurgeW+adj)
		notes = append(notes, fmt.Sprintf("power: SurgeW=%.4g after peak residual %+.4g W over %d peaks", g.Power.SurgeW, adj, len(peaks)))
	}
	return notes, nil
}

// stepConfig maps a step profile onto a core config on the given
// system.
func stepConfig(sys hw.System, st StepPoint) (core.Config, error) {
	m, err := model.ByName(st.Model)
	if err != nil {
		return core.Config{}, err
	}
	par, err := core.ParseParallelism(st.Parallelism)
	if err != nil {
		return core.Config{}, err
	}
	format, err := precision.Parse(st.Format)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		System:      sys,
		Model:       m,
		Parallelism: par,
		Batch:       st.Batch,
		MicroBatch:  st.MicroBatch,
		TPDegree:    st.TPDegree,
		Format:      format,
		MatrixUnits: st.MatrixUnits,
	}, nil
}

// Overlay renders the fitted hardware as an hw.Load-compatible JSON
// file, every calibration field explicit so none of hw's vendor-typical
// defaults apply. Equal fits produce byte-identical overlays:
// encoding/json sorts the TFLOPS map keys and struct fields encode in
// declaration order.
func (f *Fitted) Overlay() ([]byte, error) {
	g := f.GPU
	sys := f.System.Canonical()
	gj := hw.GPUJSON{
		Name:     g.Name,
		Override: f.Override,
		Vendor:   g.Vendor.String(),
		Year:     g.Year,
		SMs:      g.SMs,
		BoostMHz: g.BoostMHz,

		MemGB:       g.MemGB,
		MemBWGBs:    g.MemBWGBs,
		MemHeadroom: g.MemHeadroom,

		LinkBWGBs:   g.LinkBWGBs,
		LinkLatency: g.LinkLatency,
		AlgEff:      g.AlgEff,

		TDPW: g.TDPW,

		VectorTFLOPS: tflopsJSON(g.VectorTFLOPS),
		MatrixTFLOPS: tflopsJSON(g.MatrixTFLOPS),

		KHalfVector:     g.KHalfVector,
		KHalfMatrix:     g.KHalfMatrix,
		KHalfMatrixTF32: g.KHalfMatrixTF32,
		MaxEff:          g.MaxEff,

		Power: &hw.PowerJSON{
			IdleW: g.Power.IdleW, VectorW: g.Power.VectorW, MatrixW: g.Power.MatrixW,
			MemW: g.Power.MemW, CommW: g.Power.CommW, SurgeW: g.Power.SurgeW,
			FMin: g.Power.FMin, FreqExp: g.Power.FreqExp,
		},
		Contention: &hw.ContentionJSON{
			CollSMsReduce: g.Contention.CollSMsReduce, CollSMsCopy: g.Contention.CollSMsCopy,
			HBMPerWireByte: g.Contention.HBMPerWireByte, SerializeFrac: g.Contention.SerializeFrac,
		},
	}
	sj := hw.SystemJSON{
		Name:        sys.Name,
		Override:    f.Override,
		GPU:         g.Name,
		GPUsPerNode: sys.N,
		Nodes:       sys.Nodes,
		Fabric:      sys.Fabric,
	}
	if sys.NodeCount() > 1 {
		nic := sys.NICSpec()
		if nic.Latency <= 0 {
			// NICJSON treats latency_s 0 as "take the default"; a fitted
			// zero would not round-trip. The fitters clamp at stock before
			// this point, so this is a belt against future fitters.
			nic.Latency = hw.DefaultNIC().Latency
		}
		sj.NIC = &hw.NICJSON{BWGBs: nic.BWGBs, Latency: nic.Latency, AlgEff: nic.AlgEff}
	}
	file := hw.File{GPUs: []hw.GPUJSON{gj}, Systems: []hw.SystemJSON{sj}}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("calib: encoding overlay: %w", err)
	}
	return append(out, '\n'), nil
}

func tflopsJSON(m map[precision.Format]float64) map[string]float64 {
	if m == nil {
		return nil
	}
	out := make(map[string]float64, len(m))
	for f, v := range m {
		out[lowerFormat(f)] = v
	}
	return out
}

func lowerFormat(f precision.Format) string {
	switch f {
	case precision.FP32:
		return "fp32"
	case precision.TF32:
		return "tf32"
	case precision.FP16:
		return "fp16"
	case precision.BF16:
		return "bf16"
	default:
		return fmt.Sprintf("format%d", int(f))
	}
}
