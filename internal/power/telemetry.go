package power

import (
	"fmt"
	"math"

	"overlapsim/internal/hw"
)

// Telemetry sampling intervals matching the paper's methodology (§IV-D and
// §V-B).
const (
	// NVMLInterval is the NVML power sampling interval on NVIDIA GPUs
	// (100 ms).
	NVMLInterval = 100e-3
	// AMDSMIInterval is the AMD-SMI sampling interval (20 ms).
	AMDSMIInterval = 20e-3
	// TraceInterval is the fine-grained ROCm-SMI interval used for the
	// Fig. 7 power trace (1 ms).
	TraceInterval = 1e-3
)

// SamplerIntervalFor returns the vendor-default sampling interval.
func SamplerIntervalFor(v hw.Vendor) float64 {
	if v == hw.AMD {
		return AMDSMIInterval
	}
	return NVMLInterval
}

// Sample is one telemetry reading: the instantaneous power at one sampler
// tick.
type Sample struct {
	// T is the reading time in seconds.
	T float64
	// Watts is the power at that instant.
	Watts float64
}

// segment is one span of constant instantaneous power.
type segment struct {
	t0, t1 float64
	watts  float64
}

// Sampler converts piecewise-constant instantaneous power into periodic
// point samples — the way NVML and AMD-SMI read a power register every
// interval — and integrates exact energy on the side. A coarse interval
// therefore misses short excursions, exactly as the paper observes for
// NVML's 100 ms granularity versus AMD-SMI's finer modes. The zero value
// is not usable; construct with NewSampler.
type Sampler struct {
	interval float64
	segs     []segment
	energy   float64
	dur      float64
	peakInst float64
}

// NewSampler returns a sampler reading every interval seconds. The
// interval must be positive: it can come straight from user
// configuration (core.Config.TraceInterval, the JSON hardware schema's
// calibration fields), so a bad value is an error, not a panic.
func NewSampler(interval float64) (*Sampler, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("power: invalid sampler interval %g", interval)
	}
	return &Sampler{interval: interval}, nil
}

// Interval returns the sampler tick period.
func (s *Sampler) Interval() float64 { return s.interval }

// Add records that instantaneous power was watts over [t0, t1). Spans must
// be appended in non-decreasing time order (the simulator guarantees
// this). Adjacent spans at equal power merge to bound memory.
func (s *Sampler) Add(t0, t1, watts float64) {
	if t1 <= t0 {
		return
	}
	s.energy += watts * (t1 - t0)
	s.dur += t1 - t0
	if watts > s.peakInst {
		s.peakInst = watts
	}
	if n := len(s.segs); n > 0 {
		last := &s.segs[n-1]
		if last.watts == watts && t0 <= last.t1+1e-12 {
			if t1 > last.t1 {
				last.t1 = t1
			}
			return
		}
	}
	s.segs = append(s.segs, segment{t0: t0, t1: t1, watts: watts})
}

// Samples returns the periodic point readings: the instantaneous power at
// every tick k·interval that falls inside a recorded span.
func (s *Sampler) Samples() []Sample {
	var out []Sample
	si := 0
	if len(s.segs) == 0 {
		return nil
	}
	end := s.segs[len(s.segs)-1].t1
	for k := 0; ; k++ {
		t := float64(k) * s.interval
		if t > end {
			break
		}
		for si < len(s.segs) && s.segs[si].t1 <= t {
			si++
		}
		if si >= len(s.segs) {
			break
		}
		if seg := s.segs[si]; t >= seg.t0 {
			out = append(out, Sample{T: t, Watts: seg.watts})
		}
	}
	return out
}

// Energy returns total integrated energy in joules (exact, independent of
// the sampling interval).
func (s *Sampler) Energy() float64 { return s.energy }

// Avg returns the time-weighted average power in watts (exact).
func (s *Sampler) Avg() float64 {
	if s.dur <= 0 {
		return 0
	}
	return s.energy / s.dur
}

// peakPhases is the number of sampling-grid phase offsets Peak explores.
// The paper averages over 25 runs; each run's sampler grid lands at a
// different phase of the iteration, so the reported peak is effectively
// the maximum over many phases.
const peakPhases = 25

// Peak returns the highest periodic reading in watts — what a power
// monitor at this interval reports as peak over repeated runs. A segment
// shorter than interval/peakPhases can still escape every grid, exactly
// as sub-millisecond transients escape real monitors.
//
// Phase ph reads the grid float64(k)*interval + ph·interval/peakPhases,
// k ≥ 0. A grid point belongs to the first segment that ends after it,
// and reads that segment's watts if the segment has begun. So the points
// a segment reads are those from the later of its start and every
// earlier segment's end up to its own end, and one walk over the
// segments finds the peak: it skips a segment whose watts cannot raise
// the peak so far, and otherwise tests each phase's first grid point in
// the segment's readable range, computed by the same float expression.
func (s *Sampler) Peak() float64 {
	var offs [peakPhases]float64
	for ph := range offs {
		offs[ph] = s.interval * float64(ph) / peakPhases
	}
	p := 0.0
	claimed := math.Inf(-1) // the latest end of the segments walked
	for _, seg := range s.segs {
		lo := max(claimed, seg.t0)
		claimed = max(claimed, seg.t1)
		if seg.watts > p && s.reads(lo, seg.t1, &offs) {
			p = seg.watts
		}
	}
	return p
}

// reads reports whether some phase, offset by one of offs, has a grid
// point float64(k)*interval + off, k ≥ 0, in [lo, t1). A grid too fine
// to index its ticks exactly (2^52 of them before lo) reads nothing.
func (s *Sampler) reads(lo, t1 float64, offs *[peakPhases]float64) bool {
	if lo >= t1 {
		return false
	}
	// Every offset is below one interval, so each phase's first point at
	// or after lo is a tick or two from k0; the expression decides.
	k0 := 0.0
	if lo > 0 {
		k0 = math.Ceil(lo/s.interval) - 1
	}
	if !(k0 < 1<<52) {
		return false
	}
	for _, off := range offs {
		k := max(int(k0), 0)
		for k > 0 && float64(k-1)*s.interval+off >= lo {
			k--
		}
		for float64(k)*s.interval+off < lo {
			k++
		}
		if float64(k)*s.interval+off < t1 {
			return true
		}
	}
	return false
}

// PeakInstant returns the highest instantaneous power regardless of
// sampling (the model's true transient peak).
func (s *Sampler) PeakInstant() float64 { return s.peakInst }

// Stats summarizes a sampler relative to a GPU's TDP.
type Stats struct {
	// AvgW is exact average power in watts.
	AvgW float64
	// PeakW is the highest periodic reading in watts.
	PeakW float64
	// PeakInstantW is the unsampled instantaneous peak.
	PeakInstantW float64
	// AvgTDP and PeakTDP are the same normalized to TDP (the paper's
	// Fig. 6/10/11 y-axes; peak uses the sampled reading, as the paper's
	// monitors do).
	AvgTDP, PeakTDP float64
	// EnergyJ is integrated energy in joules.
	EnergyJ float64
}

// StatsFor summarizes sampler s against GPU g. The reported peak is never
// below the exact average: on runs much shorter than the sampling
// interval the sparse point readings could otherwise miss every busy
// segment, which no real monitor's max-reading would.
func StatsFor(s *Sampler, g *hw.GPUSpec) Stats {
	peak := s.Peak()
	if avg := s.Avg(); peak < avg {
		peak = avg
	}
	return Stats{
		AvgW:         s.Avg(),
		PeakW:        peak,
		PeakInstantW: s.PeakInstant(),
		AvgTDP:       s.Avg() / g.TDPW,
		PeakTDP:      peak / g.TDPW,
		EnergyJ:      s.Energy(),
	}
}
