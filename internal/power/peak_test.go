package power

import (
	"math"
	"testing"
)

// peakScan is the phase-by-phase scan Peak replaced, kept as its
// reference: for each phase it walks the whole grid, advancing to the
// first segment that ends after each grid point and reading it if the
// segment has begun.
func peakScan(s *Sampler) float64 {
	p := 0.0
	for ph := 0; ph < peakPhases; ph++ {
		off := s.interval * float64(ph) / peakPhases
		si := 0
		for k := 0; ; k++ {
			t := float64(k)*s.interval + off
			for si < len(s.segs) && s.segs[si].t1 <= t {
				si++
			}
			if si >= len(s.segs) {
				break
			}
			if seg := s.segs[si]; t >= seg.t0 && seg.watts > p {
				p = seg.watts
			}
		}
	}
	return p
}

// FuzzSamplerPeak holds Peak to the scan bit for bit on fuzzed power
// traces: spans that abut, overlap by up to 2e-12 (as float rounding of
// the simulator's epoch ends does), leave gaps, or start inside an
// earlier span, at any of the telemetry intervals and at an interval
// whose phases fall off the tick grid, with watts that repeat so equal
// neighbours merge.
func FuzzSamplerPeak(f *testing.F) {
	f.Add(uint8(0), []byte{0, 8, 3, 1, 1, 9, 4, 16, 2, 0, 3, 9})
	f.Add(uint8(1), []byte{2, 40, 5, 5, 2, 15, 3, 255, 1, 6, 1, 15})
	f.Add(uint8(2), []byte{0, 1, 1, 1, 1, 2, 0, 1, 1, 1, 1, 2, 7, 200, 11})
	f.Add(uint8(3), []byte{11, 31, 14, 3, 7, 14, 9, 64, 6, 1, 2, 15})
	f.Fuzz(func(t *testing.T, iv uint8, data []byte) {
		interval := []float64{NVMLInterval, AMDSMIInterval, TraceInterval, 0.0137}[iv%4]
		s, err := NewSampler(interval)
		if err != nil {
			t.Fatal(err)
		}
		start, end := 0.0, 0.0
		for i := 0; i+2 < len(data) && i < 3*256; i += 3 {
			a, b, w := data[i], data[i+1], data[i+2]
			switch a % 4 {
			case 0:
				start = end
			case 1:
				start = end - 1e-12*float64(a/4%3)
			case 2:
				start = end + interval*float64(a/4)/16
			case 3:
				start += interval * float64(a/4) / 64
			}
			s.Add(start, start+interval*float64(b)/32, float64(w%16)*37.5)
			end = max(end, start+interval*float64(b)/32)
		}
		if got, want := s.Peak(), peakScan(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Peak %g, scan %g over %d segments at interval %g", got, want, len(s.segs), interval)
		}
	})
}

// BenchmarkSamplerPeak times Peak on a trace the shape of a simulated
// run's: a thousand short segments under one 20 ms sampling grid.
func BenchmarkSamplerPeak(b *testing.B) {
	s, err := NewSampler(AMDSMIInterval)
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 1000; k++ {
		s.Add(float64(k)*1e-3, float64(k+1)*1e-3, float64(100+k*7919%300))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Peak() <= 0 {
			b.Fatal("no peak")
		}
	}
}
