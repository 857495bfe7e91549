package trace

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"overlapsim/internal/sim"
)

func iv(a, b float64, k sim.Kind, dev int) Interval {
	return Interval{Start: a, End: b, Kind: k, Device: dev}
}

// timelineOf builds a timeline from intervals listed in any device
// order; each device's keep the order they are listed in.
func timelineOf(ivs ...Interval) *Timeline {
	var byDevice [][]Interval
	for _, i := range ivs {
		for i.Device >= len(byDevice) {
			byDevice = append(byDevice, nil)
		}
		byDevice[i.Device] = append(byDevice[i.Device], i)
	}
	return FromDevices(byDevice)
}

func TestDeviceOverlapKernelTime(t *testing.T) {
	tl := timelineOf(
		iv(0, 2, sim.KindCompute, 0),
		iv(1, 3, sim.KindCompute, 0), // overlapping kernels
		iv(4, 5, sim.KindComm, 0),
	)
	computeT, commT, computeOv, commOv := tl.DeviceOverlap(0)
	if computeT != 4 {
		t.Errorf("compute kernel time = %g, want 4 (durations add)", computeT)
	}
	if commT != 1 {
		t.Errorf("comm kernel time = %g, want 1", commT)
	}
	if computeOv != 0 || commOv != 0 {
		t.Errorf("disjoint kinds overlap: compute %g, comm %g", computeOv, commOv)
	}
}

func TestOverlappedTime(t *testing.T) {
	tl := timelineOf(
		iv(0, 10, sim.KindCompute, 0),
		iv(2, 5, sim.KindComm, 0),
		iv(8, 12, sim.KindComm, 0),
	)
	computeT, commT, computeOv, commOv := tl.DeviceOverlap(0)
	if computeT != 10 || commT != 7 {
		t.Errorf("kernel times = %g compute, %g comm, want 10 and 7", computeT, commT)
	}
	// compute ∩ comm = [2,5) + [8,10) = 5
	if computeOv != 5 {
		t.Errorf("overlapped compute = %g, want 5", computeOv)
	}
	// comm ∩ compute = same span lengths within comm = 5
	if commOv != 5 {
		t.Errorf("overlapped comm = %g, want 5", commOv)
	}
	if got := computeOv / computeT; got != 0.5 {
		t.Errorf("overlap ratio = %g, want 0.5", got)
	}
}

func TestOverlapRatioNoCompute(t *testing.T) {
	tl := timelineOf(iv(0, 1, sim.KindComm, 0))
	computeT, commT, computeOv, commOv := tl.DeviceOverlap(0)
	if computeT != 0 || computeOv != 0 {
		t.Errorf("no compute: compute time %g, overlapped %g, want 0", computeT, computeOv)
	}
	if commT != 1 || commOv != 0 {
		t.Errorf("comm time %g, overlapped %g, want 1 and 0", commT, commOv)
	}
}

func TestDevicesIsolated(t *testing.T) {
	tl := timelineOf(
		iv(0, 1, sim.KindCompute, 0),
		iv(0, 1, sim.KindComm, 1),
	)
	if _, _, got, _ := tl.DeviceOverlap(0); got != 0 {
		t.Errorf("cross-device overlap = %g, want 0", got)
	}
	devs := tl.Devices()
	if len(devs) != 2 || devs[0] != 0 || devs[1] != 1 {
		t.Errorf("devices = %v", devs)
	}
}

func TestSpanAndKindSpan(t *testing.T) {
	tl := timelineOf(
		iv(1, 2, sim.KindComm, 0),
		iv(3, 7, sim.KindCompute, 0),
	)
	s, e := tl.Span()
	if s != 1 || e != 7 {
		t.Errorf("span = [%g,%g]", s, e)
	}
	cs, ce, ok := tl.KindSpan(sim.KindCompute)
	if !ok || cs != 3 || ce != 7 {
		t.Errorf("compute span = [%g,%g] ok=%v", cs, ce, ok)
	}
	if _, _, ok := tl.KindSpan(sim.KindHost); ok {
		t.Error("no host intervals: ok must be false")
	}
}

// overlapOracle is the brute-force O(n²) reference for DeviceOverlap's
// overlapped times: summed over the kind-a intervals, the length of each
// one's intersection with the union of the kind-b intervals. It cuts
// each kind-a interval at every kind-b endpoint inside it and adds the
// pieces some kind-b interval covers.
func overlapOracle(ivs []Interval, a, b sim.Kind) float64 {
	s := 0.0
	for _, x := range ivs {
		if x.Kind != a {
			continue
		}
		cuts := []float64{x.Start, x.End}
		for _, y := range ivs {
			if y.Kind != b {
				continue
			}
			for _, c := range []float64{y.Start, y.End} {
				if c > x.Start && c < x.End {
					cuts = append(cuts, c)
				}
			}
		}
		sort.Float64s(cuts)
		for i := 1; i < len(cuts); i++ {
			lo, hi := cuts[i-1], cuts[i]
			if hi <= lo {
				continue
			}
			for _, y := range ivs {
				if y.Kind == b && y.Start <= lo && hi <= y.End {
					s += hi - lo
					break
				}
			}
		}
	}
	return s
}

// checkDeviceOverlap compares DeviceOverlap on one device's intervals,
// added in the given (possibly unsorted) order, against the kernel-time
// sums and the brute-force oracle.
func checkDeviceOverlap(t *testing.T, ivs []Interval) bool {
	t.Helper()
	tl := timelineOf(ivs...)
	wantComputeT, wantCommT := 0.0, 0.0
	for _, x := range ivs {
		if x.Kind == sim.KindCompute {
			wantComputeT += x.Dur()
		} else {
			wantCommT += x.Dur()
		}
	}
	wantComputeOv := overlapOracle(ivs, sim.KindCompute, sim.KindComm)
	wantCommOv := overlapOracle(ivs, sim.KindComm, sim.KindCompute)
	computeT, commT, computeOv, commOv := tl.DeviceOverlap(0)
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9 }
	if !near(computeT, wantComputeT) || !near(commT, wantCommT) ||
		!near(computeOv, wantComputeOv) || !near(commOv, wantCommOv) {
		t.Logf("intervals %v:\ngot  compute %g comm %g computeOv %g commOv %g\nwant compute %g comm %g computeOv %g commOv %g",
			ivs, computeT, commT, computeOv, commOv, wantComputeT, wantCommT, wantComputeOv, wantCommOv)
		return false
	}
	return computeOv <= computeT+1e-9 && commOv <= commT+1e-9
}

// Property: DeviceOverlap's overlapped times match the brute-force
// oracle and never exceed their kind's kernel time. Starts sit on a
// coarse grid and durations include zero, so equal starts, nested
// intervals and zero-length intervals are common.
func TestQuickOverlapBounded(t *testing.T) {
	fixed := []Interval{
		iv(0, 4, sim.KindCompute, 0),
		iv(0, 2, sim.KindComm, 0), // equal start
		iv(1, 3, sim.KindCompute, 0),
		iv(1, 1.5, sim.KindComm, 0), // nested
		iv(2, 2, sim.KindComm, 0),   // zero-length
		iv(3, 3, sim.KindCompute, 0),
		iv(3.5, 6, sim.KindComm, 0),
		iv(4, 5, sim.KindComm, 0),
	}
	if !checkDeviceOverlap(t, fixed) {
		t.Error("fixed case disagrees with the oracle")
	}
	f := func(spans []uint16) bool {
		if len(spans) > 40 {
			spans = spans[:40]
		}
		ivs := make([]Interval, 0, len(spans))
		for _, sp := range spans {
			start := float64(sp%64) / 4
			dur := float64((sp>>6)%16) / 4
			k := sim.KindCompute
			if sp>>10&1 == 1 {
				k = sim.KindComm
			}
			ivs = append(ivs, iv(start, start+dur, k, 0))
		}
		return checkDeviceOverlap(t, ivs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
