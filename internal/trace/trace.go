// Package trace holds kernel execution intervals from a finished
// simulation and implements the interval algebra behind the paper's
// profiling methodology: per-device compute and communication kernel time,
// and the overlapped fractions of each (Eq. 2), exactly as the authors
// extract them from the PyTorch profiler and torch.cuda.event timelines.
// A timeline is built from per-device interval lists (FromDevices); which
// tasks contribute them is the reader's business (exec.Plan measures a
// run from its representative devices only).
package trace

import (
	"sort"

	"overlapsim/internal/sim"
)

// Interval is one kernel execution span on one device.
type Interval struct {
	// Start and End bound the span in simulated seconds.
	Start, End float64
	// Name is the kernel's diagnostic name.
	Name string
	// Kind distinguishes compute from communication.
	Kind sim.Kind
	// Device is the GPU index.
	Device int
}

// Dur returns the interval length.
func (iv Interval) Dur() float64 { return iv.End - iv.Start }

// Timeline is a set of kernel intervals grouped by device.
type Timeline struct {
	byDevice [][]Interval // indexed by device; empty for a device not present
	start    float64
	end      float64
}

// FromDevices builds a timeline from per-device interval lists:
// byDevice[d] holds device d's intervals, and a device with none is not
// present. The timeline takes the lists over and sorts each by start in
// place. The sort is not stable, so the order a list arrives in decides
// how intervals with equal starts line up, and with it the float sums
// of DeviceOverlap: readers feed each list in task creation order.
func FromDevices(byDevice [][]Interval) *Timeline {
	tl := &Timeline{byDevice: byDevice}
	seen := false
	for _, ivs := range byDevice {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
		for _, iv := range ivs {
			if !seen || iv.Start < tl.start {
				tl.start = iv.Start
			}
			if !seen || iv.End > tl.end {
				tl.end = iv.End
			}
			seen = true
		}
	}
	return tl
}

// Devices returns the device indices present, in ascending order.
func (tl *Timeline) Devices() []int {
	var out []int
	for d, ivs := range tl.byDevice {
		if len(ivs) > 0 {
			out = append(out, d)
		}
	}
	return out
}

// Span returns the earliest start and latest end across all intervals.
func (tl *Timeline) Span() (start, end float64) { return tl.start, tl.end }

// KindSpan returns the earliest start and latest end of intervals of one
// kind across all devices; ok is false when none exist. Iteration latency
// uses the compute span start so that communication kernels posted early
// (before the iteration's first compute) do not stretch the window.
func (tl *Timeline) KindSpan(k sim.Kind) (start, end float64, ok bool) {
	for _, ivs := range tl.byDevice {
		for _, iv := range ivs {
			if iv.Kind != k {
				continue
			}
			if !ok || iv.Start < start {
				start = iv.Start
			}
			if !ok || iv.End > end {
				end = iv.End
			}
			ok = true
		}
	}
	return start, end, ok
}

// Intervals returns the intervals of one device, sorted by start. The
// slice is shared: callers must not modify it.
func (tl *Timeline) Intervals(device int) []Interval {
	if device < 0 || device >= len(tl.byDevice) {
		return nil
	}
	return tl.byDevice[device]
}

// DeviceOverlap returns the device's summed compute and comm kernel
// times (kernel time in the paper's sense: durations add even where
// kernels of one kind overlap each other) plus the portion of each kind's
// kernel time covered by the union of the other kind. With compute
// covered by comm this is the numerator of the paper's Eq. 2; with comm
// covered by compute it is the hidden communication time of Eq. 5. A
// device without intervals returns zeros.
func (tl *Timeline) DeviceOverlap(device int) (computeT, commT, computeOv, commOv float64) {
	ivs := tl.Intervals(device)
	for _, iv := range ivs {
		switch iv.Kind {
		case sim.KindCompute:
			computeT += iv.Dur()
		case sim.KindComm:
			commT += iv.Dur()
		}
	}
	computeOv = sweepIntersect(ivs, sim.KindCompute, unionSorted(ivs, sim.KindComm))
	commOv = sweepIntersect(ivs, sim.KindComm, unionSorted(ivs, sim.KindCompute))
	return computeT, commT, computeOv, commOv
}

// unionSorted merges the kind-k intervals of a start-sorted slice into a
// minimal sorted set of disjoint spans.
func unionSorted(ivs []Interval, k sim.Kind) []Interval {
	var out []Interval
	for _, iv := range ivs {
		if iv.Kind != k {
			continue
		}
		if len(out) == 0 {
			out = append(out, iv)
			continue
		}
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// sweepIntersect sums, over the kind-k intervals of the start-sorted
// slice ivs, the length of each interval's intersection with the sorted
// disjoint cover. The cover cursor only moves forward, so the sweep is
// linear in practice. Each interval accumulates its own subtotal before
// it is added to the sum; measurement digests pin that float grouping.
func sweepIntersect(ivs []Interval, k sim.Kind, cover []Interval) float64 {
	s := 0.0
	j := 0
	for _, a := range ivs {
		if a.Kind != k {
			continue
		}
		for j < len(cover) && cover[j].End <= a.Start {
			j++
		}
		sub := 0.0
		for k := j; k < len(cover) && cover[k].Start < a.End; k++ {
			lo := a.Start
			if cover[k].Start > lo {
				lo = cover[k].Start
			}
			hi := a.End
			if cover[k].End < hi {
				hi = cover[k].End
			}
			if hi > lo {
				sub += hi - lo
			}
		}
		s += sub
	}
	return s
}
