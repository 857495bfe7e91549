// Package trace records kernel execution intervals from a finished
// simulation and implements the interval algebra behind the paper's
// profiling methodology: per-device compute and communication kernel time,
// and the overlapped fractions of each (Eq. 2), exactly as the authors
// extract them from the PyTorch profiler and torch.cuda.event timelines.
package trace

import (
	"sort"

	"overlapsim/internal/collective"
	"overlapsim/internal/kernels"
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
	byDevice map[int][]Interval
	start    float64
	end      float64
	any      bool
}

// FromTasks builds a timeline from completed simulation tasks. Compute
// kernels contribute an interval on their stream's device; collectives
// contribute an interval on every participant. Tasks that never ran are
// skipped.
func FromTasks(tasks []*sim.Task) *Timeline {
	return FromTasksKept(tasks, nil)
}

// FromTasksKept builds a timeline restricted to the devices keep accepts
// (nil keeps every device). The symmetry fast path uses it to extract
// measurements from class representatives only: a collapsed device's
// intervals are bitwise copies of its representative's, so skipping them
// here loses no information and keeps measurement O(live devices).
func FromTasksKept(tasks []*sim.Task, keep func(device int) bool) *Timeline {
	tl := &Timeline{byDevice: make(map[int][]Interval)}
	// Size each device's interval list exactly before filling it: one
	// allocation per device instead of append doubling.
	counts := make(map[int]int)
	for _, t := range tasks {
		eachDevice(t, keep, func(iv Interval) { counts[iv.Device]++ })
	}
	for dev, n := range counts {
		tl.byDevice[dev] = make([]Interval, 0, n)
	}
	for _, t := range tasks {
		eachDevice(t, keep, tl.add)
	}
	tl.sortAll()
	return tl
}

// eachDevice is the one mapping from a task to the devices it occupies:
// it calls fn with the interval a completed task contributes to each
// device keep accepts — its stream's device for a compute kernel, every
// participant for a collective.
func eachDevice(t *sim.Task, keep func(device int) bool, fn func(iv Interval)) {
	if !t.Done() {
		return
	}
	switch p := t.Payload().(type) {
	case kernels.Desc:
		if dev := t.Streams()[0].Device(); keep == nil || keep(dev) {
			fn(Interval{Start: t.Start(), End: t.End(), Name: p.Name, Kind: sim.KindCompute, Device: dev})
		}
	case collective.Desc:
		for _, r := range p.Participants() {
			if keep == nil || keep(r) {
				fn(Interval{Start: t.Start(), End: t.End(), Name: p.Name, Kind: sim.KindComm, Device: r})
			}
		}
	}
}

func (tl *Timeline) add(iv Interval) {
	tl.byDevice[iv.Device] = append(tl.byDevice[iv.Device], iv)
	if !tl.any || iv.Start < tl.start {
		tl.start = iv.Start
	}
	if !tl.any || iv.End > tl.end {
		tl.end = iv.End
	}
	tl.any = true
}

func (tl *Timeline) sortAll() {
	for _, ivs := range tl.byDevice {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	}
}

// Devices returns the device indices present, in ascending order.
func (tl *Timeline) Devices() []int {
	out := make([]int, 0, len(tl.byDevice))
	for d := range tl.byDevice {
		out = append(out, d)
	}
	sort.Ints(out)
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

// Intervals returns the intervals of one device (sorted by start).
func (tl *Timeline) Intervals(device int) []Interval {
	ivs := tl.byDevice[device]
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	return ivs
}

// DeviceOverlap returns the device's summed compute and comm kernel
// times (kernel time in the paper's sense: durations add even where
// kernels of one kind overlap each other) plus the portion of each kind's
// kernel time covered by the union of the other kind. With compute
// covered by comm this is the numerator of the paper's Eq. 2; with comm
// covered by compute it is the hidden communication time of Eq. 5. A
// device without intervals returns zeros.
func (tl *Timeline) DeviceOverlap(device int) (computeT, commT, computeOv, commOv float64) {
	ivs := tl.byDevice[device]
	if !sortedByStart(ivs) {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	}
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

// sortedByStart reports whether the intervals are already sorted.
func sortedByStart(ivs []Interval) bool {
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Start < ivs[i-1].Start {
			return false
		}
	}
	return true
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
