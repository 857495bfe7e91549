// Package trace records kernel execution intervals from a finished
// simulation and implements the interval algebra behind the paper's
// profiling methodology: per-device compute and communication kernel time,
// and the overlapped fractions of each (Eq. 2), exactly as the authors
// extract them from the PyTorch profiler and torch.cuda.event timelines.
package trace

import (
	"fmt"
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

// New returns an empty timeline.
func New() *Timeline {
	return &Timeline{byDevice: make(map[int][]Interval)}
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
	tl := New()
	// Size each device's interval list exactly before filling it: one
	// allocation per device instead of append doubling.
	counts := make(map[int]int)
	for _, t := range tasks {
		eachDevice(t, keep, func(dev int) { counts[dev]++ })
	}
	for dev, n := range counts {
		tl.byDevice[dev] = make([]Interval, 0, n)
	}
	for _, t := range tasks {
		tl.addTask(t, keep)
	}
	tl.sortAll()
	return tl
}

// eachDevice calls fn for every device a completed task contributes an
// interval to (see addTask).
func eachDevice(t *sim.Task, keep func(device int) bool, fn func(dev int)) {
	if !t.Done() {
		return
	}
	switch p := t.Payload().(type) {
	case kernels.Desc:
		if dev := t.Streams()[0].Device(); keep == nil || keep(dev) {
			fn(dev)
		}
	case collective.Desc:
		for _, r := range p.Participants() {
			if keep == nil || keep(r) {
				fn(r)
			}
		}
	}
}

// AddTask appends the intervals of one completed task.
func (tl *Timeline) AddTask(t *sim.Task) {
	tl.addTask(t, nil)
}

func (tl *Timeline) addTask(t *sim.Task, keep func(device int) bool) {
	if !t.Done() {
		return
	}
	switch p := t.Payload().(type) {
	case kernels.Desc:
		dev := t.Streams()[0].Device()
		if keep != nil && !keep(dev) {
			return
		}
		tl.add(Interval{Start: t.Start(), End: t.End(), Name: p.Name, Kind: sim.KindCompute, Device: dev})
	case collective.Desc:
		for _, r := range p.Participants() {
			if keep != nil && !keep(r) {
				continue
			}
			tl.add(Interval{Start: t.Start(), End: t.End(), Name: p.Name, Kind: sim.KindComm, Device: r})
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

// kindIntervals returns [start,end) pairs of one kind on one device.
func (tl *Timeline) kindIntervals(device int, k sim.Kind) []Interval {
	var out []Interval
	for _, iv := range tl.byDevice[device] {
		if iv.Kind == k {
			out = append(out, iv)
		}
	}
	return out
}

// KernelTime returns the summed duration of kernels of the given kind on
// the device (kernel time in the paper's sense — durations add even if
// spans overlap).
func (tl *Timeline) KernelTime(device int, k sim.Kind) float64 {
	s := 0.0
	for _, iv := range tl.kindIntervals(device, k) {
		s += iv.Dur()
	}
	return s
}

// BusyTime returns the length of the union of the device's intervals of
// the given kind.
func (tl *Timeline) BusyTime(device int, k sim.Kind) float64 {
	return UnionLen(tl.kindIntervals(device, k))
}

// OverlappedTime returns the total duration of kind-a kernels that is
// covered by the union of kind-b kernels on the device: with a=compute,
// b=comm this is the numerator of the paper's Eq. 2; with a=comm,
// b=compute it is the hidden communication time of Eq. 5.
func (tl *Timeline) OverlappedTime(device int, a, b sim.Kind) float64 {
	cover := Union(tl.kindIntervals(device, b))
	s := 0.0
	for _, iv := range tl.kindIntervals(device, a) {
		s += intersectLen(iv, cover)
	}
	return s
}

// DeviceOverlap returns the device's summed compute and comm kernel
// times plus the portion of each covered by the union of the other kind
// — the per-device quantities of Eqs. 2 and 5 — in one pass over the
// device's intervals. It is the batched equivalent of KernelTime and
// OverlappedTime called pairwise, with identical arithmetic (same
// interval order, same per-interval summation grouping), sized for the
// per-iteration measurement hot path.
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

// unionSorted is Union of the kind-k intervals of a start-sorted slice:
// it skips the defensive copy and sort, producing the identical disjoint
// cover.
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
// linear in practice; each interval accumulates its own subtotal first,
// reproducing intersectLen's float grouping exactly.
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

// OverlapRatio returns Eq. 2 for the device: the fraction of compute
// kernel time overlapped with communication. It returns 0 when the device
// has no compute time.
func (tl *Timeline) OverlapRatio(device int) float64 {
	c := tl.KernelTime(device, sim.KindCompute)
	if c <= 0 {
		return 0
	}
	return tl.OverlappedTime(device, sim.KindCompute, sim.KindComm) / c
}

// Union merges intervals into a minimal sorted set of disjoint spans.
func Union(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	sorted := make([]Interval, len(ivs))
	copy(sorted, ivs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	out := []Interval{sorted[0]}
	for _, iv := range sorted[1:] {
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

// UnionLen returns the length of the union of the intervals.
func UnionLen(ivs []Interval) float64 {
	s := 0.0
	for _, iv := range Union(ivs) {
		s += iv.Dur()
	}
	return s
}

// intersectLen returns the length of iv ∩ cover, where cover is disjoint
// and sorted.
func intersectLen(iv Interval, cover []Interval) float64 {
	s := 0.0
	for _, c := range cover {
		lo := iv.Start
		if c.Start > lo {
			lo = c.Start
		}
		hi := iv.End
		if c.End < hi {
			hi = c.End
		}
		if hi > lo {
			s += hi - lo
		}
		if c.Start >= iv.End {
			break
		}
	}
	return s
}

// String renders a compact per-device summary for debugging.
func (tl *Timeline) String() string {
	s := ""
	for _, d := range tl.Devices() {
		s += fmt.Sprintf("dev%d: compute=%.3fms comm=%.3fms overlap=%.1f%%\n",
			d,
			tl.KernelTime(d, sim.KindCompute)*1e3,
			tl.KernelTime(d, sim.KindComm)*1e3,
			tl.OverlapRatio(d)*100)
	}
	return s
}
