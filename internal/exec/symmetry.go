package exec

import (
	"math"
	"slices"

	"overlapsim/internal/collective"
	"overlapsim/internal/kernels"
	"overlapsim/internal/sim"
)

// PayloadEq reports whether two task payloads are equivalent for
// symmetry detection. It understands the payload types the executors
// attach (kernel and collective descriptors) and is deliberately
// conservative for everything else: unknown payload types never compare
// equal, so foreign plans simply stay uncollapsed. Interface equality
// (==) is not usable here — kernel descriptors contain slices.
func PayloadEq(a, b any) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case kernels.Desc:
		y, ok := b.(kernels.Desc)
		return ok && kernelDescEq(&x, &y)
	case collective.Desc:
		y, ok := b.(collective.Desc)
		return ok && collectiveDescEq(x, y)
	default:
		return false
	}
}

// kernelDescEq compares kernel descriptors field-wise, floats by bit
// pattern (rate computation is a pure function of these bits). The
// builders box each fused descriptor once and fan it out to every rank,
// so counterpart payloads nearly always share their Parts backing array
// — that identity short-circuits the recursion, which matters because
// detection compares every task of every candidate device.
func kernelDescEq(a, b *kernels.Desc) bool {
	if a.Name != b.Name || a.Op != b.Op ||
		math.Float64bits(a.FLOPs) != math.Float64bits(b.FLOPs) ||
		math.Float64bits(a.Bytes) != math.Float64bits(b.Bytes) ||
		math.Float64bits(a.M) != math.Float64bits(b.M) ||
		math.Float64bits(a.N) != math.Float64bits(b.N) ||
		math.Float64bits(a.K) != math.Float64bits(b.K) ||
		a.Format != b.Format || a.Path != b.Path ||
		len(a.Parts) != len(b.Parts) {
		return false
	}
	if len(a.Parts) == 0 || &a.Parts[0] == &b.Parts[0] {
		return true
	}
	for i := range a.Parts {
		if !kernelDescEq(&a.Parts[i], &b.Parts[i]) {
			return false
		}
	}
	return true
}

// collectiveDescEq compares the exported descriptor fields; the prepared
// (unexported) rate constants are pure functions of these plus the
// fabric, which counterpart tasks of one plan share. Gated descriptors
// only compare equal when neither has a gate — gate state is runtime
// identity, not structure.
func collectiveDescEq(a, b collective.Desc) bool {
	if a.Name != b.Name || a.Op != b.Op ||
		math.Float64bits(a.Bytes) != math.Float64bits(b.Bytes) ||
		a.N != b.N || a.Src != b.Src || a.Dst != b.Dst ||
		a.Gate != nil || b.Gate != nil ||
		len(a.Ranks) != len(b.Ranks) || len(a.Group) != len(b.Group) {
		return false
	}
	for i := range a.Ranks {
		if a.Ranks[i] != b.Ranks[i] {
			return false
		}
	}
	for i := range a.Group {
		if a.Group[i] != b.Group[i] {
			return false
		}
	}
	return true
}

// SymmetryClasses runs the structural symmetry detector on the plan's
// engine and returns the device partition. Valid only before the plan
// has run (nil afterwards). Detection does not modify the schedule.
func (p *Plan) SymmetryClasses() []sim.Class {
	return p.Engine.DetectClasses(PayloadEq)
}

// DeclaredClasses returns the device partition the plan's builder
// declared — every declared replica in one class, every other device
// alone, in the order DetectClasses lists them — or nil when the builder
// declared none, a collective vetoed the declaration (Builder.Collective)
// or the guard fails. The guard is made only of counts:
// the engine's Census (tasks, dependency edges, completion callbacks and
// streams) must equal the builder's tally of what its symmetric calls
// made. Everything tallied is on the engine, so any other task, edge,
// callback or stream — a raw After, a stray ComputeOn or Order, a
// partial fan-out, an extra stream on a replica, an OnDone — breaks the
// equality, and the plan falls back to DetectClasses: slower, never
// wrong.
func (p *Plan) DeclaredClasses() []sim.Class {
	if p.replicas == nil || p.Engine.Census() != p.census {
		return nil
	}
	lo, hi := p.replicas[0], p.replicas[len(p.replicas)-1]+1
	var classes []sim.Class
	for d := 0; d < p.Cluster.N(); d++ {
		switch {
		case d == lo:
			classes = append(classes, sim.Class{Members: slices.Clone(p.replicas)})
		case d < lo || d >= hi:
			classes = append(classes, sim.Class{Members: []int{d}})
		}
	}
	return classes
}

// mergeableClasses filters the detected partition down to the
// multi-member classes that are safe to collapse in the presence of
// collectives. The DAG structure is already proven by detection; what
// it cannot see is the platform's pressure model, where a collective
// exerts contention on every participant device. A class is kept only
// if every collective either includes the whole class or none of it
// (partial overlap would leave the representative with contention its
// ghost members never had), and no collective task is enqueued on a
// class member's stream (its pressure on the other devices would vanish
// with the ghost). The collectives are the ones Builder recorded. A
// declared partition needs no filter: Builder.Collective applies the
// same test to each collective as it is made.
func (p *Plan) mergeableClasses(classes []sim.Class) []sim.Class {
	multi := 0
	maxDev := -1
	for _, c := range classes {
		if len(c.Members) > 1 {
			multi++
		}
		for _, m := range c.Members {
			if m > maxDev {
				maxDev = m
			}
		}
	}
	if multi == 0 {
		return nil
	}
	classOf := make([]int, maxDev+1)
	for i := range classOf {
		classOf[i] = -1
	}
	size := make([]int, len(classes))
	for ci, c := range classes {
		size[ci] = len(c.Members)
		for _, m := range c.Members {
			classOf[m] = ci
		}
	}
	vetoed := make([]bool, len(classes))
	counts := make([]int, len(classes))
	var touched []int
	for _, t := range p.collectives {
		cd, ok := t.Payload().(collective.Desc)
		if !ok {
			continue
		}
		if d := t.Streams()[0].Device(); d <= maxDev {
			if ci := classOf[d]; ci >= 0 && size[ci] > 1 {
				vetoed[ci] = true
			}
		}
		for _, r := range cd.Participants() {
			if r < 0 || r > maxDev {
				continue
			}
			ci := classOf[r]
			if ci < 0 || size[ci] < 2 {
				continue
			}
			if counts[ci] == 0 {
				touched = append(touched, ci)
			}
			counts[ci]++
		}
		for _, ci := range touched {
			if counts[ci] != size[ci] {
				vetoed[ci] = true
			}
			counts[ci] = 0
		}
		touched = touched[:0]
	}
	var out []sim.Class
	for ci, c := range classes {
		if size[ci] > 1 && !vetoed[ci] {
			out = append(out, c)
		}
	}
	return out
}

// aliasVector flattens collapsed classes into a device→representative
// map covering every cluster device and every class member.
func (p *Plan) aliasVector(classes []sim.Class) []int {
	n := 0
	if p.Cluster != nil {
		n = p.Cluster.N()
	}
	for _, c := range classes {
		for _, m := range c.Members {
			n = max(n, m+1)
		}
	}
	alias := make([]int, n)
	for d := range alias {
		alias[d] = d
	}
	for _, c := range classes {
		for _, m := range c.Members[1:] {
			alias[m] = c.Members[0]
		}
	}
	return alias
}
