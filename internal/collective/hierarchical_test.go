package collective

import (
	"math"
	"testing"

	"overlapsim/internal/hw"
	"overlapsim/internal/topo"
)

func multinode(perNode, nodes int, nicGBs float64) topo.Fabric {
	sys := hw.NewMultiNode(hw.H100(), perNode, nodes)
	if nicGBs > 0 {
		sys.NIC = &hw.NICSpec{BWGBs: nicGBs, Latency: 10e-6}
	}
	return topo.ForSystem(sys)
}

// Hierarchical ring all-gather / reduce-scatter time must degrade
// monotonically as inter-node bandwidth drops — the NIC tier is on the
// critical path of every spanning collective.
func TestHierarchicalTimeMonotoneInNICBandwidth(t *testing.T) {
	for _, op := range []Op{AllGather, ReduceScatter, AllReduce} {
		d := Desc{Name: op.String(), Op: op, Bytes: 1 << 30, N: 16}
		prev := 0.0
		for i, gbs := range []float64{100, 50, 25, 12.5, 6.25} {
			got := Time(d, multinode(8, 2, gbs))
			if i > 0 && got <= prev {
				t.Errorf("%v: time %g at %g GB/s not above %g at the faster NIC", op, got, gbs, prev)
			}
			prev = got
		}
	}
}

// With one node the hierarchical decomposition must reduce to the
// single-ring closed form: per-rank wire bytes at ring bandwidth plus
// Steps() hop latencies.
func TestSingleNodeReducesToClosedForm(t *testing.T) {
	f := topo.ForSystem(hw.NewSystem(hw.H100(), 8))
	for _, op := range []Op{AllReduce, AllGather, ReduceScatter, Broadcast, AllToAll} {
		d := Desc{Name: op.String(), Op: op, Bytes: 256 << 20, N: 8}
		want := d.WireBytesPerRank()/f.RingBW() + float64(d.Steps())*f.HopLatency()
		got := Time(d, f)
		if math.Abs(got-want)/want > 1e-12 {
			t.Errorf("%v: Time = %g, closed form = %g", op, got, want)
		}
	}
	// A multi-node System with Nodes canonicalized to one node is the
	// same fabric.
	sys := hw.NewMultiNode(hw.H100(), 8, 1)
	if sys.NodeCount() != 1 {
		t.Fatal("one-node multi-node system must be single-node")
	}
	d := Desc{Op: AllGather, Bytes: 1 << 26, N: 8}
	if Time(d, topo.ForSystem(sys)) != Time(d, topo.ForSystem(hw.NewSystem(hw.H100(), 8))) {
		t.Error("Nodes == 1 must cost exactly like the single-node fabric")
	}
}

// The hierarchical decomposition matches the hand-computed two-phase
// cost: an intra-node ring over the full payload plus an inter-node ring
// over the per-node shard.
func TestHierarchicalTwoPhaseCost(t *testing.T) {
	f := multinode(8, 4, 50)
	tiers := f.Tiers()
	const S = 1 << 30
	d := Desc{Op: ReduceScatter, Bytes: S, N: 32}
	intra := S * 7.0 / 8.0 / tiers[0].BW
	inter := (S / 8.0) * 3.0 / 4.0 / tiers[1].BW
	lat := 7*tiers[0].StepLatency + 3*tiers[1].StepLatency
	want := intra + inter + lat
	if got := Time(d, f); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("Time = %g, want %g", got, want)
	}
	// All-reduce is the symmetric double of that.
	ar := Desc{Op: AllReduce, Bytes: S, N: 32}
	if got := Time(ar, f); math.Abs(got-2*want)/(2*want) > 1e-9 {
		t.Errorf("all-reduce Time = %g, want %g", got, 2*want)
	}
}

// Collectives spanning more nodes pay more inter-node phases, so at a
// fixed payload time grows with the node count.
func TestHierarchicalTimeGrowsWithNodes(t *testing.T) {
	prev := 0.0
	for i, nodes := range []int{1, 2, 4, 8} {
		var f topo.Fabric
		if nodes == 1 {
			f = topo.ForSystem(hw.NewSystem(hw.H100(), 8))
		} else {
			f = multinode(8, nodes, 50)
		}
		d := Desc{Op: AllGather, Bytes: 1 << 30, N: 8 * nodes}
		got := Time(d, f)
		if i > 0 && got <= prev {
			t.Errorf("%d nodes: time %g not above %g for fewer nodes", nodes, got, prev)
		}
		prev = got
	}
}

// A subgroup that fits inside one node must never pay the NIC tier.
func TestSubgroupInsideOneNode(t *testing.T) {
	f := multinode(8, 4, 1) // 1 GB/s NIC: crossing it would dominate
	single := topo.ForSystem(hw.NewSystem(hw.H100(), 8))
	d := Desc{Op: AllGather, Bytes: 1 << 26, N: 8}
	got, want := Time(d, f), Time(d, single)
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("intra-node subgroup pays the NIC: %g vs %g", got, want)
	}
}

// EffWireBytes/BW must reproduce Time on hierarchical fabrics too — the
// simulator runs a multi-phase collective as one fluid task.
func TestHierarchicalEffWireBytesReproducesTime(t *testing.T) {
	f := multinode(4, 4, 25)
	for _, op := range []Op{AllReduce, AllGather, ReduceScatter, Broadcast, AllToAll} {
		d := Desc{Name: op.String(), Op: op, Bytes: 64 << 20, N: 16}
		want := Time(d, f)
		got := EffWireBytes(d, f) / BW(d, f)
		if math.Abs(got-want)/want > 1e-9 {
			t.Errorf("%v: EffWireBytes/BW = %g, Time = %g", op, got, want)
		}
	}
}

// A strided algorithm group — one peer per node, the shape of tp's
// cross-group DP all-reduce under TP degree == node size — must be
// costed on the NIC tier it actually crosses, not as an intra-node
// ring; and an intra-node subgroup on the same fabric must keep NVLink
// rates even though it occupies devices of a multi-node cluster.
func TestGroupPlacementSelectsTiers(t *testing.T) {
	f := multinode(8, 4, 50) // 4 nodes x 8 GPUs
	all := make([]int, 32)
	for i := range all {
		all[i] = i
	}
	strided := Desc{
		Name: "dp.ar", Op: AllReduce, Bytes: 1 << 30, N: 4,
		Ranks: all, Group: []int{0, 8, 16, 24}, // rank 0 of each node
	}
	if err := strided.Validate(); err != nil {
		t.Fatal(err)
	}
	nicBound := Time(strided, f)
	// The same 4-rank all-reduce placed inside one node.
	intra := Desc{Name: "tp.ar", Op: AllReduce, Bytes: 1 << 30, N: 4, Ranks: []int{0, 1, 2, 3}}
	intraTime := Time(intra, f)
	if nicBound < 4*intraTime {
		t.Errorf("strided cross-node ring %gs not NIC-bound (intra-node: %gs)", nicBound, intraTime)
	}
	// It must match the explicit inter-node closed form: a 4-way ring
	// entirely on the NIC tier.
	nic := f.Tiers()[1]
	want := 2*strided.Bytes*(3.0/4.0)/nic.BW + 6*nic.StepLatency
	if math.Abs(nicBound-want)/want > 1e-9 {
		t.Errorf("strided ring = %g, want NIC closed form %g", nicBound, want)
	}
	if BW(strided, f) != nic.BW {
		t.Error("strided ring must run at the NIC rate")
	}
	// The intra-node subgroup keeps the NVLink rate and the single-node
	// closed form despite living on a multi-node fabric.
	if BW(intra, f) != f.Tiers()[0].BW {
		t.Error("intra-node subgroup must keep the NVLink rate")
	}
	single := topo.ForSystem(hw.NewSystem(hw.H100(), 8))
	if got := Time(intra, single); math.Abs(intraTime-got)/got > 1e-12 {
		t.Errorf("intra-node subgroup time %g differs from single-node %g", intraTime, got)
	}
	if bad := (Desc{Op: AllReduce, Bytes: 1, N: 4, Group: []int{0, 8}}); bad.Validate() == nil {
		t.Error("a group whose length differs from N must fail validation")
	}
}

// Cross-node send/recv pays NIC bandwidth and latency; intra-node pairs
// keep NVLink rates.
func TestHierarchicalSendRecv(t *testing.T) {
	f := multinode(8, 2, 50)
	intra := Desc{Op: SendRecv, Bytes: 1 << 24, N: 2, Src: 0, Dst: 1}
	inter := Desc{Op: SendRecv, Bytes: 1 << 24, N: 2, Src: 0, Dst: 8}
	if Time(intra, f) >= Time(inter, f) {
		t.Error("cross-node P2P must be slower than intra-node")
	}
}
