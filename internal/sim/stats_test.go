package sim

import "testing"

func TestEngineStats(t *testing.T) {
	e := NewEngine(unitPlatform())
	e.Reserve(8)
	s1 := e.NewStream("s1", 0)
	s2 := e.NewStream("s2", 1)
	a := e.NewTask("a", KindCompute, 1, nil, s1)
	b := e.NewTask("b", KindCompute, 1, nil, s2)
	c := e.NewTask("c", KindComm, 1, nil, s1)
	c.After(b)
	_ = a
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.Tasks != 3 || st.TasksRetired != 3 {
		t.Errorf("tasks = %d retired = %d, want 3/3", st.Tasks, st.TasksRetired)
	}
	if st.Streams != 2 {
		t.Errorf("streams = %d, want 2", st.Streams)
	}
	if st.Epochs <= 0 {
		t.Errorf("epochs = %d, want > 0", st.Epochs)
	}
	if st.Admissions != 3 {
		t.Errorf("admissions = %d, want 3", st.Admissions)
	}
	// The dirty-set scheduler must never examine more streams than a
	// full rescan on every pass would.
	if st.StreamRechecks > st.FullScanChecks {
		t.Errorf("rechecks %d > full-scan counterfactual %d", st.StreamRechecks, st.FullScanChecks)
	}
	if st.MaxRunning < 2 {
		t.Errorf("max running = %d, want >= 2 (a and b overlap)", st.MaxRunning)
	}
	if st.ArenaBytes <= 0 || st.ArenaSlabs <= 0 {
		t.Errorf("arena bytes=%d slabs=%d, want > 0", st.ArenaBytes, st.ArenaSlabs)
	}
	if st.ReservedTasks != 8 {
		t.Errorf("reserved = %d, want 8", st.ReservedTasks)
	}
	if st.SimTime != e.Now() {
		t.Errorf("sim time %g != engine now %g", st.SimTime, e.Now())
	}

	var agg Stats
	agg.Add(st)
	agg.Add(st)
	if agg.Tasks != 6 || agg.Epochs != 2*st.Epochs {
		t.Errorf("Add did not sum counters: %+v", agg)
	}
	if agg.MaxRunning != st.MaxRunning || agg.SimTime != st.SimTime {
		t.Errorf("Add did not max gauges: %+v", agg)
	}
}

// TestTaskSize pins the task layout: ArenaBytes, which engine stats
// report and the goldens pin, counts slab bytes in units of Task.
func TestTaskSize(t *testing.T) {
	if taskBytes != 200 {
		t.Fatalf("sim.Task is %d bytes, want 200", taskBytes)
	}
}

// TestStreamKeepsHistory: a stream lists every task it ran after the
// run, in creation order, and a device-named task formats its device.
func TestStreamKeepsHistory(t *testing.T) {
	e := NewEngine(unitPlatform())
	s := e.NewStream("s", 12)
	a := e.NewTask("fwd.l7", KindCompute, 1, nil, s).NameByDevice()
	b := e.NewTask("opt", KindCompute, 1, nil, s)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Tasks(); len(got) != 2 || got[0] != a || got[1] != b || s.Len() != 0 {
		t.Fatalf("history %v (len %d), want [a b] and an empty queue", got, s.Len())
	}
	if a.Name() != "fwd.l7@12" || b.Name() != "opt" {
		t.Fatalf("names %q %q, want fwd.l7@12 and opt", a.Name(), b.Name())
	}
}
