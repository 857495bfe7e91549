package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"overlapsim/internal/sim"
)

// ReadChromeEventCount decodes a Chrome trace and returns the number of
// events of each kind.
func ReadChromeEventCount(r io.Reader) (compute, comm int, err error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return 0, 0, err
	}
	for _, e := range doc.TraceEvents {
		switch e.Tid {
		case sim.KindCompute.String():
			compute++
		case sim.KindComm.String():
			comm++
		}
	}
	return compute, comm, nil
}

func TestWriteChromeRoundTrip(t *testing.T) {
	tl := timelineOf(
		iv(0, 1, sim.KindCompute, 0),
		iv(0.5, 2, sim.KindComm, 0),
		iv(1, 3, sim.KindCompute, 1),
	)
	var b bytes.Buffer
	if err := tl.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	compute, comm, err := ReadChromeEventCount(&b)
	if err != nil {
		t.Fatal(err)
	}
	if compute != 2 || comm != 1 {
		t.Errorf("round trip: %d compute, %d comm", compute, comm)
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var b bytes.Buffer
	if err := FromDevices(nil).WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadChromeEventCount(&b); err != nil {
		t.Fatal(err)
	}
}
