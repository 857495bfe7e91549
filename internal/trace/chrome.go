package trace

import (
	"encoding/json"
	"io"
)

// chromeEvent is one complete ("X" phase) event in the Chrome trace-event
// JSON format, loadable in chrome://tracing or Perfetto.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Pid  int     `json:"pid"` // device
	Tid  string  `json:"tid"` // kind
	Cat  string  `json:"cat"`
}

// WriteChrome serializes the timeline in Chrome trace-event format so
// simulated schedules can be inspected in the same viewers used for real
// torch-profiler traces.
func (tl *Timeline) WriteChrome(w io.Writer) error {
	var events []chromeEvent
	for _, dev := range tl.Devices() {
		for _, iv := range tl.Intervals(dev) {
			events = append(events, chromeEvent{
				Name: iv.Name,
				Ph:   "X",
				Ts:   iv.Start * 1e6,
				Dur:  iv.Dur() * 1e6,
				Pid:  dev,
				Tid:  iv.Kind.String(),
				Cat:  iv.Kind.String(),
			})
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}
