package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"overlapsim/internal/store"
)

// counters are process-wide counts read before and after the traced phase.
type counters struct {
	simSeconds, simPoints float64 // sweep_point_sim_seconds sum and count
	coalesced             float64
}

func (a counters) sub(b counters) counters {
	return counters{a.simSeconds - b.simSeconds, a.simPoints - b.simPoints, a.coalesced - b.coalesced}
}

// scrape reads the counters: the point-simulation histogram from the
// server's /metrics endpoint, and the store's coalescing count.
func scrape(inst instance) counters {
	c := counters{coalesced: float64(store.CoalescedTotal())}
	s, ok := inst.(interface{ metricsText() ([]byte, error) })
	if !ok {
		return c
	}
	text, err := s.metricsText()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scraping /metrics:", err)
		return c
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "sweep_point_sim_seconds_sum":
			c.simSeconds = v
		case "sweep_point_sim_seconds_count":
			c.simPoints = v
		}
	}
	return c
}

func (s *server) metricsText() ([]byte, error) {
	return s.call(context.Background(), nil, "", 0, "GET", "/metrics", nil)
}

// perLayer fills the per-layer metrics. Span times are mean self time
// per call (a span minus its children), except the three request kinds
// of serve-warm, which are whole requests. Counts are per plan, per
// advisor query or per response, as named in README.md.
func perLayer(m map[string]metric, ls map[string]layerStat, c map[string]float64, base, traced phase, k counters) {
	self := func(name string) float64 { return ms(ls[name].meanSelf()) }
	total := func(name string) float64 { return ms(ls[name].meanTotal()) }
	plans := c["sim.plans"]
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	set("core.build_ms", self("core.build"), "ms")
	set("core.build_alloc_mb", ratio(c["core.build_alloc_bytes"], float64(ls["probe.build"].calls))/1e6, "MB")
	set("core.fingerprint_us", self("core.fingerprint")*1e3, "us")
	set("exec.detect_ms", self("exec.detect"), "ms")
	set("exec.run_ms", self("exec.run"), "ms")
	set("exec.measure_ms", self("exec.measure"), "ms")
	set("exec.ghost_share", ratio(c["sim.ghost_tasks"], c["sim.tasks"]), "ratio")
	set("sim.tasks", ratio(c["sim.tasks"], plans), "count")
	set("sim.simulated_tasks", ratio(c["sim.tasks"]-c["sim.ghost_tasks"], plans), "count")
	set("sim.epochs", ratio(c["sim.epochs"], plans), "count")
	set("sim.max_running", c["sim.max_running"], "count")
	set("sim.stream_rechecks", ratio(c["sim.stream_rechecks"], plans), "count")
	set("sim.run_us_per_epoch", ratio(ms(ls["exec.run"].total)*1e3, c["sim.epochs"]), "us")
	set("gpu.power_stats_ms", self("gpu.power_stats"), "ms")
	set("sweep.cache_get_us", self("sweep.cache_get")*1e3, "us")
	set("sweep.cache_put_us", self("sweep.cache_put")*1e3, "us")
	set("sweep.cache_hit_ratio", ratio(c["sweep.cache_hits"], c["sweep.cache_gets"]), "ratio")
	set("sweep.point_sim_ms", ratio(k.simSeconds, k.simPoints)*1e3, "ms")
	set("store.coalesced", k.coalesced, "count")
	set("service.submit_ms", self("service.submit"), "ms")
	set("service.job_wait_ms", self("service.job_wait"), "ms")
	set("service.fetch_ms", self("service.fetch"), "ms")
	set("service.response_kb", ratio(c["service.response_bytes"], c["service.responses"])/1e3, "KB")
	set("service.experiment_ms", total("service.experiment"), "ms")
	set("service.sweep_warm_ms", total("service.sweep_warm"), "ms")
	set("service.advise_warm_ms", total("service.advise_warm"), "ms")
	set("opt.evals", ratio(c["opt.evals"], c["opt.queries"]), "count")
	set("opt.cache_hits", ratio(c["opt.cache_hits"], c["opt.queries"]), "count")
	set("opt.rounds", ratio(c["opt.rounds"], c["opt.queries"]), "count")
	set("runtime.gc_cycles_per_op", base.perOp(float64(base.gcCycles)), "count")
	set("runtime.gc_cpu_share", base.gcCPU, "ratio")
	set("trace.overhead_pct", (ratio(percentile(traced.lat, 50), percentile(base.lat, 50))-1)*100, "%")
}

// atReferenceSpeed scales every time metric, and the rate, by the run's
// host speed factors (see hostspeed.go): CPU time by the CPU factor,
// everything else by the wall-clock factor.
func atReferenceSpeed(m map[string]metric, h *hostRef) {
	for name, v := range m {
		switch {
		case name == "cpu_ms_per_op":
			v.Value *= h.cpuSpeed()
		case v.Unit == "s" || v.Unit == "ms" || v.Unit == "us":
			v.Value *= h.wallSpeed()
		case v.Unit == "1/s":
			v.Value /= h.wallSpeed()
		default:
			continue
		}
		m[name] = v
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
