// Command sweep expands a declarative sweep specification into the full
// experiment grid, runs it on a bounded worker pool with
// content-addressed result caching, and emits a result table or CSV plus
// an aggregate summary. Re-running the same spec against a warm cache
// directory is near-free: every point reports a cache hit.
//
// -hw-file loads user-defined GPUs and systems (JSON, see
// examples/custom_hardware) into the platform registry before the spec
// resolves, so custom hardware names work as sweep axes. -validate
// parses and validates the spec — axes, strategy names, system and GPU
// names, shapes — without running anything; CI validates every example
// spec this way.
//
// Example:
//
//	sweep -spec examples/sweeps/paper_grid.json -cache .sweepcache -csv out.csv
//	sweep -validate -spec examples/sweeps/multinode_grid.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"overlapsim/internal/hw"
	"overlapsim/internal/report"
	"overlapsim/internal/store"
	"overlapsim/internal/sweep"
	"overlapsim/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")

	var (
		specPath = flag.String("spec", "", `sweep spec JSON file ("-" reads stdin)`)
		hwFile   = flag.String("hw-file", "", "load custom GPUs/systems from this JSON file before resolving the spec")
		validate = flag.Bool("validate", false, "parse and validate the spec (axes, names, shapes) without running it")
		cacheDir = flag.String("cache", "", "content-addressed cache directory (empty = in-memory only)")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = NumCPU)")
		csvPath  = flag.String("csv", "", "also write results as CSV to this file")
		quiet    = flag.Bool("q", false, "suppress the result table (summary only)")
		showTel  = flag.Bool("telemetry", false, "print the process telemetry (Prometheus text format) after the run")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sweep -spec <spec.json> [flags]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), `
example specs:
  examples/sweeps/paper_grid.json      the paper's GPU x model x strategy grid
  examples/sweeps/powercap.json        power capping (Fig. 9 style)
  examples/sweeps/tp_grid.json         tensor-parallel degree x batch x precision
  examples/sweeps/multinode_grid.json  node-count scaling over the NIC tier
  examples/sweeps/fsdp_zoo.json        FSDP over the model zoo x batch on MI250x4
`)
	}
	flag.Parse()
	if *specPath == "" {
		flag.Usage()
		log.Fatal("missing -spec")
	}
	if *hwFile != "" {
		if err := hw.LoadFile(*hwFile); err != nil {
			log.Fatal(err)
		}
	}

	var in io.Reader = os.Stdin
	if *specPath != "-" {
		f, err := os.Open(*specPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	spec, err := sweep.ParseSpec(in)
	if err != nil {
		log.Fatal(bare(err))
	}

	if *validate {
		n, err := spec.Validate()
		if err != nil {
			log.Fatal(invalidSpec(err))
		}
		fmt.Printf("spec %q ok: %d points\n", spec.Name, n)
		return
	}

	cache, err := store.Compose(*cacheDir)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runner := &sweep.Runner{Workers: *workers, Cache: cache}
	res, err := runner.RunSpec(ctx, spec)
	if err != nil {
		log.Fatalf("sweep aborted: %s", bare(err))
	}

	rows := report.Rows(res)
	if !*quiet {
		if err := report.SweepTable(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	agg := report.AggregateSweep(rows)
	fmt.Printf("%s\n", agg)
	fmt.Printf("cache: %d hits, %d misses; elapsed %s\n",
		res.CacheHits, res.CacheMisses, res.Elapsed.Round(1e6))
	if *showTel {
		fmt.Println()
		if err := telemetry.Default.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.SweepCSV(f, rows); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if res.Failures > 0 {
		log.Fatal(bare(res.Err()))
	}
}

// bare drops the "sweep: " prefix package sweep puts on its errors: the
// command's log prefix already prints it.
func bare(err error) string { return strings.TrimPrefix(err.Error(), "sweep: ") }

// invalidSpec is the -validate failure line, after the log prefix.
func invalidSpec(err error) string { return "invalid spec: " + bare(err) }
