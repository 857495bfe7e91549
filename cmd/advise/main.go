// Command advise answers the paper's trade-off question from the
// command line: given a search space (a sweep spec), objectives and
// constraints, it searches for the Pareto frontier of (iteration time,
// energy/iteration, board power, ...) and prints the frontier plus one
// recommended configuration. Evaluations run through the sweep caches,
// so repeated or overlapping queries against a -cache directory are
// near-free.
//
// -validate parses and resolves the query — objectives, constraints,
// space axes and registry names — without running anything; CI
// validates every example query this way. -hw-file loads user-defined
// GPUs and systems first, so custom hardware names work in queries.
//
// Example:
//
//	advise -query examples/advisor/ddp_fsdp_tp_350w.json -cache .sweepcache
//	advise -validate -query examples/advisor/powercap_frontier.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"overlapsim/internal/hw"
	"overlapsim/internal/opt"
	"overlapsim/internal/report"
	"overlapsim/internal/store"
	"overlapsim/internal/sweep"
	"overlapsim/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("advise: ")

	var (
		queryPath = flag.String("query", "", `advisor query JSON file ("-" reads stdin)`)
		hwFile    = flag.String("hw-file", "", "load custom GPUs/systems from this JSON file before resolving the query")
		validate  = flag.Bool("validate", false, "parse and validate the query (objectives, axes, names) without running it")
		cacheDir  = flag.String("cache", "", "content-addressed cache directory (empty = in-memory only)")
		workers   = flag.Int("workers", 0, "concurrent simulations per search round (0 = NumCPU)")
		csvPath   = flag.String("csv", "", "also write the frontier as CSV to this file")
		jsonPath  = flag.String("json", "", `also write the advice as JSON to this file ("-" writes stdout)`)
		quiet     = flag.Bool("q", false, "suppress the frontier table (recommendation and stats only)")
		showTel   = flag.Bool("telemetry", false, "print the process telemetry (Prometheus text format) after the search")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: advise -query <query.json> [flags]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), `
example queries:
  examples/advisor/ddp_fsdp_tp_350w.json   DDP vs FSDP vs TP under a 350 W cap on 4x8 H100
  examples/advisor/powercap_frontier.json  the A100 power-cap time/energy frontier
  examples/advisor/smoke.json              tiny space (CI determinism smoke)

objectives: %v
`, opt.Names())
	}
	flag.Parse()
	if *queryPath == "" {
		flag.Usage()
		log.Fatal("missing -query")
	}
	if *hwFile != "" {
		if err := hw.LoadFile(*hwFile); err != nil {
			log.Fatal(err)
		}
	}

	var in io.Reader = os.Stdin
	if *queryPath != "-" {
		f, err := os.Open(*queryPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	q, err := opt.ParseQuery(in)
	if err != nil {
		log.Fatal(err)
	}

	if *validate {
		n, err := q.Validate()
		if err != nil {
			log.Fatalf("invalid query: %v", err)
		}
		fmt.Printf("query %q ok: %d candidate configurations\n", q.Name, n)
		return
	}

	cache, err := store.Compose(*cacheDir)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	advisor := &opt.Advisor{Runner: &sweep.Runner{Workers: *workers, Cache: cache}}
	adv, err := advisor.Run(ctx, q)
	if err != nil {
		log.Fatalf("advise aborted: %v", err)
	}

	if !*quiet {
		if err := report.FrontierTable(os.Stdout, adv.Frontier.Rows(), adv.RecommendedIndex()); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if adv.Recommended != nil {
		fmt.Printf("recommended: %s\n", adv.Recommended.Label)
		for i, o := range adv.Frontier.Objectives {
			fmt.Printf("  %-18s %.4g %s\n", o.Name, adv.Recommended.Values[i], o.Unit)
		}
	} else {
		fmt.Printf("no recommendation: %s\n", adv.Note)
	}
	st := adv.Stats
	fmt.Printf("frontier: %d points; space %d unique of %d grid; evaluated %d (%d fresh, %d cached) in %d rounds; elapsed %s\n",
		len(adv.Frontier.Points), st.SpaceSize, st.GridPoints,
		st.Evaluated, st.FreshEvals, st.CacheHits, st.Rounds, st.Elapsed.Round(1e6))
	if st.OOMs > 0 || st.Failures > 0 || st.Infeasible > 0 {
		fmt.Printf("excluded: %d OOM, %d failed, %d constraint-infeasible\n", st.OOMs, st.Failures, st.Infeasible)
	}
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
		if err := report.FrontierCSV(f, adv.Frontier.Rows(), adv.RecommendedIndex()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *jsonPath != "" {
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(adv); err != nil {
			log.Fatal(err)
		}
	}
}
