// Command tables regenerates every table and figure of the paper's
// evaluation (IPDPS'10, slides 24-32).
//
// Usage:
//
//	tables [-t all|1|2|3|4|5|6|perf|synth] [-workers N] [-stats]
//	       [-trace out.json] [-synth-n 100]
//
//	1     data-race-test accuracy, four tools (slide 24)
//	2     spin-window sweep spin(3)/spin(6)/spin(7)/spin(8) (slide 25)
//	3     PARSEC program inventory (slide 26)
//	4     racy contexts, programs without ad-hoc sync (slide 27)
//	5     racy contexts, programs with ad-hoc sync (slides 28/29)
//	6     universal detector, all 13 programs (slide 30)
//	perf  memory and runtime overhead figures (slides 31/32)
//	synth corpus-scale accuracy rows over -synth-n generated programs,
//	      scored against the synthesis engine's ground-truth oracle
//	      (beyond the paper: see internal/synth and cmd/racefuzz)
//
// Every table is a batch of short, independent (workload, seed) jobs, each
// one vm run feeding the plain detector of every tool the table compares.
// The only parallelism is across jobs, on the experiment
// engine's workers: -workers bounds it (0 = GOMAXPROCS), and -workers 1
// runs every job inline, in order. Output is byte-identical for every
// worker count. The shadow GC pays only on long streams, so it lives on
// racedetect and raced, not here. Overlap is a flag nowhere: a run starts
// it by itself once its stream passes event.OverlapThreshold events,
// which among the tables' runs only freqmine under the spin presets
// reaches.
//
// -stats appends a footer with the detector pipeline counters aggregated
// over every detector run (the vm_steps and vm_quanta counters over the
// shared vm runs): events processed, events/sec, shadow bytes, read-set
// promotions (how often the FastTrack epoch fast path promoted to a
// read-set), and the clock store's sync epoch hits / rebases / inflates
// (how often release/acquire stayed on the O(1) epoch path), plus the
// observability layer's per-stage timing histograms.
//
// -trace out.json records per-stage spans of every detector job and
// writes Chrome trace-event JSON (chrome://tracing / Perfetto). Jobs run
// concurrently on the experiment engine, so the trace shows all jobs'
// pipelines interleaved — one process group per job; for a single clean
// timeline use racedetect -trace.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"adhocrace/internal/harness"
	"adhocrace/internal/obs"
	"adhocrace/internal/sched"
)

func main() {
	which := flag.String("t", "all", "table to regenerate: all,1,2,3,4,5,6,perf,synth")
	workers := flag.Int("workers", 0, "experiment engine workers (0 = GOMAXPROCS, 1 = every job inline, in order)")
	stats := flag.Bool("stats", false, "print aggregated pipeline stats after the tables")
	trace := flag.String("trace", "", "write Chrome trace-event JSON of every job's pipeline spans to this file")
	synthN := flag.Int64("synth-n", 100, "generated programs for the synth corpus table")
	flag.Parse()

	if *which != "all" && !slices.Contains(harness.TableNames, *which) {
		fmt.Fprintf(os.Stderr, "tables: unknown table %q (want all,%s)\n", *which, strings.Join(harness.TableNames, ","))
		os.Exit(2)
	}

	runner := harness.NewRunner(sched.Options{Workers: *workers})
	var runStats *harness.RunStats
	if *stats {
		runStats = &harness.RunStats{}
		runner.WithStats(runStats)
	}
	var rec *obs.Recorder
	switch {
	case *trace != "":
		rec = obs.NewTracing()
	case *stats:
		rec = obs.New()
	}
	if rec != nil {
		// Jobs share one pipeline handle: tables traces show every
		// concurrent job's spans in a single process group.
		runner.WithObs(rec.Pipeline("tables"))
	}
	start := time.Now()

	if err := runner.WriteTables(os.Stdout, *which, *synthN); err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(1)
	}

	if runStats != nil {
		fmt.Print(runStats.Footer(time.Since(start)))
		fmt.Print(rec.Summary())
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rec.WriteTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "tables: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (load in chrome://tracing or Perfetto)\n", *trace)
	}
}
