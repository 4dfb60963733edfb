// Command tables regenerates every table and figure of the paper's
// evaluation (IPDPS'10, slides 24-32).
//
// Usage:
//
//	tables [-t all|1|2|3|4|5|6|perf|synth] [-workers N] [-stats]
//	       [-trace out.json] [-synth-n 100] [-replay trace]
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
// Every table is a batch of short, independent detector runs, each on the
// plain detector. The only parallelism is across runs, on the experiment
// engine's workers: -workers bounds it (0 = GOMAXPROCS), and -workers 1
// runs every job inline, in order. Output is byte-identical for every
// worker count. Intra-run sharding, overlap and shadow GC pay only on
// long streams, so they live on racedetect and raced, not here.
//
// -stats appends a footer with the detector pipeline counters aggregated
// over every run: events processed, events/sec, shadow bytes, read-set
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
//
// -replay <trace> switches tables into the events/sec scaling harness:
// a binary trace recorded by `racedetect -record` is replayed through
// detectors at shards 1, 2, 4, and 8 — the identical event stream each
// time, no vm in the loop — and the per-shard wall clock and events/sec
// are printed as a scaling curve. Every replay's report is asserted
// byte-identical to the shards-1 report before its row prints.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/harness"
	"adhocrace/internal/obs"
	"adhocrace/internal/sched"
	"adhocrace/internal/serve"
	"adhocrace/internal/workloads"
)

func main() {
	which := flag.String("t", "all", "table to regenerate: all,1,2,3,4,5,6,perf,synth")
	workers := flag.Int("workers", 0, "experiment engine workers (0 = GOMAXPROCS, 1 = every job inline, in order)")
	stats := flag.Bool("stats", false, "print aggregated pipeline stats after the tables")
	trace := flag.String("trace", "", "write Chrome trace-event JSON of every job's pipeline spans to this file")
	synthN := flag.Int64("synth-n", 100, "generated programs for the synth corpus table")
	replayPath := flag.String("replay", "", "replay a recorded binary trace at shards 1/2/4/8 and print the scaling curve")
	flag.Parse()

	if *replayPath != "" {
		if err := replayScaling(*replayPath); err != nil {
			fmt.Fprintf(os.Stderr, "tables: replay: %v\n", err)
			os.Exit(1)
		}
		return
	}

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

// replayScaling is the events/sec scaling harness: one recorded stream,
// four shard counts, byte-identical reports asserted, wall clock and
// throughput per row.
func replayScaling(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	head, err := event.NewTraceReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	meta := head.Meta()
	build, ok := workloads.Find(meta.Workload)
	if !ok {
		return fmt.Errorf("trace workload %q not in the registry", meta.Workload)
	}
	cfg, err := serve.ToolConfig(meta.Tool, meta.Window)
	if err != nil {
		return fmt.Errorf("trace tool: %w", err)
	}
	prog := build()
	fmt.Printf("Replay scaling — %s under %s (recorded seed %d), GOMAXPROCS=%d\n",
		meta.Workload, cfg.Name, meta.Seed, runtime.GOMAXPROCS(0))
	fmt.Printf("%-10s %14s %14s %14s %10s\n", "shards", "events", "elapsed", "events/sec", "speedup")
	var baseFP string
	var baseElapsed time.Duration
	for _, shards := range []int{1, 2, 4, 8} {
		tr, err := event.NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		start := time.Now()
		rep, n, err := detect.ReplayTrace(tr, prog, cfg, detect.RunOpts{Shards: shards})
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("shards=%d: %w", shards, err)
		}
		fp := harness.ReportFingerprint(rep)
		if shards == 1 {
			baseFP, baseElapsed = fp, elapsed
		} else if fp != baseFP {
			return fmt.Errorf("shards=%d report differs from shards-1 (byte-identity violated)", shards)
		}
		fmt.Printf("%-10d %14d %14s %14.0f %9.2fx\n",
			shards, n, elapsed.Round(time.Microsecond), float64(n)/elapsed.Seconds(),
			baseElapsed.Seconds()/elapsed.Seconds())
	}
	fmt.Println("reports byte-identical across all shard counts")
	return nil
}
