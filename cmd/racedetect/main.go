// Command racedetect runs one workload under one detector configuration
// and prints the race report — the CLI equivalent of running Helgrind+ on
// a binary.
//
// Usage:
//
//	racedetect -w <workload> [-tool lib|spin|nolib|drd|eraser] [-window 7] [-seed 1 | -seeds N] [-fingerprint] [-v]
//	racedetect -w <workload> [-tool ...] [-seed 1] -record out.trace
//	racedetect -replay in.trace [-fingerprint]
//
// Workloads: any PARSEC model name (x264, dedup, ...), a data-race-test
// case name (adhoc_spin11_b7_atomic_long, ww_two_threads, ...), or a
// generated program of the synthesis engine (synth:<seed>). Use -list to
// enumerate; the lookup lives in internal/workloads.
//
// With -seeds N the workload runs under scheduler seeds 1..N as one job
// batch of a harness.Runner (harness.Runner.SeedReports: the program is
// compiled once and shared, each seed gets its own vm and detector) and
// the per-seed racy-context counts are reported in seed order, each
// followed by its fingerprint= line under -fingerprint. -seeds records or
// replays nothing: with -record or -replay it is a usage error.
//
// Overlap is not a flag: once a run's event stream — from the vm, or from
// the trace decoder with -replay — passes event.OverlapThreshold events,
// the rest goes into double-buffered segments consumed by the detector
// concurrently with production, because it pays only on long streams
// (docs/ARCHITECTURE.md, the vm→detector pipeline section). Nor is the
// shadow GC: every detector retires quiescent shadow state every
// detect.GCPeriod events, so only a long stream runs a cycle. Neither
// changes the report; they trade wall-clock time and memory only.
//
// With -stats the run's pipeline counters are printed: events processed,
// events/sec, shadow bytes, read-set promotions (how often the
// FastTrack epoch fast path had to fall back to a read-set), and the
// clock store's sync epoch hits / rebases / inflates (how often
// release/acquire stayed on the O(1) object-epoch path), the shadow-GC
// cycles and retirements when a cycle ran, plus per-stage
// timing histograms from the observability layer (internal/obs).
//
// With -trace out.json the run records per-stage spans — vm quanta,
// segment pipeline batches and stalls, GC cycles, report merge — and writes Chrome trace-event JSON loadable
// in chrome://tracing or Perfetto. Only a stream past detect.GCPeriod
// events shows a GC cycle (freqmine under the default spin tool does).
//
// With -record the workload runs once with no detector and its event
// stream is written as a binary trace (internal/event's record/replay
// format, with the workload/tool/seed provenance and the program's
// interning-table digest in the header). With -replay a recorded trace is fed straight into a
// detector — no vm in the loop; the workload and tool come from the
// trace header, and the report is
// byte-identical to the live run's. -fingerprint appends a fingerprint=
// line (a digest of the full report) so scripts can compare runs cheaply
// — the replay smoke asserts a replay matches the live run.
package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/harness"
	"adhocrace/internal/ir"
	"adhocrace/internal/obs"
	"adhocrace/internal/sched"
	"adhocrace/internal/workloads"
)

func main() {
	workload := flag.String("w", "", "workload name (see -list)")
	tool := flag.String("tool", "spin", "tool: lib, spin, nolib, nolib+locks, drd, eraser")
	window := flag.Int("window", 7, "spin-loop basic-block window")
	seed := flag.Int64("seed", 1, "scheduler seed")
	seeds := flag.Int("seeds", 0, "run seeds 1..N in parallel and report per-seed contexts")
	stats := flag.Bool("stats", false, "print pipeline stats: events, events/sec, shadow bytes, read-set promotions")
	trace := flag.String("trace", "", "write Chrome trace-event JSON of the run's pipeline spans to this file")
	verbose := flag.Bool("v", false, "print every warning, not just the summary")
	list := flag.Bool("list", false, "list available workloads")
	record := flag.String("record", "", "record the run's event stream as a binary trace to this file (no detector)")
	replayPath := flag.String("replay", "", "replay a recorded binary trace through a detector (workload/tool from the header)")
	fingerprint := flag.Bool("fingerprint", false, "print a fingerprint= digest of the full report, for script-level comparisons")
	flag.Parse()

	if *list {
		fmt.Print(workloads.FormatList())
		return
	}
	if *seeds > 0 && (*record != "" || *replayPath != "") {
		fmt.Fprintln(os.Stderr, "racedetect: -seeds cannot be combined with -record or -replay")
		os.Exit(2)
	}
	if *replayPath != "" {
		if err := runReplay(*replayPath, *fingerprint, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "racedetect: %v\n", err)
			os.Exit(1)
		}
		return
	}
	build, ok := workloads.Find(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "racedetect: unknown workload %q (try -list)\n", *workload)
		os.Exit(2)
	}

	cfg, err := detect.Preset(*tool, *window)
	if err != nil {
		fmt.Fprintf(os.Stderr, "racedetect: %v\n", err)
		os.Exit(2)
	}

	if *record != "" {
		if err := runRecord(*record, build, *workload, cfg, *tool, *window, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "racedetect: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// -trace wants spans; -stats alone wants only counters/histograms.
	var rec *obs.Recorder
	switch {
	case *trace != "":
		rec = obs.NewTracing()
	case *stats:
		rec = obs.New()
	}

	if *seeds > 0 {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				fmt.Fprintf(os.Stderr, "racedetect: -seed is ignored with -seeds (running seeds 1..%d)\n", *seeds)
			}
		})
		if err := runSeeds(build, cfg, *workload, *seeds, rec, *verbose, *stats, *fingerprint); err != nil {
			fmt.Fprintf(os.Stderr, "racedetect: %v\n", err)
			os.Exit(1)
		}
		writeTrace(rec, *trace)
		return
	}

	opts := detect.RunOpts{Obs: rec.Pipeline(fmt.Sprintf("%s %s seed=%d", *workload, cfg.Name, *seed))}
	start := time.Now()
	rep, res, err := detect.Prepare(build()).Run(cfg, *seed, opts)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "racedetect: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s under %s (seed %d)\n", *workload, cfg.Name, *seed)
	fmt.Printf("  steps=%d threads=%d events=%d\n", res.Steps, res.Threads, rep.Events)
	fmt.Printf("  spin loops classified: %d, happens-before edges injected: %d\n",
		rep.SpinLoops, rep.SpinEdges)
	fmt.Printf("  warnings: %d, racy contexts: %d\n", len(rep.Warnings), rep.RacyContexts())
	if *fingerprint {
		printFingerprint(rep)
	}
	if *stats {
		var runStats harness.RunStats
		runStats.Observe(rep)
		fmt.Print(runStats.Footer(elapsed))
		fmt.Print(rec.Summary())
	}
	writeTrace(rec, *trace)
	if *verbose {
		for _, w := range rep.Warnings {
			fmt.Printf("    %s\n", w)
		}
	} else {
		for i, loc := range rep.ContextList() {
			if i >= 20 {
				fmt.Printf("    ... (%d more contexts)\n", rep.RacyContexts()-20)
				break
			}
			fmt.Printf("    racy context at %s\n", loc)
		}
	}
}

// runRecord executes the workload once with no detector, streaming its
// event stream into a binary trace file.
func runRecord(path string, build func() *ir.Program, workload string,
	cfg detect.Config, tool string, window int, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	res, n, err := detect.RecordTrace(f, build(), cfg, seed, event.TraceMeta{
		Workload: workload, Tool: tool, Window: window, Seed: seed,
	})
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %s under %s (seed %d): %d events (%d steps, %d threads) -> %s (%d bytes)\n",
		workload, cfg.Name, seed, n, res.Steps, res.Threads, path, info.Size())
	return nil
}

// runReplay feeds a recorded trace into a fresh detector with no vm: the
// workload and tool configuration are rebuilt from the trace header.
func runReplay(path string, fingerprint, verbose bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	tr, err := event.NewTraceReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	meta := tr.Meta()
	build, ok := workloads.Find(meta.Workload)
	if !ok {
		return fmt.Errorf("trace workload %q not in the registry (recorded elsewhere?)", meta.Workload)
	}
	cfg, err := detect.Preset(meta.Tool, meta.Window)
	if err != nil {
		return fmt.Errorf("trace tool: %w", err)
	}
	start := time.Now()
	rep, n, err := detect.ReplayTrace(tr, build(), cfg, detect.RunOpts{})
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	fmt.Printf("replay %s: workload %s under %s (recorded seed %d)\n",
		path, meta.Workload, cfg.Name, meta.Seed)
	fmt.Printf("  events=%d elapsed=%s events/sec=%.0f\n", n, elapsed, float64(n)/elapsed.Seconds())
	fmt.Printf("  warnings: %d, racy contexts: %d\n", len(rep.Warnings), rep.RacyContexts())
	if fingerprint {
		printFingerprint(rep)
	}
	if verbose {
		for _, w := range rep.Warnings {
			fmt.Printf("    %s\n", w)
		}
	}
	return nil
}

// printFingerprint emits a one-line digest of the full report — the same
// byte-identity bar the equivalence suites use, hashed so scripts can
// compare with a string equality.
func printFingerprint(rep *detect.Report) {
	fmt.Printf("fingerprint=%x\n", sha256.Sum256([]byte(harness.ReportFingerprint(rep))))
}

// runSeeds runs the workload under seeds 1..n as one batch of a
// harness.Runner; the program is compiled once and shared by the seed
// jobs, and results are printed in seed order (with every warning, when
// verbose, and a fingerprint= line per seed, with fingerprint). Every
// seed job records into one pipeline of rec.
func runSeeds(build func() *ir.Program, cfg detect.Config, workload string, n int,
	rec *obs.Recorder, verbose, stats, fingerprint bool) error {
	var runStats harness.RunStats
	runner := harness.NewRunner(sched.Options{}).WithStats(&runStats).
		WithObs(rec.Pipeline(fmt.Sprintf("%s %s seeds=1..%d", workload, cfg.Name, n)))
	seedList := make([]int64, n)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}
	prep := detect.PrepareBuild(build)
	start := time.Now()
	reps, err := runner.SeedReports(prep, workload, cfg, seedList)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s under %s, seeds 1..%d (%d workers)\n",
		workload, cfg.Name, n, runner.Workers())
	total := 0
	for i, rep := range reps {
		c := rep.RacyContexts()
		total += c
		fmt.Printf("  seed %-3d events=%-9d warnings=%-6d racy contexts=%d\n",
			seedList[i], rep.Events, len(rep.Warnings), c)
		if fingerprint {
			printFingerprint(rep)
		}
		if verbose {
			for _, w := range rep.Warnings {
				fmt.Printf("    %s\n", w)
			}
		}
	}
	fmt.Printf("  mean racy contexts: %.1f\n", float64(total)/float64(n))
	if stats {
		fmt.Print(runStats.Footer(elapsed))
		fmt.Print(rec.Summary())
	}
	return nil
}

// writeTrace exports the recorded spans as Chrome trace-event JSON; a nil
// recorder or empty path is a no-op.
func writeTrace(rec *obs.Recorder, path string) {
	if rec == nil || !rec.Tracing() || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "racedetect: trace: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := rec.WriteTrace(f); err != nil {
		fmt.Fprintf(os.Stderr, "racedetect: trace: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trace written to %s (load in chrome://tracing or Perfetto)\n", path)
}
