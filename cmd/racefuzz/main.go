// Command racefuzz is the differential fuzz harness over the workload
// synthesis engine: it generates seeded random programs with ground truth
// (internal/synth), each seed once, runs each program once on the vm,
// feeding the spin/lib/drd/eraser tool presets and the built-in
// happens-before oracle from that one run, as one job batch of a
// harness.Runner (harness.Runner.Corpus), scores every preset against
// the oracle's predictions, and — on request —
// shrinks oracle-vs-spin disagreements to minimal reproducers
// (synth.Shrink) emitted as Go source ready for
// internal/workloads/dataracetest.
//
// Usage:
//
//	racefuzz [-n 100] [-start 1] [-sched-seed 1] [-window 7]
//	         [-workers N] [-strict] [-no-oracle] [-shrink] [-emit file]
//	         [-sweep] [-stats] [-v]
//
// Examples:
//
//	racefuzz -n 500                         # score a 500-seed corpus
//	racefuzz -n 200 -strict                 # the CI smoke configuration
//	racefuzz -n 40 -window 3 -shrink        # inject disagreements by
//	                                        # undersizing the spin window,
//	                                        # shrink the first one
//	racefuzz -n 5 -sweep                    # window-sensitivity sweep over
//	                                        # the generated loop shapes
//
// With -strict the exit status is 1 when any oracle-vs-spin disagreement
// or oracle violation is found (proximity variance of other presets does
// not fail the run). Every preset run is the plain detector; the only
// parallelism is across runs, on -workers engine workers (-workers 1 runs
// every job inline, in order), and output is byte-identical for every
// worker count.
//
// With -stats a footer reports the pipeline counters aggregated over
// every preset run of the corpus — the same harness.RunStats block
// racedetect and tables print — making the fuzzer's detector load (the
// heaviest batch workload in the repo) visible.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"adhocrace/internal/harness"
	"adhocrace/internal/sched"
	"adhocrace/internal/spin"
	"adhocrace/internal/synth"
)

// generate is synth.Generate: racefuzz generates each seed once, here,
// and shares the workload with -v, -sweep, the corpus and the shrinker.
var generate = synth.Generate

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is racefuzz with the given arguments, writing to stdout and stderr;
// it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("racefuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int64("n", 100, "number of generator seeds to fuzz")
	start := fs.Int64("start", 1, "first generator seed")
	schedSeed := fs.Int64("sched-seed", 1, "vm scheduler seed for every run")
	window := fs.Int("window", 7, "spin preset's basic-block window (lower it to inject disagreements)")
	workers := fs.Int("workers", 0, "experiment engine workers (0 = GOMAXPROCS, 1 = every job inline, in order)")
	strict := fs.Bool("strict", false, "exit 1 on any oracle-vs-spin disagreement or oracle violation")
	noOracle := fs.Bool("no-oracle", false, "skip the per-seed ground-truth oracle validation runs")
	shrink := fs.Bool("shrink", false, "shrink the first oracle-vs-spin disagreement to a minimal reproducer")
	emit := fs.String("emit", "", "write the shrunk reproducer as Go source to this file (implies -shrink)")
	sweep := fs.Bool("sweep", false, "print the spin-window sensitivity sweep of each generated program")
	stats := fs.Bool("stats", false, "print aggregated pipeline stats after the corpus report")
	verbose := fs.Bool("v", false, "print per-fragment ground truth of each generated program")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	runner := harness.NewRunner(sched.Options{Workers: *workers})
	var runStats *harness.RunStats
	if *stats {
		runStats = &harness.RunStats{}
		runner.WithStats(runStats)
	}

	ws := make([]*synth.Workload, 0, max(*n, 0))
	for s := *start; s < *start+*n; s++ {
		w := generate(s)
		ws = append(ws, w)
		if *verbose {
			fmt.Fprint(stdout, w.Describe())
		}
		if *sweep {
			fmt.Fprint(stdout, spin.FormatSweep(w.Name, spin.Sweep(w.Prog, spin.DefaultSweepWindows)))
		}
	}

	corpusStart := time.Now()
	rep, err := runner.Corpus(*start, ws, *schedSeed, *window, !*noOracle)
	elapsed := time.Since(corpusStart)
	if err != nil {
		fmt.Fprintf(stderr, "racefuzz: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, rep.Format())
	if runStats != nil {
		fmt.Fprint(stdout, runStats.Footer(elapsed))
	}

	if *shrink || *emit != "" {
		if err := shrinkFirst(stdout, rep, ws, *emit); err != nil {
			fmt.Fprintf(stderr, "racefuzz: %v\n", err)
			return 1
		}
	}

	if *strict {
		if bad := rep.Strict(); len(bad) > 0 {
			fmt.Fprintf(stderr, "racefuzz: strict mode: %d oracle-vs-spin disagreements/violations\n", len(bad))
			for _, s := range bad {
				fmt.Fprintf(stderr, "  %s\n", s)
			}
			return 1
		}
		fmt.Fprintln(stdout, "strict: spin preset agrees with the oracle on the whole corpus")
	}
	return 0
}

// shrinkFirst shrinks the first oracle-vs-spin disagreement of the corpus
// of ws, at the corpus's window and scheduler seed, and prints (and
// optionally writes) the reproducer.
func shrinkFirst(stdout io.Writer, rep *harness.CorpusReport, ws []*synth.Workload, emitPath string) error {
	var target *synth.Disagreement
	for i := range rep.Disagreements {
		if rep.Disagreements[i].Preset == "spin" {
			target = &rep.Disagreements[i]
			break
		}
	}
	if target == nil {
		fmt.Fprintln(stdout, "shrink: no oracle-vs-spin disagreement to shrink")
		return nil
	}
	fmt.Fprintf(stdout, "shrinking: %s\n", target)
	w := ws[target.Seed-rep.Start]
	min, err := synth.Shrink(w, *target, rep.Window, rep.SchedSeed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "minimal reproducer (%d of %d fragments):\n", len(min.Frags), len(w.Frags))
	fmt.Fprint(stdout, min.Describe())
	src := synth.EmitGo(min, fmt.Sprintf("BuildSynthRepro%d", target.Seed))
	if emitPath != "" {
		if err := os.WriteFile(emitPath, []byte(src), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", emitPath)
	} else {
		fmt.Fprintln(stdout, src)
	}
	return nil
}
