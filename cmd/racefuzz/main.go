// Command racefuzz is the differential fuzz harness over the workload
// synthesis engine: it generates seeded random programs with ground truth
// (internal/synth), runs each under the spin/lib/drd/eraser tool presets as
// one job batch of a harness.Runner (harness.Runner.Corpus), scores every
// preset against the built-in happens-before oracle, and — on request —
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
	"flag"
	"fmt"
	"os"
	"time"

	"adhocrace/internal/harness"
	"adhocrace/internal/sched"
	"adhocrace/internal/spin"
	"adhocrace/internal/synth"
)

func main() {
	n := flag.Int64("n", 100, "number of generator seeds to fuzz")
	start := flag.Int64("start", 1, "first generator seed")
	schedSeed := flag.Int64("sched-seed", 1, "vm scheduler seed for every run")
	window := flag.Int("window", 7, "spin preset's basic-block window (lower it to inject disagreements)")
	workers := flag.Int("workers", 0, "experiment engine workers (0 = GOMAXPROCS, 1 = every job inline, in order)")
	strict := flag.Bool("strict", false, "exit 1 on any oracle-vs-spin disagreement or oracle violation")
	noOracle := flag.Bool("no-oracle", false, "skip the per-seed ground-truth oracle validation runs")
	shrink := flag.Bool("shrink", false, "shrink the first oracle-vs-spin disagreement to a minimal reproducer")
	emit := flag.String("emit", "", "write the shrunk reproducer as Go source to this file (implies -shrink)")
	sweep := flag.Bool("sweep", false, "print the spin-window sensitivity sweep of each generated program")
	stats := flag.Bool("stats", false, "print aggregated pipeline stats after the corpus report")
	verbose := flag.Bool("v", false, "print per-fragment ground truth of each generated program")
	flag.Parse()

	runner := harness.NewRunner(sched.Options{Workers: *workers})
	var runStats *harness.RunStats
	if *stats {
		runStats = &harness.RunStats{}
		runner.WithStats(runStats)
	}

	if *sweep || *verbose {
		windows := spin.DefaultSweepWindows
		for s := *start; s < *start+*n; s++ {
			w := synth.Generate(s)
			if *verbose {
				fmt.Print(w.Describe())
			}
			if *sweep {
				fmt.Print(spin.FormatSweep(w.Name, spin.Sweep(w.Prog, windows)))
			}
		}
	}

	corpusStart := time.Now()
	rep, err := runner.Corpus(*start, *n, *schedSeed, *window, !*noOracle)
	elapsed := time.Since(corpusStart)
	if err != nil {
		fmt.Fprintf(os.Stderr, "racefuzz: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(rep.Format())
	if runStats != nil {
		fmt.Print(runStats.Footer(elapsed))
	}

	if *shrink || *emit != "" {
		if err := shrinkFirst(rep, *emit); err != nil {
			fmt.Fprintf(os.Stderr, "racefuzz: %v\n", err)
			os.Exit(1)
		}
	}

	if *strict {
		if bad := rep.Strict(); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "racefuzz: strict mode: %d oracle-vs-spin disagreements/violations\n", len(bad))
			for _, s := range bad {
				fmt.Fprintf(os.Stderr, "  %s\n", s)
			}
			os.Exit(1)
		}
		fmt.Println("strict: spin preset agrees with the oracle on the whole corpus")
	}
}

// shrinkFirst shrinks the first oracle-vs-spin disagreement of the corpus,
// at the corpus's window and scheduler seed, and prints (and optionally
// writes) the reproducer.
func shrinkFirst(rep *harness.CorpusReport, emitPath string) error {
	var target *synth.Disagreement
	for i := range rep.Disagreements {
		if rep.Disagreements[i].Preset == "spin" {
			target = &rep.Disagreements[i]
			break
		}
	}
	if target == nil {
		fmt.Println("shrink: no oracle-vs-spin disagreement to shrink")
		return nil
	}
	fmt.Printf("shrinking: %s\n", target)
	w := synth.Generate(target.Seed)
	min, err := synth.Shrink(w, *target, rep.Window, rep.SchedSeed)
	if err != nil {
		return err
	}
	fmt.Printf("minimal reproducer (%d of %d fragments):\n", len(min.Frags), len(w.Frags))
	fmt.Print(min.Describe())
	src := synth.EmitGo(min, fmt.Sprintf("BuildSynthRepro%d", target.Seed))
	if emitPath != "" {
		if err := os.WriteFile(emitPath, []byte(src), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", emitPath)
	} else {
		fmt.Println(src)
	}
	return nil
}
