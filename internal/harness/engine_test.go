package harness

import (
	"reflect"
	"sort"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/sched"
	"adhocrace/internal/workloads/parsec"
)

// par is an explicitly parallel runner: multiple workers even when the
// test host has GOMAXPROCS=1, so the concurrent assembly path is always
// exercised (and raced against, under `go test -race`).
func par() *Runner { return NewRunner(sched.Options{Workers: 8}) }

// seq is the one-worker escape hatch: every job inline, in order.
func seq() *Runner { return NewRunner(sched.Options{Workers: 1}) }

// newRunner is the default runner: GOMAXPROCS workers.
func newRunner() *Runner { return NewRunner(sched.Options{}) }

// TestParallelAccuracyTableMatchesSequential is the engine's determinism
// contract on the accuracy tables: the parallel path must render
// byte-identical output to the sequential path, across seeds.
func TestParallelAccuracyTableMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		want, err := seq().AccuracyTable(Table1Configs(), seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par().AccuracyTable(Table1Configs(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: parallel rows differ from sequential rows\npar: %+v\nseq: %+v",
				seed, got, want)
		}
		if g, w := FormatAccuracy("T", got), FormatAccuracy("T", want); g != w {
			t.Errorf("seed %d: formatted output differs\npar:\n%s\nseq:\n%s", seed, g, w)
		}
	}
}

// TestParallelTable5MatchesSequential asserts byte-identical PARSEC table
// output between the two modes, including the formatted rendering.
func TestParallelTable5MatchesSequential(t *testing.T) {
	wantCells, wantTools, err := seq().ParsecTable(parsec.WithAdhoc())
	if err != nil {
		t.Fatal(err)
	}
	gotCells, gotTools, err := par().ParsecTable(parsec.WithAdhoc())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTools, wantTools) {
		t.Fatalf("tool columns differ: %v vs %v", gotTools, wantTools)
	}
	if !reflect.DeepEqual(gotCells, wantCells) {
		t.Errorf("cells differ\npar: %v\nseq: %v", gotCells, wantCells)
	}
	programs := make([]string, 0, len(wantCells))
	for p := range wantCells {
		programs = append(programs, p)
	}
	sort.Strings(programs)
	g := FormatContexts("T5", programs, gotTools, gotCells)
	w := FormatContexts("T5", programs, wantTools, wantCells)
	if g != w {
		t.Errorf("formatted output differs\npar:\n%s\nseq:\n%s", g, w)
	}
}

// seedContexts runs ferret under cfg at every seed of Seeds through
// SeedReports and returns the per-seed racy-context counts.
func seedContexts(t *testing.T, r *Runner, cfg detect.Config) []int {
	t.Helper()
	m, ok := parsec.ByName("ferret")
	if !ok {
		t.Fatal("no ferret model")
	}
	reps, err := r.SeedReports(detect.PrepareBuild(m.Build), m.Name, cfg, Seeds)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(reps))
	for i, rep := range reps {
		counts[i] = rep.RacyContexts()
	}
	return counts
}

// TestParallelRacyContextsMatchesSequential covers the per-seed assembly:
// reports must come back in seed order regardless of completion order.
func TestParallelRacyContextsMatchesSequential(t *testing.T) {
	cfg := Table1Configs()[1]
	want := seedContexts(t, seq(), cfg)
	got := seedContexts(t, par(), cfg)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parallel %v != sequential %v", got, want)
	}
}

// TestParallelOverheadMatchesSequential covers the overhead figures.
func TestParallelOverheadMatchesSequential(t *testing.T) {
	want, err := seq().OverheadAll()
	if err != nil {
		t.Fatal(err)
	}
	got, err := par().OverheadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parallel rows differ from sequential rows")
	}
	if g, w := FormatOverhead(got), FormatOverhead(want); g != w {
		t.Errorf("formatted output differs\npar:\n%s\nseq:\n%s", g, w)
	}
}
