package harness

import (
	"errors"
	"strings"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/ir"
	"adhocrace/internal/synth"
	"adhocrace/internal/vm"
)

// TestTable1MatchesPaper asserts the exact slide-24 table. These are the
// headline numbers of the reproduction; the suite composition was derived
// from the paper's category descriptions and these cells fall out of the
// detector mechanics.
func TestTable1MatchesPaper(t *testing.T) {
	rows, err := newRunner().AccuracyTable(Table1Configs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []AccuracyRow{
		{Tool: "Helgrind+ lib", FalseAlarms: 32, MissedRaces: 8, Failed: 40, Correct: 80},
		{Tool: "Helgrind+ lib+spin(7)", FalseAlarms: 8, MissedRaces: 7, Failed: 15, Correct: 105},
		{Tool: "Helgrind+ nolib+spin(7)", FalseAlarms: 9, MissedRaces: 7, Failed: 16, Correct: 104},
		{Tool: "DRD", FalseAlarms: 13, MissedRaces: 20, Failed: 33, Correct: 87},
	}
	for i, w := range want {
		g := rows[i]
		if g.Tool != w.Tool || g.FalseAlarms != w.FalseAlarms || g.MissedRaces != w.MissedRaces ||
			g.Failed != w.Failed || g.Correct != w.Correct {
			t.Errorf("row %d: got %s %d/%d/%d/%d, want %s %d/%d/%d/%d\nfailed cases: %v",
				i, g.Tool, g.FalseAlarms, g.MissedRaces, g.Failed, g.Correct,
				w.Tool, w.FalseAlarms, w.MissedRaces, w.Failed, w.Correct, g.FailedCases)
		}
	}
}

// TestTable2MatchesPaper asserts the slide-25 spin-window sweep.
func TestTable2MatchesPaper(t *testing.T) {
	rows, err := newRunner().AccuracyTable(Table2Configs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := [][4]int{ // FA, MR, failed, correct
		{24, 7, 31, 89},
		{23, 7, 30, 90},
		{8, 7, 15, 105},
		{8, 7, 15, 105},
	}
	for i, w := range want {
		g := rows[i]
		if g.FalseAlarms != w[0] || g.MissedRaces != w[1] || g.Failed != w[2] || g.Correct != w[3] {
			t.Errorf("%s: got %d/%d/%d/%d, want %v", g.Tool,
				g.FalseAlarms, g.MissedRaces, g.Failed, g.Correct, w)
		}
	}
}

// TestTable1RemovedFalseNegative pins the paper's note that the spin
// feature also removes one false negative (8 -> 7 missed races), at every
// window size.
func TestTable1RemovedFalseNegative(t *testing.T) {
	rows, err := newRunner().AccuracyTable([]detect.Config{detect.HelgrindPlusLib(), detect.HelgrindPlusLibSpin(3)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lib, spin3 := rows[0], rows[1]
	if lib.MissedRaces != spin3.MissedRaces+1 {
		t.Errorf("missed races lib=%d vs spin(3)=%d, want exactly one recovered",
			lib.MissedRaces, spin3.MissedRaces)
	}
	cats := DiffCategories(lib)
	if cats["racy-atomic"] != 1 {
		t.Errorf("the recovered false negative should be the racy-atomic case, got %v", cats)
	}
}

// TestAccuracyFailureCategories checks that failures fall only into the
// designed categories per tool.
func TestAccuracyFailureCategories(t *testing.T) {
	allowed := map[string]map[string]bool{
		"Helgrind+ lib": {
			"adhoc-spin": true, "adhoc-hard": true, "racy-hidden": true, "racy-atomic": true,
		},
		"Helgrind+ lib+spin(7)": {
			"adhoc-hard": true, "racy-hidden": true,
		},
		"Helgrind+ nolib+spin(7)": {
			"adhoc-hard": true, "racy-hidden": true, "lib-event": true,
		},
		"DRD": {
			"adhoc-spin": true, "adhoc-hard": true, "racy-hidden": true,
			"racy-window": true, "racy-atomic": true,
		},
	}
	rows, err := newRunner().AccuracyTable(Table1Configs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		cats := DiffCategories(row)
		for _, cat := range SortedKeys(cats) {
			if !allowed[row.Tool][cat] {
				t.Errorf("%s: %d failures in unexpected category %q", row.Tool, cats[cat], cat)
			}
		}
	}
}

func TestFormatAccuracy(t *testing.T) {
	s := FormatAccuracy("Table X", []AccuracyRow{{Tool: "T", FalseAlarms: 1, MissedRaces: 2, Failed: 3, Correct: 117}})
	if want := "Table X"; len(s) == 0 || s[:len(want)] != want {
		t.Errorf("missing title: %q", s)
	}
}

func TestFormatTable3HasAllPrograms(t *testing.T) {
	s := FormatTable3()
	for _, name := range []string{"blackscholes", "raytrace", "x264", "freqmine"} {
		if !contains(s, name) {
			t.Errorf("table 3 missing %s", name)
		}
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// deadlockProgram's main spawns a child that joins main while main joins
// the child: every run ends in vm.ErrDeadlock.
func deadlockProgram() *ir.Program {
	b := ir.NewBuilder("deadlock")
	child := b.Func("child", 1)
	child.Join(0)
	child.Ret(ir.NoReg)
	m := b.Func("main", 0)
	m.Join(m.Spawn("child", m.Const(0)))
	m.Ret(ir.NoReg)
	return b.MustBuild()
}

// TestFailedJobNamesConsumers: a job whose one vm run fails reports the
// workload, the seed and every consumer of the run — each preset, and the
// oracle when it rides along — and wraps the vm's error.
func TestFailedJobNamesConsumers(t *testing.T) {
	prep := detect.Prepare(deadlockProgram())
	w := &synth.Workload{Name: "deadlock", Prog: prep.Prog}
	for _, c := range []struct {
		job  job
		want string
	}{
		{job{prep: prep, cfgs: Table1Configs(), seed: 3, workload: "deadlock"},
			"deadlock seed 3 (Helgrind+ lib, Helgrind+ lib+spin(7), Helgrind+ nolib+spin(7), DRD): " + vm.ErrDeadlock.Error()},
		{job{prep: prep, cfgs: []detect.Config{detect.DRD()}, seed: 1, workload: "deadlock", oracle: w},
			"deadlock seed 1 (DRD, oracle): " + vm.ErrDeadlock.Error()},
		{job{prep: prep, cfgs: []detect.Config{detect.Eraser()}, seed: 2, workload: "deadlock"},
			"deadlock seed 2 (Eraser): " + vm.ErrDeadlock.Error()},
	} {
		var stats RunStats
		_, err := runJobs(newRunner().WithStats(&stats), []job{c.job}, func(job, outcome) (bool, error) {
			t.Error("a failed job was folded")
			return false, nil
		})
		if err == nil || err.Error() != c.want || !errors.Is(err, vm.ErrDeadlock) {
			t.Errorf("err = %v, want %q wrapping vm.ErrDeadlock", err, c.want)
		}
		if runs, vmRuns := stats.Runs.Load(), stats.VMRuns.Load(); runs != 0 || vmRuns != 1 {
			t.Errorf("%s: %d runs observed, %d vm runs; want 0 and 1", c.want, runs, vmRuns)
		}
	}
}
