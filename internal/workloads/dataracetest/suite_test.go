package dataracetest

import (
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/vm"
)

func TestSuiteSize(t *testing.T) {
	cases := Suite()
	if len(cases) != SuiteSize {
		t.Fatalf("suite has %d cases, want %d", len(cases), SuiteSize)
	}
	seen := make(map[string]bool)
	racy := 0
	for _, c := range cases {
		if seen[c.Name] {
			t.Errorf("duplicate case name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Racy {
			racy++
		}
		if c.Threads < 2 || c.Threads > 16 {
			t.Errorf("%s: %d threads outside the suite's 2-16 range", c.Name, c.Threads)
		}
	}
	if racy != 48 {
		t.Errorf("suite has %d racy cases, want 48", racy)
	}
}

func TestCaseIDsAreSequential(t *testing.T) {
	for i, c := range Suite() {
		if c.ID != i+1 {
			t.Fatalf("case %d has ID %d", i, c.ID)
		}
	}
}

func TestAllProgramsBuildAndValidate(t *testing.T) {
	for _, c := range Suite() {
		p := c.Build()
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", c, err)
		}
		if p.FuncByName("main") == nil {
			t.Errorf("%s: no main function", c)
		}
	}
}

// TestAllProgramsTerminate executes every case raw (no detector) and checks
// it terminates without deadlock or livelock.
func TestAllProgramsTerminate(t *testing.T) {
	for _, c := range Suite() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			p := c.Build()
			res, err := vm.Run(p, vm.Options{Seed: 12345})
			if err != nil {
				t.Fatalf("%s: %v (steps=%d)", c, err, res.Steps)
			}
			if res.Threads != c.Threads+1 && p.FuncByName("main") != nil {
				// Threads counts main; tree-shaped cases may spawn more.
				if res.Threads < c.Threads {
					t.Errorf("%s: only %d threads ran, declared %d", c, res.Threads, c.Threads)
				}
			}
		})
	}
}

// TestGroundTruthAgainstBestTool cross-checks the labels: the most capable
// configuration (Helgrind+ lib+spin(7)) must agree with the ground truth on
// every case except the documented hard categories.
func TestGroundTruthAgainstBestTool(t *testing.T) {
	exceptions := map[string]bool{
		// Residual false positives: patterns the classifier cannot match.
		"adhoc-hard": true,
		// Races hidden by fortuitous ordering: HB tools miss them.
		"racy-hidden": true,
	}
	cfg := detect.HelgrindPlusLibSpin(7)
	for _, c := range Suite() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			rep, _, err := detect.Prepare(c.Build()).Run(cfg, 1, detect.RunOpts{})
			if err != nil {
				t.Fatalf("%v", err)
			}
			got := rep.HasWarnings()
			if exceptions[c.Category] {
				return
			}
			if got != c.Racy {
				t.Errorf("%s: warnings=%v ground-truth racy=%v (%d warnings: %v)",
					c, got, c.Racy, len(rep.Warnings), firstWarnings(rep))
			}
		})
	}
}

func firstWarnings(rep *detect.Report) []string {
	n := len(rep.Warnings)
	if n > 3 {
		n = 3
	}
	out := make([]string, 0, n)
	for _, w := range rep.Warnings[:n] {
		out = append(out, w.String())
	}
	return out
}
