package synth

import (
	"go/format"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/vm"
)

// injectedWindow is undersized on purpose: it un-classifies every
// generated loop larger than itself and so injects oracle-vs-spin
// disagreements (false positives on race-free hand-offs the full-window
// preset resolves).
const injectedWindow = 3

// runSpin runs w under the spin preset at window and scores the report.
func runSpin(t *testing.T, w *Workload, window int) []FragOutcome {
	t.Helper()
	cfg, err := detect.Preset("spin", window)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := detect.Prepare(w.Prog).Run(cfg, 1, detect.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return Score(w, "spin", rep)
}

// findInjected scores seeds 1..40 under the spin preset at the injected
// window and returns the first disagreement on a loop larger than it.
func findInjected(t *testing.T) Disagreement {
	t.Helper()
	for seed := int64(1); seed <= 40; seed++ {
		for _, o := range runSpin(t, Generate(seed), injectedWindow) {
			if !o.Match() && o.Frag.Kind == KindSpinPlain && o.Frag.Blocks > injectedWindow {
				return Disagreement{Seed: seed, Preset: "spin", Frag: o.Frag,
					Expected: o.Expected.Warn, Warned: o.Warned}
			}
		}
	}
	t.Fatal("window injection produced no spin disagreement in 40 seeds")
	return Disagreement{}
}

// TestShrinkInjectedDisagreement: an injected disagreement shrinks to a
// single-fragment reproducer that still disagrees, and the emitted Go
// source is compilable (parses and formats cleanly) and round-trips the
// fragment list.
func TestShrinkInjectedDisagreement(t *testing.T) {
	dis := findInjected(t)
	w := Generate(dis.Seed)
	if len(w.Frags) < 2 {
		t.Skipf("seed %d generated a single fragment; nothing to shrink", dis.Seed)
	}
	min, err := Shrink(w, dis, injectedWindow, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Frags) != 1 {
		t.Fatalf("shrink left %d fragments, want 1: %v", len(min.Frags), min.Frags)
	}
	if min.Frags[0].Index != dis.Frag.Index {
		t.Fatalf("shrink kept fragment %v, want index %d", min.Frags[0], dis.Frag.Index)
	}

	// The minimal workload still reproduces: spin at the injected window
	// warns on a fragment the oracle declares race-free.
	outs := runSpin(t, Assemble(min.Name, min.Frags), injectedWindow)
	if len(outs) != 1 || !outs[0].Warned || outs[0].Match() {
		t.Fatalf("minimal reproducer no longer disagrees: %+v", outs)
	}

	src := EmitGo(min, "BuildRepro")
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "repro.go", src, parser.AllErrors); err != nil {
		t.Fatalf("emitted source does not parse: %v\n%s", err, src)
	}
	formatted, err := format.Source([]byte(src))
	if err != nil {
		t.Fatalf("emitted source does not format: %v", err)
	}
	if string(formatted) != src {
		t.Errorf("emitted source is not gofmt-clean")
	}
	if !strings.Contains(src, "package dataracetest") ||
		!strings.Contains(src, min.Frags[0].Kind.GoName()) {
		t.Errorf("emitted source missing expected content:\n%s", src)
	}
}

// TestShrinkRejectsNonReproducing: shrinking a disagreement that does not
// exist fails loudly instead of fabricating a reproducer.
func TestShrinkRejectsNonReproducing(t *testing.T) {
	w := Generate(1)
	_, err := Shrink(w, Disagreement{
		Seed: 1, Preset: "spin", Frag: w.Frags[0],
		Expected: !Expectations(w.Frags[0].Kind)["spin"].Warn,
		Warned:   !Expectations(w.Frags[0].Kind)["spin"].Warn,
	}, 7, 1) // full window: no injected disagreement
	if err == nil {
		t.Fatal("Shrink accepted a non-reproducing disagreement")
	}
}

// TestOracleRejectsWrongLabels: the runtime oracle catches a deliberately
// mislabelled workload — flip a racy fragment's declared truth and an
// Oracle fed its execution must flag it.
func TestOracleRejectsWrongLabels(t *testing.T) {
	w := Assemble("mislabel", []Fragment{{Kind: KindRacyPlain, Index: 0, Threads: 2}})
	for i := range w.Vars {
		w.Vars[i].Racy = false // lie: the race is real
	}
	o := NewOracle(w)
	if _, err := vm.Run(w.Prog, vm.Options{Seed: 1, KnownLibs: OracleLibs(), Sink: o}); err != nil {
		t.Fatal(err)
	}
	if bad := o.Violations(1); len(bad) == 0 {
		t.Fatal("oracle accepted a mislabelled racy fragment")
	}
}
