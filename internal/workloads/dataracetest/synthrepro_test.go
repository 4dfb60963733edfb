package dataracetest

import (
	"testing"

	"adhocrace/internal/detect"
)

// TestSynthReproducer pins the behaviour the fuzzer's shrinker isolated:
// synthrepro.go was emitted verbatim by `racefuzz -window 3 -emit` from an
// injected oracle-vs-spin disagreement (an undersized window misses the
// 6-block spin loop and false-positives a race-free hand-off), shrunk from
// a multi-fragment program to this single fragment. The emitted source
// compiling and this test passing is the end-to-end proof that shrunk
// reproducers are paste-ready regression cases.
func TestSynthReproducer(t *testing.T) {
	w := BuildSynthRepro2Workload()
	if w.Racy() {
		t.Fatal("reproducer ground truth drifted: fragment is declared race-free")
	}
	p := BuildSynthRepro2()
	if err := p.Validate(); err != nil {
		t.Fatalf("reproducer program invalid: %v", err)
	}

	// The full-window spin preset resolves the hand-off (no warnings)...
	rep, _, err := detect.Prepare(BuildSynthRepro2()).Run(detect.HelgrindPlusLibSpin(7), 1, detect.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasWarnings() {
		t.Errorf("spin(7) warns on the race-free reproducer: %v", rep.Warnings)
	}
	// ...while the undersized window that racefuzz injected still
	// false-positives, exactly the disagreement the shrinker preserved.
	rep, _, err = detect.Prepare(BuildSynthRepro2()).Run(detect.HelgrindPlusLibSpin(3), 1, detect.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasWarnings() {
		t.Error("spin(3) no longer reproduces the shrunk disagreement")
	}
}
