// Shadow-GC equivalence: a detector running the quiescence GC (gc.go)
// must report byte for byte what the unbounded detector reports, on every
// workload we have — the 120-case accuracy suite and a 500-seed synthesis
// corpus — and under every pipeline shape. The GC period is forced down to
// a few dozen events so every run exercises many cycles.
package detect_test

import (
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/synth"
	"adhocrace/internal/workloads/dataracetest"
)

// gcSweepOpts are the pipeline shapes the GC equivalence sweep rotates
// through, each with the GC forced to a tiny cycle period: the default
// pipeline, and overlap forced from the first event at two segment sizes
// (cycles land on both sides of segment boundaries).
func gcSweepOpts() []detect.RunOpts {
	gc := detect.WithGCPeriod(detect.RunOpts{}, 64)
	return []detect.RunOpts{
		gc,
		detect.ForceOverlap(gc, event.DefaultSegmentEvents),
		detect.ForceOverlap(gc, 64),
	}
}

// checkGCEquivalence runs one (program, config, seed) with the GC enabled
// under the given pipeline shape and with the GC off sequentially, and
// asserts byte-identical reports.
func checkGCEquivalence(t *testing.T, build func() *ir.Program, name string, cfg detect.Config, seed int64, opts detect.RunOpts) {
	t.Helper()
	gc, _, err := detect.Prepare(build()).Run(cfg, seed, opts)
	if err != nil {
		t.Fatalf("%s under %s seed %d (gc): %v", name, cfg.Name, seed, err)
	}
	ref, _, err := detect.Prepare(build()).Run(cfg, seed, detect.NoGC(detect.RunOpts{}))
	if err != nil {
		t.Fatalf("%s under %s seed %d (unbounded): %v", name, cfg.Name, seed, err)
	}
	want, got := reportFingerprint(ref), reportFingerprint(gc)
	if got != want {
		t.Errorf("%s under %s seed %d: GC report differs from unbounded detector\n--- unbounded ---\n%s--- gc ---\n%s",
			name, cfg.Name, seed, want, got)
	}
}

// TestShadowGCEquivalenceSuite replays the full data-race-test suite under
// the four paper tools plus the lock-inference variant with the shadow GC
// cycling every 64 events, rotating through the overlap sweep per
// (case, tool) so the whole grid is covered across the suite.
func TestShadowGCEquivalenceSuite(t *testing.T) {
	cfgs := append(detect.PaperTools(7), detect.HelgrindPlusNolibSpinLocks(7))
	sweep := gcSweepOpts()
	i := 0
	for _, c := range dataracetest.Suite() {
		for _, cfg := range cfgs {
			checkGCEquivalence(t, c.Build, c.Name, cfg, 1, sweep[i%len(sweep)])
			i++
		}
	}
}

// TestShadowGCEquivalenceSynth replays the synthesis corpus (500 seeds, 80
// under -short) with the shadow GC on, rotating the pipeline sweep per
// seed, under the spin-featured Helgrind+ and DRD — the presets whose
// suppression and history semantics lean hardest on the retired state.
func TestShadowGCEquivalenceSynth(t *testing.T) {
	seeds := int64(500)
	if testing.Short() {
		seeds = 80
	}
	cfgs := []detect.Config{detect.HelgrindPlusLibSpin(7), detect.DRD()}
	sweep := gcSweepOpts()
	for seed := int64(1); seed <= seeds; seed++ {
		w := synth.Generate(seed)
		opts := sweep[int(seed)%len(sweep)]
		for _, cfg := range cfgs {
			checkGCEquivalence(t, func() *ir.Program { return w.Prog }, w.Name, cfg, 1, opts)
		}
	}
}

// TestShadowGCEquivalenceEraser pins the Eraser path separately: its var
// state is the report, so the GC must leave lockset state alone while
// still retiring shadow words.
func TestShadowGCEquivalenceEraser(t *testing.T) {
	sweep := gcSweepOpts()
	i := 0
	for _, c := range dataracetest.Suite() {
		checkGCEquivalence(t, c.Build, c.Name, detect.Eraser(), 1, sweep[i%len(sweep)])
		i++
	}
}
