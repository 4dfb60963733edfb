// Pipeline determinism tests live in the external test package: they drive
// the detector exclusively through its exported API, and they pull in the
// workload packages (which, via the synthesis engine, import detect —
// an import cycle for an in-package test).
package detect_test

import (
	"fmt"
	"strings"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/synth"
	"adhocrace/internal/workloads/dataracetest"
	"adhocrace/internal/workloads/parsec"
)

// fingerprint renders everything a Report exposes, so two reports with
// equal fingerprints are observably identical: every warning with all its
// fields, every counter, the shadow accounting, and the derived context
// metrics.
func fingerprint(rep *detect.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "config=%s events=%d spinEdges=%d spinLoops=%d inferredLocks=%d shadowBytes=%d\n",
		rep.Config.Name, rep.Events, rep.SpinEdges, rep.SpinLoops,
		rep.InferredLockWords, rep.ShadowBytes)
	fmt.Fprintf(&b, "promotions=%d\n", rep.ReadSetPromotions)
	fmt.Fprintf(&b, "syncEpochHits=%d syncRebases=%d syncInflates=%d\n",
		rep.SyncEpochHits, rep.SyncRebases, rep.SyncInflates)
	fmt.Fprintf(&b, "racyContexts=%d contexts=%v\n", rep.RacyContexts(), rep.ContextList())
	for i, w := range rep.Warnings {
		fmt.Fprintf(&b, "warning[%d]=%+v\n", i, w)
	}
	return b.String()
}

// pipelineModes are the pipeline shapes every determinism test compares
// against the plain synchronous detector: the default policy (plain, then
// overlap once the stream is long), and overlap forced from the first
// event at the default segment size and at one smaller than most streams.
func pipelineModes() []struct {
	name string
	opts detect.RunOpts
} {
	return []struct {
		name string
		opts detect.RunOpts
	}{
		{"default", detect.RunOpts{}},
		{"overlap", detect.ForceOverlap(detect.RunOpts{}, event.DefaultSegmentEvents)},
		{"overlap-small", detect.ForceOverlap(detect.RunOpts{}, 64)},
	}
}

// checkPipelineDeterminism runs one (program, config, seed) under every
// pipeline mode and asserts byte-identical reports.
func checkPipelineDeterminism(t *testing.T, build func() *ir.Program, name string, cfg detect.Config, seed int64) {
	t.Helper()
	base, _, err := detect.Prepare(build()).Run(cfg, seed, detect.ForcePlain(detect.RunOpts{}))
	if err != nil {
		t.Fatalf("%s under %s seed %d (plain): %v", name, cfg.Name, seed, err)
	}
	want := fingerprint(base)
	for _, mode := range pipelineModes() {
		rep, _, err := detect.Prepare(build()).Run(cfg, seed, mode.opts)
		if err != nil {
			t.Fatalf("%s under %s seed %d (%s): %v", name, cfg.Name, seed, mode.name, err)
		}
		if got := fingerprint(rep); got != want {
			t.Errorf("%s under %s seed %d: %s report differs from plain\n--- plain ---\n%s--- %s ---\n%s",
				name, cfg.Name, seed, mode.name, want, mode.name, got)
		}
	}
}

// TestPipelineDeterminismSuite sweeps the full data-race-test suite under
// the four paper tools plus the Eraser reference and the lock-inference
// variant: overlapped reports must be byte-identical to the plain
// detector's on every case.
func TestPipelineDeterminismSuite(t *testing.T) {
	cfgs := append(detect.PaperTools(7), detect.Eraser(), detect.HelgrindPlusNolibSpinLocks(7))
	for _, c := range dataracetest.Suite() {
		for _, cfg := range cfgs {
			checkPipelineDeterminism(t, c.Build, c.Name, cfg, 1)
		}
	}
}

// TestPipelineDeterminismParsec covers the PARSEC models with the densest
// event streams and the heaviest ad-hoc synchronization.
func TestPipelineDeterminismParsec(t *testing.T) {
	models := []string{"x264", "freqmine", "dedup", "vips", "streamcluster"}
	for _, name := range models {
		m, ok := parsec.ByName(name)
		if !ok {
			t.Fatalf("no model %q", name)
		}
		for _, cfg := range detect.PaperTools(7) {
			for _, seed := range []int64{1, 3} {
				checkPipelineDeterminism(t, m.Build, m.Name, cfg, seed)
			}
		}
	}
}

// TestPipelineDeterminismSynth sweeps generated programs (seeds 1–25, fewer
// under -short) under the synth corpus's four presets: the batch tools run synth
// programs on the plain detector, so this is where overlapped detection of
// them is held to byte-identical reports.
func TestPipelineDeterminismSynth(t *testing.T) {
	seeds := int64(25)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= seeds; seed++ {
		build := func() *ir.Program { return synth.Generate(seed).Prog }
		for _, preset := range synth.PresetNames {
			cfg, err := detect.Preset(preset, 7)
			if err != nil {
				t.Fatal(err)
			}
			checkPipelineDeterminism(t, build, fmt.Sprintf("synth_%d", seed), cfg, 1)
		}
	}
}
