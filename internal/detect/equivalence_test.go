// Epoch-vs-full-VC equivalence: the adaptive FastTrack read
// representation (readstate.go) must report exactly what the seed
// full-vector-clock representation (refreads.go) reports, on every
// workload we have — the 120-case accuracy suite and a 500-seed synthesis
// corpus. External test package: it imports the workload and synthesis
// packages, which cycle back into detect for an in-package test.
package detect_test

import (
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/harness"
	"adhocrace/internal/ir"
	"adhocrace/internal/synth"
	"adhocrace/internal/workloads/dataracetest"
)

// reportFingerprint is the shared byte-identical equality bar
// (harness.ReportFingerprint): everything a Report exposes except the
// representation-dependent shadow accounting and counters.
func reportFingerprint(rep *detect.Report) string { return harness.ReportFingerprint(rep) }

// checkEquivalence runs one (program, config, seed) under both read
// representations and asserts byte-identical reports.
func checkEquivalence(t *testing.T, build func() *ir.Program, name string, cfg detect.Config, seed int64) {
	t.Helper()
	epoch, _, err := detect.Prepare(build()).Run(cfg, seed, detect.RunOpts{})
	if err != nil {
		t.Fatalf("%s under %s seed %d (epoch): %v", name, cfg.Name, seed, err)
	}
	ref, _, err := detect.Prepare(build()).Run(detect.FullVCReads(cfg), seed, detect.RunOpts{})
	if err != nil {
		t.Fatalf("%s under %s seed %d (full VC): %v", name, cfg.Name, seed, err)
	}
	want, got := reportFingerprint(ref), reportFingerprint(epoch)
	if got != want {
		t.Errorf("%s under %s seed %d: epoch report differs from full-VC reference\n--- full VC ---\n%s--- epoch ---\n%s",
			name, cfg.Name, seed, want, got)
	}
}

// TestEpochFullVCEquivalenceSuite replays the full data-race-test suite
// under the four paper tools plus the lock-inference variant against the
// reference representation.
func TestEpochFullVCEquivalenceSuite(t *testing.T) {
	cfgs := append(detect.PaperTools(7), detect.HelgrindPlusNolibSpinLocks(7))
	for _, c := range dataracetest.Suite() {
		for _, cfg := range cfgs {
			checkEquivalence(t, c.Build, c.Name, cfg, 1)
		}
	}
}

// TestEpochFullVCEquivalenceSynth replays a 500-seed synthesis corpus (80
// under -short) under the spin-featured Helgrind+ and DRD — the two
// presets whose read-side semantics differ most (unlimited dedup-per-addr
// history vs bounded per-site history with invisible atomics).
func TestEpochFullVCEquivalenceSynth(t *testing.T) {
	seeds := int64(500)
	if testing.Short() {
		seeds = 80
	}
	cfgs := []detect.Config{detect.HelgrindPlusLibSpin(7), detect.DRD()}
	for seed := int64(1); seed <= seeds; seed++ {
		w := synth.Generate(seed, synth.Options{})
		for _, cfg := range cfgs {
			checkEquivalence(t, func() *ir.Program { return w.Prog }, w.Name, cfg, 1)
		}
	}
}

// syncSweepOpts are the pipeline shapes the clock-store equivalence sweep
// rotates through: the byte-identical bar must hold not just sequentially
// but under sharding (which moves the frozen clock stamps across the flush
// boundary) and overlap (which moves them across goroutines).
func syncSweepOpts() []detect.RunOpts {
	return []detect.RunOpts{
		{},
		{Shards: 2},
		{Shards: 4},
		detect.RunOpts{}.Overlapped(),
		{Shards: 2, SegmentEvents: 64},
	}
}

// checkSyncEquivalence runs one (program, config, seed) under the clock
// store and the full-VC reference engine with the same pipeline shape and
// asserts byte-identical reports.
func checkSyncEquivalence(t *testing.T, build func() *ir.Program, name string, cfg detect.Config, seed int64, opts detect.RunOpts) {
	t.Helper()
	store, _, err := detect.Prepare(build()).Run(cfg, seed, opts)
	if err != nil {
		t.Fatalf("%s under %s seed %d (store): %v", name, cfg.Name, seed, err)
	}
	ref, _, err := detect.Prepare(build()).Run(detect.FullVCSync(cfg), seed, opts)
	if err != nil {
		t.Fatalf("%s under %s seed %d (full-VC sync): %v", name, cfg.Name, seed, err)
	}
	want, got := reportFingerprint(ref), reportFingerprint(store)
	if got != want {
		t.Errorf("%s under %s seed %d (shards=%d overlap=%d): clock-store report differs from full-VC reference\n--- full VC ---\n%s--- store ---\n%s",
			name, cfg.Name, seed, opts.Shards, opts.SegmentEvents, want, got)
	}
}

// TestSyncStoreEquivalenceSuite replays the full data-race-test suite
// under the four paper tools plus the lock-inference variant against the
// full-vector-clock happens-before engine, rotating through the pipeline
// sweep per (case, tool) so the whole grid is covered across the suite.
func TestSyncStoreEquivalenceSuite(t *testing.T) {
	cfgs := append(detect.PaperTools(7), detect.HelgrindPlusNolibSpinLocks(7))
	sweep := syncSweepOpts()
	i := 0
	for _, c := range dataracetest.Suite() {
		for _, cfg := range cfgs {
			checkSyncEquivalence(t, c.Build, c.Name, cfg, 1, sweep[i%len(sweep)])
			i++
		}
	}
}

// TestSyncStoreEquivalenceSynth replays the synthesis corpus (500 seeds,
// 80 under -short) against the full-VC sync reference, rotating the
// shards × overlap sweep per seed.
func TestSyncStoreEquivalenceSynth(t *testing.T) {
	seeds := int64(500)
	if testing.Short() {
		seeds = 80
	}
	cfgs := []detect.Config{detect.HelgrindPlusLibSpin(7), detect.DRD()}
	sweep := syncSweepOpts()
	for seed := int64(1); seed <= seeds; seed++ {
		w := synth.Generate(seed, synth.Options{})
		opts := sweep[int(seed)%len(sweep)]
		for _, cfg := range cfgs {
			checkSyncEquivalence(t, func() *ir.Program { return w.Prog }, w.Name, cfg, 1, opts)
		}
	}
}
