// Decoded-vs-reference interpreter equivalence: the pre-decoded vm
// dispatch (vm.Decode) must produce byte-identical reports to the legacy
// switch interpreter on every workload, under every preset, across the
// shards × overlap × GC pipeline sweep. External test package like the
// other equivalence suites (imports the workload packages, which cycle
// back into detect for an in-package test).
package detect_test

import (
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/harness"
	"adhocrace/internal/ir"
	"adhocrace/internal/synth"
	"adhocrace/internal/workloads/dataracetest"
)

// decodeSweepOpts is the pipeline sweep the decoded-equivalence tests
// rotate through: sequential, sharded, overlapped, and GC'd shapes — the
// decoded dispatch must be invisible under all of them.
func decodeSweepOpts() []detect.RunOpts {
	return []detect.RunOpts{
		{},
		{Shards: 2},
		{Shards: 4},
		detect.RunOpts{}.Overlapped(),
		{Shards: 2, SegmentEvents: 64},
		{GCShadow: true, GCEvents: 256},
	}
}

// checkDecodeEquivalence runs one (program, config, seed, shape) under the
// decoded dispatch and the reference interpreter and asserts byte-identical
// reports.
func checkDecodeEquivalence(t *testing.T, build func() *ir.Program, name string, cfg detect.Config, seed int64, opts detect.RunOpts) {
	t.Helper()
	dec, _, err := detect.Prepare(build()).Run(cfg, seed, opts)
	if err != nil {
		t.Fatalf("%s under %s seed %d (decoded): %v", name, cfg.Name, seed, err)
	}
	refOpts := opts
	refOpts.Reference = true
	ref, _, err := detect.Prepare(build()).Run(cfg, seed, refOpts)
	if err != nil {
		t.Fatalf("%s under %s seed %d (reference): %v", name, cfg.Name, seed, err)
	}
	want, got := harness.ReportFingerprint(ref), harness.ReportFingerprint(dec)
	if got != want {
		t.Errorf("%s under %s seed %d (shards=%d overlap=%d gc=%v): decoded report differs from reference interpreter\n--- reference ---\n%s--- decoded ---\n%s",
			name, cfg.Name, seed, opts.Shards, opts.SegmentEvents, opts.GCShadow, want, got)
	}
}

// TestDecodedEquivalenceSuite replays the full data-race-test suite under
// the four paper tools plus the lock-inference variant against the
// reference interpreter, rotating the pipeline sweep per (case, tool) so
// the whole grid is covered across the suite.
func TestDecodedEquivalenceSuite(t *testing.T) {
	cfgs := append(detect.PaperTools(7), detect.HelgrindPlusNolibSpinLocks(7))
	sweep := decodeSweepOpts()
	i := 0
	for _, c := range dataracetest.Suite() {
		for _, cfg := range cfgs {
			checkDecodeEquivalence(t, c.Build, c.Name, cfg, 1, sweep[i%len(sweep)])
			i++
		}
	}
}

// TestDecodedEquivalenceSynth replays a synthesis corpus (300 seeds, 60
// under -short) against the reference interpreter under the two most
// semantically distant presets, rotating the pipeline sweep per seed.
func TestDecodedEquivalenceSynth(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	cfgs := []detect.Config{detect.HelgrindPlusLibSpin(7), detect.DRD()}
	sweep := decodeSweepOpts()
	for seed := int64(1); seed <= seeds; seed++ {
		w := synth.Generate(seed, synth.Options{})
		opts := sweep[int(seed)%len(sweep)]
		for _, cfg := range cfgs {
			checkDecodeEquivalence(t, func() *ir.Program { return w.Prog }, w.Name, cfg, 1, opts)
		}
	}
}
