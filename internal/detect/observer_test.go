// Warning-observer stream order: RunOpts.OnWarning must observe exactly
// the final report's warnings, in report order, once each — under every
// pipeline shape. The server streams races to clients through this hook;
// its byte-identical conformance bar rests on this property. External test
// package for the same import-cycle reason as equivalence_test.go.
package detect_test

import (
	"reflect"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/synth"
	"adhocrace/internal/workloads/dataracetest"
)

// checkObserver runs one (program, config, seed) with an observer attached
// and asserts the observed sequence equals Report.Warnings exactly.
func checkObserver(t *testing.T, build func() *ir.Program, name string, cfg detect.Config, opts detect.RunOpts) {
	t.Helper()
	var seen []detect.Warning
	opts.OnWarning = func(w detect.Warning) { seen = append(seen, w) }
	rep, _, err := detect.Prepare(build()).Run(cfg, 1, opts)
	if err != nil {
		t.Fatalf("%s under %s: %v", name, cfg.Name, err)
	}
	if len(seen) != len(rep.Warnings) {
		t.Fatalf("%s under %s: observed %d warnings, report has %d",
			name, cfg.Name, len(seen), len(rep.Warnings))
	}
	for i := range seen {
		if !reflect.DeepEqual(seen[i], rep.Warnings[i]) {
			t.Fatalf("%s under %s: observed warning %d = %+v, report has %+v",
				name, cfg.Name, i, seen[i], rep.Warnings[i])
		}
	}
}

// TestWarningObserverSuite sweeps the racy half of the accuracy suite
// (cases with warnings make the ordering bar meaningful) across the
// pipeline shapes under the spin-featured Helgrind+.
func TestWarningObserverSuite(t *testing.T) {
	cfg := detect.HelgrindPlusLibSpin(7)
	sweep := []detect.RunOpts{{}, detect.ForceOverlap(detect.RunOpts{}, event.DefaultSegmentEvents), detect.ForceOverlap(detect.RunOpts{}, 64)}
	for _, c := range dataracetest.Suite() {
		for _, opts := range sweep {
			checkObserver(t, c.Build, c.Name, cfg, opts)
		}
	}
}

// TestWarningObserverSynth replays a synthesis slice (warning-dense
// programs) under both DRD and Helgrind+ with the observer attached.
func TestWarningObserverSynth(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 15
	}
	cfgs := []detect.Config{detect.HelgrindPlusLibSpin(7), detect.DRD()}
	sweep := []detect.RunOpts{{}, detect.ForceOverlap(detect.RunOpts{}, event.DefaultSegmentEvents), detect.ForceOverlap(detect.RunOpts{}, 64)}
	for seed := int64(1); seed <= seeds; seed++ {
		w := synth.Generate(seed)
		opts := sweep[int(seed)%len(sweep)]
		for _, cfg := range cfgs {
			checkObserver(t, func() *ir.Program { return w.Prog }, w.Name, cfg, opts)
		}
	}
}
