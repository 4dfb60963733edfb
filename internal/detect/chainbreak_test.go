package detect_test

import (
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/workloads/dataracetest"
)

// TestAtomicChainBreakReported runs the atomic chain-break program on
// scheduler seeds 1–20. T0's plain read of X is unordered with T1's later
// atomic store, but an atomic store by T2, ordered after the read, comes
// in between, and two atomic stores skip the write-epoch check. Only the
// recorded read can show the race, so every preset must keep it: the spin
// presets, the lock-inference extension included, report T1's store
// against T0 exactly once. Helgrind+ lib suppresses every warning on an
// atomically accessed cell, and DRD does not see atomics at all, so both
// report nothing.
func TestAtomicChainBreakReported(t *testing.T) {
	prep := detect.Prepare(dataracetest.BuildAtomicChainBreak())
	for _, cfg := range append(detect.PaperTools(7), detect.HelgrindPlusNolibSpinLocks(7)) {
		wantRace := cfg.SpinWindow > 0
		for seed := int64(1); seed <= 20; seed++ {
			rep, _, err := prep.Run(cfg, seed, detect.RunOpts{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", cfg.Name, seed, err)
			}
			if !wantRace {
				if len(rep.Warnings) != 0 {
					t.Errorf("%s seed %d: want no warnings, got %v", cfg.Name, seed, rep.Warnings)
				}
				continue
			}
			if len(rep.Warnings) != 1 {
				t.Errorf("%s seed %d: want one warning, got %v", cfg.Name, seed, rep.Warnings)
				continue
			}
			w := rep.Warnings[0]
			if !w.Write || w.Sym != "X" || w.Tid != 1 || w.Other != 0 {
				t.Errorf("%s seed %d: want T1's write of X against T0, got %v", cfg.Name, seed, w)
			}
		}
	}
}
