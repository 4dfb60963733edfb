package detect_test

import (
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/synth"
	"adhocrace/internal/workloads/dataracetest"
	"adhocrace/internal/workloads/parsec"
)

// TestShadowGCPolicy pins where the always-armed shadow GC runs with zero
// RunOpts: stream length alone decides. The 92,298-event freqmine run
// under lib+spin crosses GCPeriod once, no Table 1 suite case reaches it,
// and a LongTrace detector cycles once per GCPeriod events.
func TestShadowGCPolicy(t *testing.T) {
	m, ok := parsec.ByName("freqmine")
	if !ok {
		t.Fatal("no freqmine model")
	}
	rep, _, err := detect.Prepare(m.Build()).Run(detect.HelgrindPlusLibSpin(7), 1, detect.RunOpts{})
	if err != nil {
		t.Fatalf("freqmine: %v", err)
	}
	if rep.Events != 92298 || rep.GCCycles != 1 {
		t.Errorf("freqmine under lib+spin: %d events, %d GC cycles; want 92298 events, 1 cycle",
			rep.Events, rep.GCCycles)
	}

	for _, c := range dataracetest.Suite() {
		pr := detect.Prepare(c.Build())
		for _, cfg := range detect.PaperTools(7) {
			rep, _, err := pr.Run(cfg, 1, detect.RunOpts{})
			if err != nil {
				t.Fatalf("%s under %s: %v", c.Name, cfg.Name, err)
			}
			if rep.GCCycles != 0 {
				t.Errorf("%s under %s: %d GC cycles over %d events, want 0",
					c.Name, cfg.Name, rep.GCCycles, rep.Events)
			}
		}
	}

	rep, err = synth.LongTrace(1, synth.LongTraceOpts{Windows: 4})
	if err != nil {
		t.Fatalf("longtrace: %v", err)
	}
	if want := rep.Events / detect.GCPeriod; want == 0 || rep.GCCycles != want {
		t.Errorf("longtrace: %d GC cycles over %d events, want %d (one per %d events)",
			rep.GCCycles, rep.Events, want, detect.GCPeriod)
	}
}
