package detect_test

import (
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/workloads/dataracetest"
)

// shadowPageBytes is the allocation bar: the size of one shadow page when
// words were 88 bytes (512 of them plus the page's bookkeeping). Words now
// also carry their lockset state, making a page 53,264 B, but the bar stays
// at the smaller figure.
const shadowPageBytes = 45_064

// TestSteadyStateRunAllocatesUnderOnePage pins the shadow-page pool: once
// warm, a Prepared.Run of a suite case takes its page from the pool
// instead of allocating one, so the whole run — vm, detector, report —
// allocates less than a single page would.
func TestSteadyStateRunAllocatesUnderOnePage(t *testing.T) {
	if detect.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := dataracetest.Suite()[0]
	prep := detect.Prepare(c.Build())
	cfg := detect.HelgrindPlusLibSpin(7)
	run := func() {
		if _, _, err := prep.Run(cfg, 1, detect.RunOpts{}); err != nil {
			t.Fatalf("%s under %s: %v", c.Name, cfg.Name, err)
		}
	}
	run() // warm up: instrumentation, decoded program, the pool's page
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run()
		}
	})
	t.Logf("steady-state run of %s: %d B/op, %d allocs/op", c.Name, res.AllocedBytesPerOp(), res.AllocsPerOp())
	if got := res.AllocedBytesPerOp(); got >= shadowPageBytes {
		t.Errorf("steady-state run of %s allocates %d B, want < %d (one shadow page)", c.Name, got, shadowPageBytes)
	}
}
