package harness

import (
	"strings"
	"sync"
	"testing"
	"time"

	"adhocrace/internal/detect"
)

func TestRunStatsObserve(t *testing.T) {
	s := &RunStats{}
	rep := &detect.Report{
		Events:            100,
		ShadowBytes:       2048,
		ReadSetPromotions: 3,
		SyncEpochHits:     90,
		SyncRebases:       7,
		SyncInflates:      3,
		GCCycles:          2,
		GCWordsRetired:    40,
		GCSyncObjsRetired: 5,
	}
	s.Observe(rep)
	s.Observe(rep)
	if got := s.Runs.Load(); got != 2 {
		t.Errorf("Runs = %d, want 2", got)
	}
	if got := s.Events.Load(); got != 200 {
		t.Errorf("Events = %d, want 200", got)
	}
	if got := s.ShadowBytes.Load(); got != 4096 {
		t.Errorf("ShadowBytes = %d, want 4096", got)
	}
	if got := s.EpochHits.Load(); got != 180 {
		t.Errorf("EpochHits = %d, want 180", got)
	}
	if got := s.GCCycles.Load(); got != 4 {
		t.Errorf("GCCycles = %d, want 4", got)
	}
	if got := s.GCSyncRetired.Load(); got != 10 {
		t.Errorf("GCSyncRetired = %d, want 10", got)
	}
}

func TestRunStatsObserveNilSafe(t *testing.T) {
	// Both receivers are optional at the call sites (runJobs observes
	// unconditionally; reports can be absent on error paths).
	var s *RunStats
	s.Observe(&detect.Report{Events: 1}) // must not panic
	full := &RunStats{}
	full.Observe(nil)
	if got := full.Runs.Load(); got != 0 {
		t.Errorf("Observe(nil) counted a run: Runs = %d", got)
	}
}

func TestRunStatsObserveConcurrent(t *testing.T) {
	// The experiment engine observes from concurrent jobs; totals are
	// order-independent sums.
	s := &RunStats{}
	rep := &detect.Report{Events: 10, SyncEpochHits: 4}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Observe(rep)
			}
		}()
	}
	wg.Wait()
	if got := s.Runs.Load(); got != 800 {
		t.Errorf("Runs = %d, want 800", got)
	}
	if got := s.Events.Load(); got != 8000 {
		t.Errorf("Events = %d, want 8000", got)
	}
}

func TestRunStatsFooter(t *testing.T) {
	s := &RunStats{}
	s.Observe(&detect.Report{
		Events:        1000,
		SyncEpochHits: 75,
		SyncRebases:   20,
		SyncInflates:  5,
	})
	out := s.Footer(2 * time.Second)
	for _, want := range []string{
		"stats: 1 runs, 1000 events",
		"(500 events/sec)",
		"sync epoch hits 75, rebases 20, inflates 5",
		"(75.0% epoch-hit rate)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Footer missing %q in:\n%s", want, out)
		}
	}
	// No GC cycles observed: the shadow-gc line must be absent.
	if strings.Contains(out, "shadow-gc") {
		t.Errorf("Footer carries a shadow-gc line with zero cycles:\n%s", out)
	}
}

func TestRunStatsFooterGCAndZeroElapsed(t *testing.T) {
	s := &RunStats{}
	s.Observe(&detect.Report{
		Events:            50,
		GCCycles:          3,
		GCWordsRetired:    120,
		GCSyncObjsRetired: 7,
	})
	out := s.Footer(0)
	if strings.Contains(out, "events/sec") {
		t.Errorf("Footer reports a rate with zero elapsed:\n%s", out)
	}
	if !strings.Contains(out, "shadow-gc cycles 3, words retired 120, sync objects retired 7") {
		t.Errorf("Footer missing shadow-gc line in:\n%s", out)
	}
}
