package harness

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"adhocrace/internal/detect"
)

// RunStats aggregates detector counters across every run a Runner
// executes — the plumbing behind `tables -stats` and `racedetect -stats`.
// Counters are atomic because the experiment engine observes reports from
// concurrent jobs; totals are order-independent sums, so the footer is as
// deterministic as the table above it (events/sec excepted, which is wall
// clock by definition).
type RunStats struct {
	// Runs counts detector runs (reports observed); VMRuns counts vm runs,
	// each of which feeds every detector of its job.
	Runs        atomic.Int64
	VMRuns      atomic.Int64
	Events      atomic.Int64
	ShadowBytes atomic.Int64
	Promotions  atomic.Int64
	// Sync-side clock-store counters (hb.Stats, summed over runs): how
	// often release/acquire stayed on the O(1) epoch path versus re-basing
	// or inflating to a full vector clock.
	EpochHits atomic.Int64
	Rebases   atomic.Int64
	Inflates  atomic.Int64
	// Shadow-GC counters (detect/gc.go, summed over runs): quiescence
	// cycles and what they retired.
	GCCycles       atomic.Int64
	GCWordsRetired atomic.Int64
	GCSyncRetired  atomic.Int64
}

// Observe folds one run's report into the totals.
func (s *RunStats) Observe(rep *detect.Report) {
	if s == nil || rep == nil {
		return
	}
	s.Runs.Add(1)
	s.Events.Add(rep.Events)
	s.ShadowBytes.Add(rep.ShadowBytes)
	s.Promotions.Add(rep.ReadSetPromotions)
	s.EpochHits.Add(rep.SyncEpochHits)
	s.Rebases.Add(rep.SyncRebases)
	s.Inflates.Add(rep.SyncInflates)
	s.GCCycles.Add(rep.GCCycles)
	s.GCWordsRetired.Add(rep.GCWordsRetired)
	s.GCSyncRetired.Add(rep.GCSyncObjsRetired)
}

// observeVMRun counts one vm run.
func (s *RunStats) observeVMRun() {
	if s != nil {
		s.VMRuns.Add(1)
	}
}

// Footer renders the stats block printed under a table run. elapsed is the
// caller-measured wall time covering the runs.
func (s *RunStats) Footer(elapsed time.Duration) string {
	var b strings.Builder
	events := s.Events.Load()
	fmt.Fprintf(&b, "stats: %d runs, %d events", s.Runs.Load(), events)
	if secs := elapsed.Seconds(); secs > 0 {
		fmt.Fprintf(&b, " (%.0f events/sec)", float64(events)/secs)
	}
	fmt.Fprintf(&b, "\nstats: shadow bytes %d (summed over runs), read-set promotions %d\n",
		s.ShadowBytes.Load(), s.Promotions.Load())
	hits, rebases, inflates := s.EpochHits.Load(), s.Rebases.Load(), s.Inflates.Load()
	fmt.Fprintf(&b, "stats: sync epoch hits %d, rebases %d, inflates %d", hits, rebases, inflates)
	if total := hits + rebases + inflates; total > 0 {
		fmt.Fprintf(&b, " (%.1f%% epoch-hit rate)", 100*float64(hits)/float64(total))
	}
	fmt.Fprintln(&b)
	if cycles := s.GCCycles.Load(); cycles > 0 {
		fmt.Fprintf(&b, "stats: shadow-gc cycles %d, words retired %d, sync objects retired %d\n",
			cycles, s.GCWordsRetired.Load(), s.GCSyncRetired.Load())
	}
	return b.String()
}
