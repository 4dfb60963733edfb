// Long-trace soak: the quiescence GC must hold the detector's footprint
// flat across an arbitrarily long windowed replay while reporting byte
// for byte what the unbounded detector reports. `make memory-smoke` runs
// TestLongTraceFlatMemory as the CI gate (it fails on a >2× plateau
// growth); -longtrace-events scales TestLongTraceBigRun to the 100M+
// event validation runs.
package detect_test

import (
	"flag"
	"runtime"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/harness"
	"adhocrace/internal/synth"
)

// longTraceEvents sets a minimum event count for TestLongTraceBigRun
// (0 skips it): windows are added until the trace is at least this long.
var longTraceEvents = flag.Int64("longtrace-events", 0,
	"minimum event count for TestLongTraceBigRun (0 = skip)")

// TestLongTraceGCEquivalence replays the same windowed trace with the GC
// disarmed and with it cycling every 2048 events: one fingerprint, two
// detectors. Four windows (about 104k events) pass event.OverlapThreshold,
// so GC cycles run both before and after the pipeline starts overlapping.
func TestLongTraceGCEquivalence(t *testing.T) {
	base := synth.LongTraceOpts{Windows: 4}
	o := base
	o.Opts = detect.NoGC(detect.RunOpts{})
	ref, err := synth.LongTrace(1, o)
	if err != nil {
		t.Fatalf("unbounded: %v", err)
	}
	if ref.Events <= event.OverlapThreshold {
		t.Fatalf("%d events never pass the overlap threshold %d", ref.Events, event.OverlapThreshold)
	}
	want := harness.ReportFingerprint(ref)
	o.Opts = detect.WithGCPeriod(detect.RunOpts{}, 2048)
	rep, err := synth.LongTrace(1, o)
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if rep.GCCycles == 0 {
		t.Fatal("gc: no GC cycles ran; the comparison proves nothing")
	}
	if got := harness.ReportFingerprint(rep); got != want {
		t.Errorf("gc: report differs from unbounded detector\n--- unbounded ---\n%s--- gc ---\n%s", want, got)
	}
}

// TestLongTraceFlatMemory is the flat-memory soak: under the GC, the
// shadow footprint and the happens-before object count sampled at every
// window boundary must plateau (no sample beyond 2× the first), and the
// final figures must sit far below the unbounded detector's.
func TestLongTraceFlatMemory(t *testing.T) {
	o := synth.LongTraceOpts{Phases: 128, Windows: 3}
	if testing.Short() {
		o.Phases = 64
	}

	var shadowSamples []int64
	gcOpts := o
	gcOpts.Opts = detect.WithGCPeriod(detect.RunOpts{}, 2048)
	gcOpts.OnWindow = func(w int, rep *detect.Report) {
		shadowSamples = append(shadowSamples, rep.ShadowBytes)
	}
	gc, err := synth.LongTrace(1, gcOpts)
	if err != nil {
		t.Fatalf("gc run: %v", err)
	}
	for i, s := range shadowSamples {
		if s > 2*shadowSamples[0] {
			t.Errorf("shadow footprint not flat: window %d at %d bytes, window 0 at %d",
				i, s, shadowSamples[0])
		}
	}
	if gc.SyncObjects > int64(o.Phases/8) {
		t.Errorf("hb objects not collected: %d live, %d phases", gc.SyncObjects, o.Phases)
	}

	o.Opts = detect.NoGC(detect.RunOpts{})
	ref, err := synth.LongTrace(1, o)
	if err != nil {
		t.Fatalf("unbounded run: %v", err)
	}
	if gc.ShadowBytes*4 > ref.ShadowBytes {
		t.Errorf("GC footprint %d not well below unbounded %d", gc.ShadowBytes, ref.ShadowBytes)
	}
	if gc.SyncObjects >= ref.SyncObjects {
		t.Errorf("GC hb objects %d not below unbounded %d", gc.SyncObjects, ref.SyncObjects)
	}
	if len(gc.Warnings) != len(ref.Warnings) {
		t.Errorf("GC changed warnings: %d vs %d", len(gc.Warnings), len(ref.Warnings))
	}
}

// TestLongTraceBigRun is the scale validation: enough windows to cross
// -longtrace-events (100M+ for the acceptance run), asserting the shadow
// plateau at every window and a flat Go heap (runtime.ReadMemStats after
// runtime.GC) sampled every 32 windows against the 4-window baseline.
func TestLongTraceBigRun(t *testing.T) {
	if *longTraceEvents <= 0 {
		t.Skip("enable with -longtrace-events=N")
	}
	o := synth.LongTraceOpts{Phases: 128}
	probe, err := synth.LongTrace(1, o) // one window to size the trace
	if err != nil {
		t.Fatalf("probe window: %v", err)
	}
	o.Windows = int(*longTraceEvents/probe.Events) + 1
	o.Opts = detect.WithGCPeriod(detect.RunOpts{}, 1<<14)

	// The shadow baseline is the max over the first 16 windows: a window
	// is ~6.3 GC periods long, so the end-of-window sample precesses
	// through the GC phase and 16 windows cover its full amplitude.
	var shadowBase int64
	var heap0 uint64
	heapAt := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	o.OnWindow = func(w int, rep *detect.Report) {
		if w < 16 {
			if rep.ShadowBytes > shadowBase {
				shadowBase = rep.ShadowBytes
			}
		} else if rep.ShadowBytes > 2*shadowBase {
			t.Errorf("window %d: shadow %d beyond 2× warm-up max %d", w, rep.ShadowBytes, shadowBase)
		}
		if w%32 != 4 {
			return
		}
		h := heapAt()
		if w == 4 {
			heap0 = h
		} else if h > 2*heap0 {
			t.Errorf("window %d: heap %d beyond 2× baseline %d", w, h, heap0)
		}
	}
	rep, err := synth.LongTrace(1, o)
	if err != nil {
		t.Fatalf("big run: %v", err)
	}
	if rep.Events < *longTraceEvents {
		t.Errorf("trace too short: %d events, want >= %d", rep.Events, *longTraceEvents)
	}
	t.Logf("events=%d windows=%d shadow=%d syncobjs=%d gcCycles=%d wordsRetired=%d",
		rep.Events, o.Windows, rep.ShadowBytes, rep.SyncObjects, rep.GCCycles, rep.GCWordsRetired)
}
