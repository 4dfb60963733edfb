package detect_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/fault"
	"adhocrace/internal/harness"
	"adhocrace/internal/ir"
	"adhocrace/internal/obs"
	"adhocrace/internal/synth"
	"adhocrace/internal/workloads"
	"adhocrace/internal/workloads/dataracetest"
	"adhocrace/internal/workloads/parsec"
)

// segmentsDispatched is how many segments the runs recorded into rec
// handed to a consumer goroutine.
func segmentsDispatched(rec *obs.Recorder) int64 {
	for _, h := range rec.Snapshot().Hists {
		if h.Name == "seg_events" {
			return h.Count
		}
	}
	return 0
}

// TestOverlapOnlyOnLongStreams pins where the production pipeline
// overlaps: never on the short streams that dominate the batch tools, the
// replay benchmark and the server — the accuracy suite, a replayed
// x264-sized trace, the synth workloads raced sessions draw — and on a
// stream that passes event.OverlapThreshold, freqmine under lib+spin(7).
func TestOverlapOnlyOnLongStreams(t *testing.T) {
	run := func(build func() *ir.Program, cfg detect.Config) (int64, int64) {
		t.Helper()
		rec := obs.New()
		rep, _, err := detect.Prepare(build()).Run(cfg, 1, detect.RunOpts{Obs: rec.Pipeline("run")})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Events, segmentsDispatched(rec)
	}
	short := func(name string, build func() *ir.Program, cfg detect.Config) {
		t.Helper()
		if events, segs := run(build, cfg); segs != 0 {
			t.Errorf("%s under %s: %d events dispatched %d segments, want a plain run", name, cfg.Name, events, segs)
		}
	}
	for _, c := range dataracetest.Suite() {
		for _, cfg := range detect.PaperTools(7) {
			short(c.Name, c.Build, cfg)
		}
	}
	for i := 1; i <= 32; i++ {
		name := fmt.Sprintf("%s%d", workloads.SynthPrefix, i)
		build, ok := workloads.Find(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		for _, cfg := range []detect.Config{detect.HelgrindPlusLib(), detect.HelgrindPlusLibSpin(7)} {
			short(name, build, cfg)
		}
	}

	x264, _ := parsec.ByName("x264")
	p, cfg := x264.Build(), detect.HelgrindPlusLibSpin(7)
	tr, err := event.NewTraceReader(bytes.NewReader(recordCase(t, p, cfg, 1)))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	if _, _, err := detect.ReplayTrace(tr, p, cfg, detect.RunOpts{Obs: rec.Pipeline("replay")}); err != nil {
		t.Fatal(err)
	}
	if segs := segmentsDispatched(rec); segs != 0 {
		t.Errorf("x264 replay dispatched %d segments, want a plain replay", segs)
	}

	freqmine, _ := parsec.ByName("freqmine")
	events, segs := run(freqmine.Build, cfg)
	if want := (events - event.OverlapThreshold) / event.DefaultSegmentEvents; events <= event.OverlapThreshold || segs < want {
		t.Errorf("freqmine: %d events dispatched %d segments, want at least %d past the threshold %d",
			events, segs, want, event.OverlapThreshold)
	}
}

// TestLongTracePipelineEquivalence checks the pipeline across vm runs:
// synth.LongTrace feeds one detector, and so one pipeline, from a vm run
// per window, flushing it between windows. With the shadow GC cycling,
// the default policy (plain through the first two windows, overlapped
// from partway through the third) and overlap from the first event in
// 256-event segments must both reproduce the forced-plain report.
func TestLongTracePipelineEquivalence(t *testing.T) {
	run := func(opts detect.RunOpts) (*detect.Report, int64) {
		t.Helper()
		rec := obs.New()
		opts = detect.WithGCPeriod(opts, 2048)
		opts.Obs = rec.Pipeline("longtrace")
		rep, err := synth.LongTrace(1, synth.LongTraceOpts{Windows: 4, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		return rep, segmentsDispatched(rec)
	}
	ref, segs := run(detect.ForcePlain(detect.RunOpts{}))
	if segs != 0 {
		t.Fatalf("forced plain dispatched %d segments", segs)
	}
	if ref.GCCycles == 0 {
		t.Fatal("no GC cycles ran; the comparison proves nothing")
	}
	if ref.Events <= event.OverlapThreshold {
		t.Fatalf("%d events never pass the overlap threshold %d", ref.Events, event.OverlapThreshold)
	}
	want := harness.ReportFingerprint(ref)
	for _, mode := range []struct {
		name string
		opts detect.RunOpts
	}{
		{"default", detect.RunOpts{}},
		{"overlap-256", detect.ForceOverlap(detect.RunOpts{}, 256)},
	} {
		rep, segs := run(mode.opts)
		if segs == 0 {
			t.Errorf("%s: no segment was dispatched; the run never overlapped", mode.name)
		}
		if got := harness.ReportFingerprint(rep); got != want {
			t.Errorf("%s: report differs from the plain pipeline's\n--- plain ---\n%s--- %s ---\n%s", mode.name, want, mode.name, got)
		}
	}
}

// crossoverModes are the pipelines BenchmarkPipelineCrossover compares on
// each stream: plain forced for the whole stream, overlap forced from the
// first event, and the production policy (plain, then overlap past
// event.OverlapThreshold).
var crossoverModes = []struct {
	name  string
	force func(detect.RunOpts) detect.RunOpts
}{
	{"plain", detect.ForcePlain},
	{"overlap", func(o detect.RunOpts) detect.RunOpts { return detect.ForceOverlap(o, event.DefaultSegmentEvents) }},
	{"default", func(o detect.RunOpts) detect.RunOpts { return o }},
}

// BenchmarkPipelineCrossover is the measurement behind
// event.OverlapThreshold: plain against overlapped detection over streams
// of growing length, each reported in events/s. The streams are replays
// of two recorded PARSEC traces under lib+spin(7) — x264 (about 9k
// events) and freqmine (about 93k) — and synth.LongTrace's lock-churn
// stream through one GC'd lib detector over 1, 4 and 20 windows (26k, 104k
// and 518k events). Every mode must reproduce the plain report. Compare
// modes with interleaved runs of one sub-benchmark at a time, e.g.
//
//	go test -run '^$' -bench 'PipelineCrossover/longtrace-4w/(plain|overlap)$' -count 10 ./internal/detect
func BenchmarkPipelineCrossover(b *testing.B) {
	type stream struct {
		name string
		run  func(b *testing.B, opts detect.RunOpts) *detect.Report
	}
	var streams []stream
	for _, model := range []string{"x264", "freqmine"} {
		m, ok := parsec.ByName(model)
		if !ok {
			b.Fatalf("no %s model", model)
		}
		p := m.Build()
		cfg := detect.HelgrindPlusLibSpin(7)
		var buf bytes.Buffer
		if _, _, err := detect.RecordTrace(&buf, p, cfg, 1, event.TraceMeta{Workload: model, Tool: "spin", Window: 7, Seed: 1}); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		streams = append(streams, stream{"replay-" + model, func(b *testing.B, opts detect.RunOpts) *detect.Report {
			tr, err := event.NewTraceReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			rep, _, err := detect.ReplayTrace(tr, p, cfg, opts)
			if err != nil {
				b.Fatal(err)
			}
			return rep
		}})
	}
	for _, windows := range []int{1, 4, 20} {
		windows := windows
		streams = append(streams, stream{fmt.Sprintf("longtrace-%dw", windows), func(b *testing.B, opts detect.RunOpts) *detect.Report {
			rep, err := synth.LongTrace(1, synth.LongTraceOpts{Cfg: detect.HelgrindPlusLib(), Opts: opts, Windows: windows})
			if err != nil {
				b.Fatal(err)
			}
			return rep
		}})
	}

	for _, s := range streams {
		// want is the plain report, taken by the first sub-benchmark that
		// runs, so a -bench filter pays only for the streams it selects.
		var want string
		for _, mode := range crossoverModes {
			b.Run(s.name+"/"+mode.name, func(b *testing.B) {
				if want == "" {
					b.StopTimer()
					want = harness.ReportFingerprint(s.run(b, detect.ForcePlain(detect.RunOpts{})))
					b.StartTimer()
				}
				opts := mode.force(detect.RunOpts{})
				var events int64
				var rep *detect.Report
				for i := 0; i < b.N; i++ {
					rep = s.run(b, opts)
					events += rep.Events
				}
				b.StopTimer()
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
				if harness.ReportFingerprint(rep) != want {
					b.Fatalf("%s report differs from the plain pipeline's", mode.name)
				}
			})
		}
	}
}

// TestDetectorPanicReachesCaller: a detector that panics mid-run — on the
// producer's goroutine while the stream is plain, or on the consumer's
// once it overlaps — fails Prepared.Run on the caller's goroutine, and
// the run's Close still stops the consumer.
func TestDetectorPanicReachesCaller(t *testing.T) {
	m, _ := parsec.ByName("freqmine")
	cfg := detect.HelgrindPlusLibSpin(7)
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		opts detect.RunOpts
	}{
		{"plain", detect.RunOpts{}},
		{"overlapped", detect.ForceOverlap(detect.RunOpts{}, 64)},
	} {
		reg := fault.New()
		if err := reg.Arm(fault.GCCycle, fault.ModePanic, 3, 1); err != nil {
			t.Fatal(err)
		}
		opts := tc.opts
		opts = detect.WithGCPeriod(opts, 256)
		opts.Fault = reg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the detector's panic never reached the caller", tc.name)
				}
			}()
			detect.Prepare(m.Build()).Run(cfg, 1, opts)
		}()
		if reg.FiredCount(fault.GCCycle) != 1 {
			t.Errorf("%s: GC failpoint fired %d times, want 1", tc.name, reg.FiredCount(fault.GCCycle))
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines: %d before, %d after the panicking runs", before, n)
	}
}
