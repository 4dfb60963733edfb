package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	r := New()
	p := r.Pipeline("t")
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
		p.Observe(HistSegEvents, v)
	}
	snap := r.Snapshot()
	var h *HistSnap
	for i := range snap.Hists {
		if snap.Hists[i].Name == "seg_events" {
			h = &snap.Hists[i]
		}
	}
	if h == nil {
		t.Fatal("seg_events histogram missing from snapshot")
	}
	if h.Count != 7 {
		t.Fatalf("count = %d, want 7", h.Count)
	}
	// -5 clamps to 0; sum = 0+1+2+3+4+1000+0.
	if h.Sum != 1010 {
		t.Fatalf("sum = %d, want 1010", h.Sum)
	}
	// Buckets are cumulative with inclusive upper edges 2^b-1:
	// le=0 covers {0, clamped -5}, le=1 adds {1}, le=3 adds {2,3},
	// le=7 adds {4}, le=1023 adds {1000}.
	want := map[uint64]int64{0: 2, 1: 3, 3: 5, 7: 6, 1023: 7}
	for _, b := range h.Buckets {
		if w, ok := want[b.Le]; ok && b.Count != w {
			t.Errorf("bucket le=%d count = %d, want %d", b.Le, b.Count, w)
		}
	}
	if last := h.Buckets[len(h.Buckets)-1]; last.Count != 7 {
		t.Fatalf("last cumulative bucket = %d, want 7", last.Count)
	}
}

func TestQuantileUpperBound(t *testing.T) {
	r := New()
	p := r.Pipeline("t")
	for i := int64(1); i <= 100; i++ {
		p.Observe(HistSegEvents, i)
	}
	snap := r.Snapshot()
	var h HistSnap
	for _, hs := range snap.Hists {
		if hs.Name == "seg_events" {
			h = hs
		}
	}
	// p50 of 1..100 is 50; the log2 upper bound must cover it within 2x.
	if q := h.Quantile(0.5); q < 50 || q > 128 {
		t.Fatalf("p50 bound = %d, want in [50,128]", q)
	}
	if q := h.Quantile(1); q < 100 {
		t.Fatalf("max bound = %d, want >= 100", q)
	}
	if (HistSnap{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestNilPipelineIsFreeAndSafe(t *testing.T) {
	var p *Pipeline
	// Every probe must be callable and alloc-free on the nil handle.
	allocs := testing.AllocsPerRun(100, func() {
		start := p.Start()
		p.Stage(TrackMerge, HistMergeNs, start, 1)
		s2 := p.BeginSpan()
		p.EndSpan(TrackVM, HistQuantumNs, s2, 0)
		p.Add(CtrVMSteps, 1)
		p.Observe(HistSegEvents, 3)
		p.Instant(TrackHB, "inflate", 0)
		p.SpanNamed(TrackSession, "run", s2, 0)
	})
	if allocs != 0 {
		t.Fatalf("nil pipeline hooks allocated %v/op, want 0", allocs)
	}
	if p.Start() != 0 || p.BeginSpan() != 0 {
		t.Fatal("nil pipeline timestamps must be 0")
	}
	if p.Recorder() != nil {
		t.Fatal("nil pipeline recorder must be nil")
	}
	var r *Recorder
	if r.Pipeline("x") != nil {
		t.Fatal("nil recorder must yield nil pipeline")
	}
	if r.Tracing() {
		t.Fatal("nil recorder is not tracing")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Hists) != 0 {
		t.Fatal("nil recorder snapshot must be empty")
	}
}

func TestCounterModeHooksDoNotAllocate(t *testing.T) {
	r := New()
	p := r.Pipeline("bench")
	allocs := testing.AllocsPerRun(100, func() {
		start := p.Start()
		p.Stage(TrackPipeline, HistSegApplyNs, start, 64)
		p.Add(CtrVMSteps, 100)
		p.Observe(HistSegEvents, 32)
		// Trace-only probes must stay free in counter mode.
		s2 := p.BeginSpan()
		p.EndSpan(TrackVM, HistQuantumNs, s2, 0)
		p.Instant(TrackHB, "inflate", 0)
	})
	if allocs != 0 {
		t.Fatalf("counter-mode hooks allocated %v/op, want 0", allocs)
	}
}

func TestFoldInto(t *testing.T) {
	a, b := New(), New()
	pa, pb := a.Pipeline(""), b.Pipeline("")
	pa.Add(CtrVMSteps, 5)
	pb.Add(CtrVMSteps, 7)
	pa.Observe(HistGCNs, 100)
	pb.Observe(HistGCNs, 300)
	a.FoldInto(b)
	snap := b.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 12 {
		t.Fatalf("folded counters = %+v, want vm_steps 12", snap.Counters)
	}
	var gc HistSnap
	for _, h := range snap.Hists {
		if h.Name == "gc_ns" {
			gc = h
		}
	}
	if gc.Count != 2 || gc.Sum != 400 {
		t.Fatalf("folded gc hist count=%d sum=%d, want 2/400", gc.Count, gc.Sum)
	}
	// Nil / self folds are no-ops.
	var nilRec *Recorder
	nilRec.FoldInto(b)
	b.FoldInto(nil)
	b.FoldInto(b)
	if got := b.Snapshot().Counters[0].Value; got != 12 {
		t.Fatalf("no-op folds changed counters: %d", got)
	}
}

func TestSummary(t *testing.T) {
	r := New()
	p := r.Pipeline("")
	p.Add(CtrVMQuanta, 42)
	p.Observe(HistStallNs, 1500)
	s := r.Summary()
	if !strings.Contains(s, "vm_quanta 42") {
		t.Fatalf("summary missing counter line:\n%s", s)
	}
	if !strings.Contains(s, "stall_ns") {
		t.Fatalf("summary missing histogram line:\n%s", s)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	r := NewTracing()
	p := r.Pipeline("run seed=1")
	start := p.Start()
	p.Stage(TrackPipeline, HistSegApplyNs, start, 64)
	q := p.BeginSpan()
	if q == 0 {
		t.Fatal("BeginSpan must stamp when tracing")
	}
	p.EndSpan(TrackVM, HistQuantumNs, q, 0)
	p.Instant(TrackHB, "inflate", 1)
	p.SpanNamed(TrackSession, "run 0", start, 0)
	gc := r.Pipeline("gc")
	st := gc.Start()
	gc.Stage(TrackGC, HistGCNs, st, 8)

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateTrace(&buf)
	if err != nil {
		t.Fatalf("trace did not validate: %v", err)
	}
	for _, track := range []string{"pipeline", "vm", "hb", "session", "gc"} {
		if sum.Events[track] == 0 {
			t.Errorf("track %q has no events: %+v", track, sum.Events)
		}
	}
	if sum.Total != 5 {
		t.Fatalf("total events = %d, want 5", sum.Total)
	}
}

func TestTraceEmptyAndInvalid(t *testing.T) {
	var buf bytes.Buffer
	var nilRec *Recorder
	if err := nilRec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTrace(&buf); err == nil {
		t.Fatal("empty trace should fail validation")
	}
	if _, err := ValidateTrace(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage should fail validation")
	}
	if _, err := ValidateTrace(strings.NewReader(`{"traceEvents":[{"ph":"Z","name":"x"}]}`)); err == nil {
		t.Fatal("unknown phase should fail validation")
	}
}

func TestSpanBufferCap(t *testing.T) {
	r := NewTracing()
	r.maxSpans = 4
	p := r.Pipeline("capped")
	for i := 0; i < 10; i++ {
		p.Instant(TrackVM, "tick", int64(i))
	}
	if d := r.Snapshot().DroppedSpans; d != 6 {
		t.Fatalf("dropped = %d, want 6", d)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	if _, err := ValidateTrace(strings.NewReader(raw)); err != nil {
		t.Fatalf("capped trace must still validate: %v", err)
	}
	if !strings.Contains(raw, "spans dropped") {
		t.Fatal("trace should carry a drop marker")
	}
}

func TestTrackNames(t *testing.T) {
	seen := map[string]bool{}
	for tr := TrackVM; tr < numTracks; tr++ {
		n := trackNames[tr]
		if n == "" || seen[n] {
			t.Fatalf("track %d name %q empty or duplicate", tr, n)
		}
		seen[n] = true
	}
}
