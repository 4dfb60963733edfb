// Package obs is the pipeline observability layer: atomic counters,
// log2-bucketed duration/value histograms, and span recording, threaded
// through every stage of the detection pipeline (vm quantum execution,
// segment rotation, merge, GC, clock-store inflation, server sessions).
//
// The contract is that observation is provably free when disabled: every
// hook is a method on a possibly-nil *Pipeline handle and compiles to a
// nil-check — no time syscalls, no atomics, no allocation. The CLIs run
// with a nil handle unless -stats or -trace asks for one; raced runs a
// counters+histograms Recorder per process (span recording off) so the
// stall gauges flow into its Prometheus endpoint, and a per-session
// tracing Recorder only when trace capture is requested.
//
// Two collection modes exist on one Recorder:
//
//   - counters + histograms (New): lock-free atomic adds into fixed
//     arrays, cheap enough for an always-on server. Timed stages cost two
//     monotonic clock reads at stage granularity (a segment, a report, a
//     GC cycle — never per event).
//   - spans (NewTracing): additionally records one timed span per stage
//     instance, including per-quantum vm spans, into a bounded in-memory
//     buffer exportable as Chrome trace-event JSON (see trace.go) that
//     chrome://tracing and Perfetto render as a timeline.
package obs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one process-wide atomic counter.
type Counter uint8

// Counters. Stage totals that a histogram already carries (its count and
// sum) are deliberately not duplicated here.
const (
	// CtrVMSteps counts instructions the vm executed.
	CtrVMSteps Counter = iota
	// CtrVMQuanta counts scheduler quanta the vm ran.
	CtrVMQuanta
	// CtrHBInflates counts clock-store sync objects inflated from the
	// epoch representation to a full vector clock (hb.Stats.Inflates,
	// observed live rather than at report time).
	CtrHBInflates
	// CtrSessions counts server sessions that ran on this recorder.
	CtrSessions

	numCounters
)

var counterNames = [numCounters]string{
	"vm_steps", "vm_quanta", "hb_inflates", "sessions",
}

// Hist identifies one log2-bucketed histogram. The _ns histograms bucket
// durations in nanoseconds; the rest bucket dimensionless values.
type Hist uint8

// Histograms.
const (
	// HistQuantumNs times one vm scheduler quantum (recorded only when
	// span recording is on — the vm's inner loop stays clock-free in
	// counter mode).
	HistQuantumNs Hist = iota
	// HistStallNs times producer stalls: segment rotations that blocked
	// because the detector consumer still owned every buffer. The direct
	// backpressure signal of the overlapped pipeline.
	HistStallNs
	// HistSegApplyNs times the consumer driving one segment through the
	// detector.
	HistSegApplyNs
	// HistMergeNs times report assembly (the counter roll-up).
	HistMergeNs
	// HistGCNs times one quiescence GC cycle.
	HistGCNs
	// HistOutboxStallNs times server session sends that blocked on a full
	// outbox — the write-stall half of the server's backpressure chain.
	HistOutboxStallNs
	// HistSegEvents buckets events per dispatched segment.
	HistSegEvents
	// HistOutboxDepth buckets outbox occupancy sampled at every session
	// send.
	HistOutboxDepth

	numHists
)

var histNames = [numHists]string{
	"quantum_ns", "stall_ns", "seg_apply_ns", "merge_ns", "gc_ns",
	"outbox_stall_ns", "seg_events", "outbox_depth",
}

// histBuckets is the bucket count: bucket i holds values v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). 50 buckets cover ~13
// days in nanoseconds.
const histBuckets = 50

// histogram is one lock-free log2 histogram.
type histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

func (h *histogram) observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Track identifies a span's timeline row (Chrome trace "thread") within a
// Pipeline's process group.
type Track int32

// Tracks.
const (
	// TrackVM is the vm execution row (quantum spans).
	TrackVM Track = iota
	// TrackPipeline is the segment pipeline row: producer stalls and the
	// consumer's per-segment detector batches.
	TrackPipeline
	// TrackHB is the clock store's row (inflation instants).
	TrackHB
	// TrackMerge is report assembly.
	TrackMerge
	// TrackGC is the quiescence GC row.
	TrackGC
	// TrackSession is the server session lifecycle row.
	TrackSession

	numTracks
)

// trackNames name the tracks for trace export and validation.
var trackNames = [numTracks]string{"vm", "pipeline", "hb", "merge", "gc", "session"}

// Time is a monotonic timestamp in nanoseconds since the Recorder
// started; the zero Time means "not recording" and is what every probe
// returns on a nil handle.
type Time int64

// span is one recorded stage instance. dur < 0 marks an instant event.
type span struct {
	pid   int32
	track Track
	name  string // "" means the track's default name
	start Time
	dur   int64
	arg   int64
}

// DefaultMaxSpans bounds a tracing Recorder's span buffer; spans past the
// cap are dropped and counted (WriteTrace reports the loss).
const DefaultMaxSpans = 1 << 20

// Recorder owns one collection of counters, histograms, and (optionally)
// spans. All methods are safe for concurrent use; the zero value must not
// be used — construct with New or NewTracing.
type Recorder struct {
	start    time.Time
	tracing  bool
	maxSpans int

	counters [numCounters]atomic.Int64
	hists    [numHists]histogram
	dropped  atomic.Int64

	mu    sync.Mutex
	procs []string // pid -> label; pid 0 is the unnamed default group
	spans []span
}

// New returns a counters+histograms recorder (span recording off).
func New() *Recorder {
	return &Recorder{start: time.Now(), procs: []string{""}}
}

// NewTracing returns a recorder that additionally records spans, up to
// DefaultMaxSpans.
func NewTracing() *Recorder {
	r := New()
	r.tracing = true
	r.maxSpans = DefaultMaxSpans
	return r
}

// Tracing reports whether span recording is on.
func (r *Recorder) Tracing() bool { return r != nil && r.tracing }

// now is the nanosecond offset since the recorder started.
func (r *Recorder) now() Time { return Time(time.Since(r.start)) }

// Pipeline registers one pipeline instance (a detector run, a server
// session) and returns the probe handle its stages record through. The
// label names the instance's process group in an exported trace; in
// counter mode no registration happens and every instance shares the
// anonymous group, so a long-lived server does not accumulate labels.
// Nil-safe: a nil Recorder yields a nil (disabled) Pipeline.
func (r *Recorder) Pipeline(label string) *Pipeline {
	if r == nil {
		return nil
	}
	if !r.tracing {
		return &Pipeline{r: r}
	}
	r.mu.Lock()
	pid := int32(len(r.procs))
	r.procs = append(r.procs, label)
	r.mu.Unlock()
	return &Pipeline{r: r, pid: pid}
}

// Pipeline is the nil-safe probe handle one pipeline instance records
// through. Every method on a nil *Pipeline returns immediately — the
// disabled configuration costs exactly that nil-check.
type Pipeline struct {
	r   *Recorder
	pid int32
}

// Recorder returns the recorder behind the handle (nil for a disabled
// handle).
func (p *Pipeline) Recorder() *Recorder {
	if p == nil {
		return nil
	}
	return p.r
}

// Add bumps a counter.
func (p *Pipeline) Add(c Counter, n int64) {
	if p == nil {
		return
	}
	p.r.counters[c].Add(n)
}

// Observe records a value into a histogram.
func (p *Pipeline) Observe(h Hist, v int64) {
	if p == nil {
		return
	}
	p.r.hists[h].observe(v)
}

// Start stamps the beginning of a timed stage (histogram and, when
// tracing, span). Zero on a nil handle; pass the result to Stage.
func (p *Pipeline) Start() Time {
	if p == nil {
		return 0
	}
	return p.r.now()
}

// Stage completes a timed stage begun at start: the duration lands in h,
// and a span lands on track tr when tracing. arg is a free dimension
// rendered into the trace (batch sizes, retirement counts).
func (p *Pipeline) Stage(tr Track, h Hist, start Time, arg int64) {
	p.StageNamed(tr, "", h, start, arg)
}

// StageNamed is Stage with an explicit span name (the track's name when
// empty) so one track can carry distinguishable stage kinds.
func (p *Pipeline) StageNamed(tr Track, name string, h Hist, start Time, arg int64) {
	if p == nil {
		return
	}
	d := int64(p.r.now() - start)
	if d < 0 {
		d = 0
	}
	p.r.hists[h].observe(d)
	if p.r.tracing {
		p.record(span{pid: p.pid, track: tr, name: name, start: start, dur: d, arg: arg})
	}
}

// BeginSpan stamps the beginning of a trace-only span: zero (no clock
// read) unless span recording is on. For stages too hot to time in
// counter mode — the vm's per-quantum spans.
func (p *Pipeline) BeginSpan() Time {
	if p == nil || !p.r.tracing {
		return 0
	}
	return p.r.now()
}

// EndSpan completes a BeginSpan (no-op for the zero Time), recording the
// span on tr and its duration into h.
func (p *Pipeline) EndSpan(tr Track, h Hist, start Time, arg int64) {
	if p == nil || start == 0 {
		return
	}
	d := int64(p.r.now() - start)
	if d < 0 {
		d = 0
	}
	p.r.hists[h].observe(d)
	p.record(span{pid: p.pid, track: tr, start: start, dur: d, arg: arg})
}

// Instant records a zero-duration marker on tr when tracing (dispatches,
// inflations, evictions).
func (p *Pipeline) Instant(tr Track, name string, arg int64) {
	if p == nil || !p.r.tracing {
		return
	}
	p.record(span{pid: p.pid, track: tr, name: name, start: p.r.now(), dur: -1, arg: arg})
}

// SpanNamed records an explicitly-named span over [start, now] when
// tracing (session lifecycle phases).
func (p *Pipeline) SpanNamed(tr Track, name string, start Time, arg int64) {
	if p == nil || start == 0 || !p.r.tracing {
		return
	}
	d := int64(p.r.now() - start)
	if d < 0 {
		d = 0
	}
	p.record(span{pid: p.pid, track: tr, name: name, start: start, dur: d, arg: arg})
}

func (p *Pipeline) record(s span) {
	r := p.r
	r.mu.Lock()
	if len(r.spans) >= r.maxSpans {
		r.mu.Unlock()
		r.dropped.Add(1)
		return
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// FoldInto adds this recorder's counters and histogram contents into dst
// (span buffers do not transfer). A traced server session folds its
// private recorder into the server-wide one at session end, so per-session
// trace capture never loses aggregate metrics.
func (r *Recorder) FoldInto(dst *Recorder) {
	if r == nil || dst == nil || r == dst {
		return
	}
	for i := range r.counters {
		if v := r.counters[i].Load(); v != 0 {
			dst.counters[i].Add(v)
		}
	}
	for i := range r.hists {
		src, d := &r.hists[i], &dst.hists[i]
		for b := range src.buckets {
			if v := src.buckets[b].Load(); v != 0 {
				d.buckets[b].Add(v)
			}
		}
		if v := src.count.Load(); v != 0 {
			d.count.Add(v)
		}
		if v := src.sum.Load(); v != 0 {
			d.sum.Add(v)
		}
	}
}

// CounterSnap is one counter in a Snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistBucket is one cumulative histogram bucket: Count observations at
// most Le.
type HistBucket struct {
	Le    uint64 `json:"le"`
	Count int64  `json:"count"`
}

// HistSnap is one histogram in a Snapshot. Buckets are cumulative and
// truncated after the last occupied one; Count and Sum are the totals.
type HistSnap struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) from
// the log2 buckets — each bucket reports its exclusive upper edge, so the
// estimate is within 2x of the true value. Zero when empty.
func (h HistSnap) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(q * float64(h.Count))
	if rank < 1 {
		rank = 1
	}
	for _, b := range h.Buckets {
		if b.Count >= rank {
			return b.Le
		}
	}
	if n := len(h.Buckets); n > 0 {
		return h.Buckets[n-1].Le
	}
	return 0
}

// Snapshot is one consistent-enough read of a recorder's counters and
// histograms — the JSON-facing and Prometheus-facing view.
type Snapshot struct {
	Counters     []CounterSnap `json:"counters,omitempty"`
	Hists        []HistSnap    `json:"histograms,omitempty"`
	DroppedSpans int64         `json:"dropped_spans,omitempty"`
}

// Snapshot reads every counter and histogram. Zero-valued counters and
// empty histograms are elided. Nil-safe: a nil recorder yields the zero
// Snapshot.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	var s Snapshot
	for i := range r.counters {
		if v := r.counters[i].Load(); v != 0 {
			s.Counters = append(s.Counters, CounterSnap{counterNames[i], v})
		}
	}
	for i := range r.hists {
		h := &r.hists[i]
		count := h.count.Load()
		if count == 0 {
			continue
		}
		snap := HistSnap{Name: histNames[i], Count: count, Sum: h.sum.Load()}
		var cum int64
		last := 0
		for b := range h.buckets {
			if h.buckets[b].Load() != 0 {
				last = b
			}
		}
		for b := 0; b <= last; b++ {
			cum += h.buckets[b].Load()
			snap.Buckets = append(snap.Buckets, HistBucket{Le: upperEdge(b), Count: cum})
		}
		s.Hists = append(s.Hists, snap)
	}
	s.DroppedSpans = r.dropped.Load()
	return s
}

// upperEdge is bucket b's inclusive upper value: 2^b - 1 (bucket b holds
// values with bit length b, i.e. [2^(b-1), 2^b - 1]).
func upperEdge(b int) uint64 {
	if b >= 63 {
		return 1<<63 - 1
	}
	return 1<<uint(b) - 1
}

// Summary renders the snapshot as the human block `-stats` appends: one
// line of counters, one line per occupied histogram with count, mean, and
// p50/p99/max upper bounds (log2 buckets, so within 2x).
func (r *Recorder) Summary() string {
	snap := r.Snapshot()
	var b strings.Builder
	if len(snap.Counters) > 0 {
		fmt.Fprintf(&b, "stats: pipeline:")
		for i, c := range snap.Counters {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " %s %d", c.Name, c.Value)
		}
		fmt.Fprintln(&b)
	}
	for _, h := range snap.Hists {
		mean := float64(h.Sum) / float64(h.Count)
		fmt.Fprintf(&b, "stats: stage %-15s n=%-8d mean=%-10.0f p50<=%-10d p99<=%-10d max<=%d\n",
			h.Name, h.Count, mean, h.Quantile(0.5), h.Quantile(0.99), h.Quantile(1))
	}
	if snap.DroppedSpans > 0 {
		fmt.Fprintf(&b, "stats: trace spans dropped: %d (buffer cap %d)\n", snap.DroppedSpans, r.maxSpans)
	}
	return b.String()
}
