package event

import (
	"sync"

	"adhocrace/internal/fault"
	"adhocrace/internal/obs"
)

// Trace-segmented overlap: the producer (the vm's execution loop, or a
// trace replay) appends events into the current segment buffer; a full
// segment is handed to a consumer goroutine that drives the downstream
// sink (the detector) while the producer fills the other buffer.
// Production and detection overlap within one run, yet the downstream
// sink still observes the exact serial event order — every Handle call
// happens on one goroutine at a time, in stream order — so reports are
// byte-identical to the unsegmented pipeline by construction.
//
// Overlap pays only on long streams: on 2 vCPUs it wins from about 93k
// events up and loses on a 9k-event replay, where the copy and hand-off
// cost more than they hide. So a run starts plain: its owner (the
// detector) applies the first Plain() events itself, on the producer
// goroutine, and hands only the later ones to Handle. The first Handle
// call, at that event boundary and still on the producer goroutine,
// starts the consumer and the double buffer. Every event before the
// switch has been fully handled when the first segment is dispatched, so
// stream order holds across the switch, and the plain path costs the
// owner one counter compare, with no call into the pipeline.
//
// Two buffers bound the pipeline: rotating blocks until the consumer has
// finished a previous segment, which is back-pressure, not a correctness
// condition. Buffers are recycled through the free channel during a run,
// and across runs through a process-wide slab pool (slabPool), so a
// steady stream of long runs reuses the same two slabs instead of
// allocating fresh ones per run. Events are pointer-free, so a pooled
// slab holds nothing alive for the GC and stale contents are simply
// overwritten by append.

// OverlapThreshold is the number of events a run applies plain before it
// starts overlapping (NewSegmented's Plain). The crossover sweep
// (internal/detect BenchmarkPipelineCrossover) puts it between a
// 26k-event stream, where the two paths tie, and a 93k-event one, where
// overlap wins.
const OverlapThreshold = 1 << 16

// DefaultSegmentEvents is the segment size once overlap has started: big
// enough to amortize the per-segment hand-off, small enough that two
// in-flight segments stay a few hundred kilobytes.
const DefaultSegmentEvents = 2048

// Segmented is a Sink that decouples event production from consumption
// through double-buffered segments: every event given to Handle is
// applied on the consumer goroutine. It also carries the policy of when
// to start (Plain). The producer side (Handle, Flush, Close) must be a
// single goroutine, exactly like any other Sink. It implements Flusher:
// Flush dispatches the partial segment, waits for the consumer to drain
// everything, and then flushes the downstream sink.
type Segmented struct {
	down Sink
	// plain is the number of leading events the owner applies itself
	// (Plain); the pipeline starts at the first Handle (work != nil from
	// then on).
	plain int
	size  int

	// obs, when set, records per-segment sizes, consumer apply time, and
	// producer stall time (the pipeline's backpressure signal). Nil keeps
	// every probe a nil-check.
	obs *obs.Pipeline
	// fault, when set, arms the segment-rotation failpoint. Nil keeps the
	// probe a nil-check.
	fault *fault.Registry

	cur  []Event
	work chan []Event
	free chan []Event
	// pending counts dispatched segments not yet fully consumed; Add on
	// the producer, Done on the consumer, Wait only in Flush (the producer
	// again), which is the ordering sync.WaitGroup requires.
	pending sync.WaitGroup
	done    chan struct{}
	closed  bool

	// panicked re-raises a downstream panic on the producer goroutine at
	// the next operation, so a crashing detector fails the run instead of
	// killing the process from a bare goroutine.
	mu       sync.Mutex
	panicked any
	hasPanic bool
}

// NewSegmented returns the pipeline feeding down with the production
// policy: plain for the first OverlapThreshold events, overlapped in
// DefaultSegmentEvents segments after that. It starts no goroutine; the
// caller owns the lifecycle and Closes it when done, which stops the
// consumer if one was started (Flush alone leaves it running for more
// events).
func NewSegmented(down Sink) *Segmented {
	return newSegmented(down, OverlapThreshold, DefaultSegmentEvents)
}

// newSegmented is NewSegmented with the policy as parameters: plain
// leading events, then segments of size events. Tests use it to overlap
// from the first event or in tiny segments.
func newSegmented(down Sink, plain, size int) *Segmented {
	return &Segmented{down: down, plain: plain, size: size}
}

// Plain is the pipeline's policy: how many leading events of the stream
// the owner applies to the downstream sink itself, on the producer
// goroutine, before it hands every further event to Handle.
func (s *Segmented) Plain() int { return s.plain }

// start switches the stream to overlap: it takes the two buffers of the
// double buffer and starts the consumer goroutine. It runs on the
// producer goroutine between two events.
func (s *Segmented) start() {
	s.cur = newSlab(s.size)
	s.work = make(chan []Event, 1)
	s.free = make(chan []Event, 2)
	s.done = make(chan struct{})
	s.free <- newSlab(s.size) // the second buffer of the double buffer
	go s.consume()
}

// SetObs attaches an observability pipeline. Must be called before the
// first event: the consumer goroutine reads it too, and the work-channel
// hand-off of the first segment is what orders the write for it.
func (s *Segmented) SetObs(p *obs.Pipeline) { s.obs = p }

// SetFault attaches a failpoint registry; call it before the first Handle.
// An injection at the rotation site has no error path to take, so it
// surfaces as a producer-side panic either way — the pipeline's
// panic-containment machinery (Close-on-unwind, consumer teardown) is
// exactly what it exercises.
func (s *Segmented) SetFault(r *fault.Registry) { s.fault = r }

// Handle implements Sink: it copies the event into a preallocated
// buffer, rotating when the segment is full. The first call starts the
// consumer goroutine.
func (s *Segmented) Handle(ev *Event) {
	if s.work == nil {
		s.start()
	}
	s.cur = append(s.cur, *ev)
	if len(s.cur) >= s.size {
		s.rotate()
	}
}

// rotate dispatches the current segment and takes a recycled buffer,
// blocking until the consumer has one free. An observed run times that
// wait separately — the pipeline's backpressure signal.
func (s *Segmented) rotate() {
	s.check()
	if err := s.fault.Fire(fault.SegmentRotate); err != nil {
		panic(err)
	}
	s.obs.Observe(obs.HistSegEvents, int64(len(s.cur)))
	s.pending.Add(1)
	s.work <- s.cur
	var buf []Event
	if s.obs != nil {
		select {
		case buf = <-s.free:
		default:
			stall := s.obs.Start()
			buf = <-s.free
			s.obs.StageNamed(obs.TrackPipeline, "stall", obs.HistStallNs, stall, 0)
		}
	} else {
		buf = <-s.free
	}
	s.cur = buf[:0]
}

// Flush implements Flusher: dispatch the partial segment, wait until the
// consumer has processed every dispatched event, then flush the
// downstream sink. On return the downstream has observed the full stream
// so far.
func (s *Segmented) Flush() {
	if s.work != nil {
		if len(s.cur) > 0 {
			s.rotate()
		}
		s.pending.Wait()
		s.check()
	}
	if f, ok := s.down.(Flusher); ok {
		f.Flush()
	}
}

// Close flushes and stops the consumer goroutine if one was started.
// Idempotent; the Segmented must not Handle further events after Close.
// The shutdown completes even when the drain re-raises a downstream
// panic — the consumer goroutine never outlives Close — and the panic
// then continues unwinding.
func (s *Segmented) Close() {
	if s.closed {
		return
	}
	s.closed = true
	var downPanic any
	func() {
		defer func() { downPanic = recover() }()
		s.Flush()
	}()
	if s.work == nil {
		// Never started: no consumer to stop, no slab to return.
		if downPanic != nil {
			panic(downPanic)
		}
		return
	}
	close(s.work)
	<-s.done
	// The consumer is gone: both slabs are back under producer ownership
	// (one in cur, one parked in free). Return them to the pool for the
	// next run before surfacing any downstream panic.
	for {
		select {
		case buf := <-s.free:
			recycleSlab(buf)
			continue
		default:
		}
		break
	}
	recycleSlab(s.cur)
	s.cur = nil
	if downPanic != nil {
		panic(downPanic)
	}
}

// slabPool recycles segment buffers across Segmented lifecycles. Slabs of
// any capacity are pooled; newSlab accepts one only when it fits the
// requested size (at least size, under 4× it), so a mismatched slab is
// simply dropped for the GC.
var slabPool sync.Pool

// newSlab returns an empty segment buffer of at least size capacity,
// reusing a pooled slab when one fits.
func newSlab(size int) []Event {
	if v := slabPool.Get(); v != nil {
		s := *(v.(*[]Event))
		if cap(s) >= size && cap(s) < 4*size {
			return s[:0]
		}
	}
	return make([]Event, 0, size)
}

// recycleSlab parks a segment buffer in the pool.
func recycleSlab(s []Event) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	slabPool.Put(&s)
}

// consume is the consumer goroutine: it drains segments in dispatch order,
// driving the downstream sink, and recycles each buffer when done with it.
func (s *Segmented) consume() {
	defer close(s.done)
	for seg := range s.work {
		s.runSegment(seg)
		s.free <- seg
		s.pending.Done()
	}
}

// runSegment feeds one segment downstream, converting a downstream panic
// into a stored failure (re-raised producer-side by check) so the buffer
// recycling and pending accounting above survive it.
func (s *Segmented) runSegment(seg []Event) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			if !s.hasPanic {
				s.panicked, s.hasPanic = r, true
			}
			s.mu.Unlock()
		}
	}()
	start := s.obs.Start()
	for i := range seg {
		s.down.Handle(&seg[i])
	}
	s.obs.StageNamed(obs.TrackPipeline, "segment", obs.HistSegApplyNs, start, int64(len(seg)))
}

// check re-raises the first downstream panic on the producer, delivering
// it once so a recovering caller can still shut the pipeline down.
func (s *Segmented) check() {
	s.mu.Lock()
	p, has := s.panicked, s.hasPanic
	s.panicked, s.hasPanic = nil, false
	s.mu.Unlock()
	if has {
		panic(p)
	}
}
