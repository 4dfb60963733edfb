package event

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// orderSink records the Addr sequence it observes and which goroutine-ish
// phase boundaries happened, to assert stream order and flush semantics.
type orderSink struct {
	addrs   []int64
	flushes int
}

func (o *orderSink) Handle(ev *Event) { o.addrs = append(o.addrs, ev.Addr) }
func (o *orderSink) Flush()           { o.flushes++ }

// TestSegmentedPreservesOrder streams several segments' worth of events
// (including a non-boundary tail) through a pipeline overlapping from the
// first event and checks the downstream sink sees the exact serial order,
// across segment sizes that do and do not divide the stream length.
func TestSegmentedPreservesOrder(t *testing.T) {
	const n = 1000
	for _, size := range []int{1, 7, 64, n, n + 5} {
		down := &orderSink{}
		s := newSegmented(down, 0, size)
		for i := 0; i < n; i++ {
			s.Handle(&Event{Kind: KindWrite, Addr: int64(i)})
		}
		s.Close()
		if len(down.addrs) != n {
			t.Fatalf("size %d: downstream saw %d events, want %d", size, len(down.addrs), n)
		}
		for i, a := range down.addrs {
			if a != int64(i) {
				t.Fatalf("size %d: event %d out of order: got addr %d", size, i, a)
			}
		}
		if down.flushes == 0 {
			t.Errorf("size %d: downstream Flush never reached", size)
		}
	}
}

// TestSegmentedFlushDrains checks the Flusher contract mid-stream: after
// Flush returns, the downstream must have observed every event handled so
// far, and the pipeline must keep working for more events.
func TestSegmentedFlushDrains(t *testing.T) {
	down := &orderSink{}
	s := newSegmented(down, 0, 8)
	for i := 0; i < 13; i++ {
		s.Handle(&Event{Addr: int64(i)})
	}
	s.Flush()
	if got := len(down.addrs); got != 13 {
		t.Fatalf("after Flush downstream saw %d events, want 13", got)
	}
	if down.flushes != 1 {
		t.Fatalf("downstream flushes = %d, want 1", down.flushes)
	}
	for i := 13; i < 20; i++ {
		s.Handle(&Event{Addr: int64(i)})
	}
	s.Close()
	if got := len(down.addrs); got != 20 {
		t.Fatalf("after Close downstream saw %d events, want 20", got)
	}
	s.Close() // idempotent
}

// TestSegmentedRecyclesBuffers checks the double buffer really is two
// buffers: an arbitrarily long stream must not allocate per segment.
func TestSegmentedRecyclesBuffers(t *testing.T) {
	var handled atomic.Int64
	down := SinkFunc(func(ev *Event) { handled.Add(1) })
	s := newSegmented(down, 0, 16)
	// One reused event, as the vm and the trace reader hand theirs over:
	// Handle forwards its argument, so a fresh one per call would escape.
	var ev Event
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ { // 4 segments per round
			ev.Addr = int64(i)
			s.Handle(&ev)
		}
	})
	s.Close()
	if allocs > 1 {
		t.Errorf("steady-state segment streaming allocates %.1f times per 4 segments, want ~0", allocs)
	}
	if handled.Load() == 0 {
		t.Error("downstream never ran")
	}
}

// TestSegmentedDownstreamPanic checks a panicking downstream resurfaces on
// the producer goroutine rather than crashing the process from the
// consumer.
func TestSegmentedDownstreamPanic(t *testing.T) {
	down := SinkFunc(func(ev *Event) {
		if ev.Addr == 3 {
			panic("detector exploded")
		}
	})
	s := newSegmented(down, 0, 2)
	defer func() {
		if recover() == nil {
			t.Error("downstream panic never reached the producer")
		}
		// The pipeline must still shut down cleanly after the panic.
		s.Close()
	}()
	for i := 0; i < 100; i++ {
		s.Handle(&Event{Addr: int64(i)})
	}
	s.Flush()
}

// owner drives a Segmented the way its production owner, the detector,
// does: it applies the first Plain() events to the downstream sink itself
// and hands every later one to Handle.
type owner struct {
	s    *Segmented
	down Sink
	left int
}

func newOwner(down Sink, plain, size int) *owner {
	s := newSegmented(down, plain, size)
	return &owner{s: s, down: down, left: s.Plain()}
}

func (o *owner) Handle(ev *Event) {
	if o.left == 0 {
		o.s.Handle(ev)
		return
	}
	o.left--
	o.down.Handle(ev)
}

// TestSegmentedSwitch pins the plain-then-overlap policy: a stream that
// stays within the threshold never starts the consumer goroutine, and one
// that passes it reaches the downstream byte-identical and in order
// across the switch — also when a Flush lands exactly on the threshold.
func TestSegmentedSwitch(t *testing.T) {
	const threshold, size = 100, 16
	feed := func(o *owner, from, to int) {
		for i := from; i < to; i++ {
			o.Handle(&Event{Kind: KindWrite, Tid: Tid(i % 3), Addr: int64(i)})
		}
	}
	check := func(name string, down *orderSink, n int) {
		t.Helper()
		if len(down.addrs) != n {
			t.Fatalf("%s: downstream saw %d events, want %d", name, len(down.addrs), n)
		}
		for i, a := range down.addrs {
			if a != int64(i) {
				t.Fatalf("%s: event %d out of order: got addr %d", name, i, a)
			}
		}
	}

	// Within the threshold: every event is handled by the time Handle
	// returns, and no goroutine or buffer is ever taken.
	down := &orderSink{}
	o := newOwner(down, threshold, size)
	feed(o, 0, threshold)
	check("short", down, threshold)
	o.s.Flush()
	if o.s.work != nil || o.s.cur != nil {
		t.Fatal("short: a stream within the threshold started the consumer")
	}
	o.s.Close()
	if down.flushes != 2 {
		t.Errorf("short: downstream flushes = %d, want 2 (Flush and Close)", down.flushes)
	}

	// Across the switch, with a Flush exactly at the threshold and a
	// non-boundary tail.
	for _, flushAt := range []int{-1, threshold} {
		down := &orderSink{}
		o := newOwner(down, threshold, size)
		if flushAt < 0 {
			feed(o, 0, 1000)
		} else {
			feed(o, 0, flushAt)
			o.s.Flush()
			check("flush at threshold", down, flushAt)
			if o.s.work != nil {
				t.Fatal("Flush at the threshold started the consumer")
			}
			feed(o, flushAt, 1000)
		}
		if o.s.work == nil {
			t.Fatal("a stream past the threshold never started the consumer")
		}
		o.s.Close()
		check(fmt.Sprintf("flush at %d", flushAt), down, 1000)
	}

	// A downstream panic is re-raised on the producer before and after
	// the switch, and the pipeline still shuts down.
	for _, at := range []int64{threshold / 2, threshold + 3*size} {
		down := SinkFunc(func(ev *Event) {
			if ev.Addr == at {
				panic("detector exploded")
			}
		})
		o := newOwner(down, threshold, size)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("panic at event %d never reached the producer", at)
				}
				o.s.Close()
			}()
			feed(o, 0, 1000)
			o.s.Flush()
		}()
	}
}

// TestNewSegmentedPolicy pins the production constructor to the package
// policy — plain for OverlapThreshold events, then DefaultSegmentEvents
// segments — and checks it starts no consumer until the first Handle.
func TestNewSegmentedPolicy(t *testing.T) {
	s := NewSegmented(SinkFunc(func(*Event) {}))
	defer s.Close()
	if s.Plain() != OverlapThreshold || s.size != DefaultSegmentEvents {
		t.Fatalf("NewSegmented: plain %d, segment %d; want %d, %d",
			s.Plain(), s.size, OverlapThreshold, DefaultSegmentEvents)
	}
	if s.work != nil {
		t.Fatal("NewSegmented started the consumer before any event")
	}
	s.Handle(&Event{})
	if s.work == nil {
		t.Fatal("Handle did not start the consumer")
	}
}
