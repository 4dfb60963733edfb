package event

import (
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
// (including a non-boundary tail) and checks the downstream sink sees the
// exact serial order, across segment sizes that do and do not divide the
// stream length.
func TestSegmentedPreservesOrder(t *testing.T) {
	const n = 1000
	for _, size := range []int{1, 7, 64, n, n + 5} {
		down := &orderSink{}
		s := NewSegmented(down, size)
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
	s := NewSegmented(down, 8)
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
	s := NewSegmented(down, 16)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ { // 4 segments per round
			s.Handle(&Event{Addr: int64(i)})
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
	s := NewSegmented(down, 2)
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
