package detect

import (
	"testing"

	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/vc"
)

// benchDetector builds a detector with the ad-hoc engine disabled — the
// microbenchmarks drive access() directly, below the event plumbing, with
// clocks of their own.
func benchDetector(cfg Config) *Detector { return New(cfg, nil, nil) }

func readEvent(tid event.Tid, addr int64) event.Event {
	return event.Event{Kind: event.KindRead, Tid: tid, Addr: addr, Loc: ir.LocID(tid)}
}

func writeEvent(tid event.Tid, addr int64) event.Event {
	e := readEvent(tid, addr)
	e.Kind = event.KindWrite
	return e
}

// TestShadowAccessSameEpochZeroAlloc pins the acceptance bar: the
// same-epoch read path — one thread re-reading a word — must not allocate.
func TestShadowAccessSameEpochZeroAlloc(t *testing.T) {
	s := benchDetector(HelgrindPlusLib())
	clock := vc.New()
	clock.Tick(1)
	e := readEvent(1, 64)
	idx := int64(1)
	s.access(&e, idx, clock) // warm up: page + lockset var materialize once
	allocs := testing.AllocsPerRun(200, func() {
		idx++
		s.access(&e, idx, clock)
	})
	if allocs != 0 {
		t.Errorf("same-epoch access path allocates %.1f per op, want 0", allocs)
	}
}

// sharedLocked sets up the lock-protected shared-modified regime: threads
// 1 and 2 both hold lock 0x100 and write word 64 in turn, each clock
// covering the other's write (as a lock hand-off would order them), so the
// word reaches SharedModified with candidate set {0x100} and no race. It
// returns one alternating pair of accesses at stream position idx.
func sharedLocked(s *Detector) func(idx int64) {
	c1, c2 := vc.New(), vc.New()
	c1.Set(1, 5)
	c1.Set(2, 9)
	c2.Set(1, 5)
	c2.Set(2, 9)
	s.locks.LockAcquired(1, 0x100)
	s.locks.LockAcquired(2, 0x100)
	e1, e2 := writeEvent(1, 64), writeEvent(2, 64)
	return func(idx int64) {
		s.access(&e1, idx, c1)
		s.access(&e2, idx+1, c2)
	}
}

// TestShadowAccessSharedModifiedZeroAlloc pins the lock-protected path:
// two threads alternately writing one word under the same lock keep its
// candidate set unchanged, and the access allocates nothing — neither the
// lockset state (it lives in the word) nor the intersection (a candidate
// set covered by the held set is kept as it is).
func TestShadowAccessSharedModifiedZeroAlloc(t *testing.T) {
	s := benchDetector(HelgrindPlusLib())
	pair := sharedLocked(s)
	idx := int64(1)
	pair(idx) // warm up: page, Exclusive -> SharedModified, held views
	allocs := testing.AllocsPerRun(200, func() {
		idx += 2
		pair(idx)
	})
	if allocs != 0 {
		t.Errorf("lock-protected shared-modified access path allocates %.1f per pair, want 0", allocs)
	}
	if len(s.warnings) != 0 {
		t.Errorf("ordered lock-protected writes warned: %v", s.warnings)
	}
}

// TestReadStateAdaptive walks one word through the representation's
// lifecycle: epoch → promoted read-set (second reader), which an ordering
// write leaves in place — only the shadow GC or the end of the run
// retires reads.
func TestReadStateAdaptive(t *testing.T) {
	s := benchDetector(HelgrindPlusLib())
	c1, c2 := vc.New(), vc.New()
	c1.Set(1, 5)
	c2.Set(2, 9)

	r1, r2 := readEvent(1, 0), readEvent(2, 0)
	s.access(&r1, 1, c1)
	w := s.shadow.word(0)
	if w.reads.set != nil || w.reads.last.Tid() != 1 {
		t.Fatalf("single reader must stay in epoch mode: %+v", w.reads)
	}

	s.access(&r2, 2, c2)
	if w.reads.set == nil || len(w.reads.set.e) != 2 {
		t.Fatalf("second reader must promote to a 2-entry set: %+v", w.reads)
	}
	if s.promotions != 1 {
		t.Fatalf("promotions = %d, want 1", s.promotions)
	}
	if n, maxTid := w.reads.readers(); n != 2 || maxTid != 2 {
		t.Fatalf("readers() = (%d, %d), want (2, 2)", n, maxTid)
	}

	// A write ordered after both reads keeps them: the set, its entries
	// and the shadow figure stay as they were.
	set, before := w.reads.set, s.shadow.bytes()
	cw := vc.New()
	cw.Set(1, 6)
	cw.Set(2, 10)
	cw.Set(3, 1)
	wr := writeEvent(3, 0)
	s.access(&wr, 3, cw)
	if w.reads.set != set || len(set.e) != 2 {
		t.Fatalf("ordering write must keep the read-set: %+v", w.reads)
	}
	if got := s.shadow.bytes(); got != before {
		t.Errorf("ordering write changed the shadow figure: %d, want %d", got, before)
	}
	if len(s.warnings) != 0 {
		t.Errorf("ordered write warned: %v", s.warnings)
	}
}

// promoteAndClose promotes word 64 of s — two reader threads — and then
// releases s's shadow as Close does, handing the page and the set back to
// the shared pools for the next detector.
func promoteAndClose(s *Detector, c1, c2 *vc.Clock) {
	e1, e2 := readEvent(1, 64), readEvent(2, 64)
	s.access(&e1, 1, c1)
	s.access(&e2, 2, c2)
	s.shadow.release()
}

// TestReadSetRecycledZeroAlloc pins the shared read-set pool: once one
// detector has released a promoted word, a promotion on another detector
// takes that set (and the page) back from the pools and allocates nothing.
func TestReadSetRecycledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	dets := [2]*Detector{benchDetector(HelgrindPlusLib()), benchDetector(HelgrindPlusLib())}
	c1, c2 := vc.New(), vc.New()
	c1.Set(1, 5)
	c2.Set(2, 9)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		promoteAndClose(dets[i&1], c1, c2)
	})
	if allocs != 0 {
		t.Errorf("promotion after another detector's release allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkShadowAccess measures the per-access shadow path in its three
// read-representation regimes and the lock-protected write regime. Run
// with -benchmem: same-epoch and shared-locked must be 0 allocs/op;
// promoted and recycled are 0 allocs/op at steady state because read-sets
// recycle through readSetPool (TestReadSetRecycledZeroAlloc pins the
// latter).
func BenchmarkShadowAccess(b *testing.B) {
	b.Run("same-epoch", func(b *testing.B) {
		s := benchDetector(HelgrindPlusLib())
		clock := vc.New()
		clock.Tick(1)
		e := readEvent(1, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.access(&e, int64(i), clock)
		}
	})
	b.Run("promoted", func(b *testing.B) {
		// Two reader threads alternating on one word: the set persists, so
		// every access is a sorted in-set update.
		s := benchDetector(HelgrindPlusLib())
		c1, c2 := vc.New(), vc.New()
		c1.Set(1, 5)
		c2.Set(2, 9)
		e1, e2 := readEvent(1, 64), readEvent(2, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i&1 == 1 {
				s.access(&e2, int64(i), c2)
			} else {
				s.access(&e1, int64(i), c1)
			}
		}
	})
	b.Run("recycled", func(b *testing.B) {
		// A promotion on one detector after another released its word:
		// the set and the page come back from the shared pools.
		dets := [2]*Detector{benchDetector(HelgrindPlusLib()), benchDetector(HelgrindPlusLib())}
		c1, c2 := vc.New(), vc.New()
		c1.Set(1, 5)
		c2.Set(2, 9)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			promoteAndClose(dets[i&1], c1, c2)
		}
	})
	b.Run("shared-locked", func(b *testing.B) {
		// Two writer threads holding the same lock alternate on one word:
		// every access intersects a candidate set the held set covers.
		s := benchDetector(HelgrindPlusLib())
		pair := sharedLocked(s)
		pair(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += 2 {
			pair(int64(i + 2))
		}
	})
}
