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
// lifecycle: epoch → promoted read-set (second reader) → demoted back by
// an ordering write, with the set recycled through the detector's pool.
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

	// A write ordered after both reads demotes (HelgrindPlusLib dedups per
	// address with unlimited history, so demotion is licensed).
	cw := vc.New()
	cw.Set(1, 6)
	cw.Set(2, 10)
	cw.Set(3, 1)
	wr := writeEvent(3, 0)
	s.access(&wr, 3, cw)
	if !w.reads.empty() {
		t.Fatalf("ordering write must demote the read-set: %+v", w.reads)
	}
	if s.demotions != 1 {
		t.Fatalf("demotions = %d, want 1", s.demotions)
	}
	if len(s.setPool) != 1 {
		t.Fatalf("demoted set must return to the pool, pool len = %d", len(s.setPool))
	}

	// The next promotion must reuse the pooled set, not allocate a new one.
	pooled := s.setPool[0]
	s.access(&r1, 4, c1)
	s.access(&r2, 5, c2)
	if w.reads.set != pooled {
		t.Error("promotion must reuse the pooled read-set")
	}
}

// TestDemotionGating: a configuration whose reporting can observe retired
// reads (DRD: per-site dedup, bounded history) must never demote.
func TestDemotionGating(t *testing.T) {
	s := benchDetector(DRD())
	c1, c2 := vc.New(), vc.New()
	c1.Set(1, 5)
	c2.Set(2, 9)
	r1, r2 := readEvent(1, 0), readEvent(2, 0)
	s.access(&r1, 1, c1)
	s.access(&r2, 2, c2)

	cw := vc.New()
	cw.Set(1, 6)
	cw.Set(2, 10)
	cw.Set(3, 1)
	wr := writeEvent(3, 0)
	s.access(&wr, 3, cw)
	w := s.shadow.word(0)
	if w.reads.set == nil || len(w.reads.set.e) != 2 {
		t.Fatalf("DRD must keep the read-set across ordering writes: %+v", w.reads)
	}
	if s.demotions != 0 {
		t.Fatalf("demotions = %d, want 0 under DRD", s.demotions)
	}
}

// BenchmarkShadowAccess measures the per-access shadow path in its three
// read-representation regimes and the lock-protected write regime. Run
// with -benchmem: same-epoch and shared-locked must be 0 allocs/op;
// promoted and demoted are 0 allocs/op at steady state because read-sets
// recycle through the detector's pool.
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
	b.Run("demoted", func(b *testing.B) {
		// Promote–demote cycle: two concurrent reads build a set, an
		// ordering write retires it to the pool; the next cycle reuses it.
		s := benchDetector(HelgrindPlusLib())
		c1, c2 := vc.New(), vc.New()
		c1.Set(1, 5)
		c2.Set(2, 9)
		cw := vc.New()
		cw.Set(1, 6)
		cw.Set(2, 10)
		cw.Set(3, 1)
		r1, r2, wr := readEvent(1, 64), readEvent(2, 64), writeEvent(3, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx := int64(3 * i)
			s.access(&r1, idx, c1)
			s.access(&r2, idx+1, c2)
			s.access(&wr, idx+2, cw)
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
