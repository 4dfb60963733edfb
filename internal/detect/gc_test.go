package detect

import (
	"testing"

	"adhocrace/internal/event"
	"adhocrace/internal/lockset"
	"adhocrace/internal/vc"
)

// In-package GC unit tests: the ShadowBytes cost model must round-trip
// through retirement (allocate → retire → reallocate lands on the same
// figure), and the sticky suppression flags must survive a word's
// retirement. The program-level proofs (byte-identical warnings) live in
// the external gcequivalence_test.go / gccontract_test.go.

func gcClock(pairs map[int]uint64) *vc.Clock {
	c := vc.New()
	for i, v := range pairs {
		c.Set(i, v)
	}
	return c
}

// feedOrdered drives one write and two ordered reads (the second reader
// promotes the read representation) through the detector at the given
// base stream position.
func feedOrdered(s *Detector, base int64) {
	s.access(&event.Event{Kind: event.KindWrite, Tid: 1, Addr: 0x40}, base, gcClock(map[int]uint64{1: 5}))
	s.access(&event.Event{Kind: event.KindRead, Tid: 2, Addr: 0x40}, base+1, gcClock(map[int]uint64{1: 5, 2: 3}))
	s.access(&event.Event{Kind: event.KindRead, Tid: 3, Addr: 0x40}, base+2, gcClock(map[int]uint64{1: 5, 3: 4}))
}

func TestShadowBytesRetireRoundTrip(t *testing.T) {
	s := benchDetector(HelgrindPlusLib())
	feedOrdered(s, 1)
	before := s.shadow.bytes()
	if before == 0 {
		t.Fatalf("expected live shadow state, got 0 bytes")
	}
	if s.promotions != 1 {
		t.Fatalf("expected 1 read-set promotion, got %d", s.promotions)
	}

	retired := s.shadow.word(0x40).reads.set
	s.collect(gcClock(map[int]uint64{0: 9, 1: 9, 2: 9, 3: 9}))
	if got := s.shadow.bytes(); got != 0 {
		t.Errorf("retirement must zero the accounting: got %d bytes", got)
	}
	if s.gcWords != 1 || s.gcPages != 1 || s.gcSets != 1 {
		t.Errorf("gc counters = words %d pages %d sets %d, want 1 1 1",
			s.gcWords, s.gcPages, s.gcSets)
	}

	// Reallocate the identical state: the cost model must land exactly on
	// the pre-retirement figure (no flags were set, so no bitmap charge),
	// and the promotion must take the retired set back from readSetPool.
	feedOrdered(s, 10)
	if got := s.shadow.bytes(); got != before {
		t.Errorf("allocate→retire→reallocate: %d bytes, want %d", got, before)
	}
	if got := s.shadow.word(0x40).reads.set; !raceEnabled && got != retired {
		t.Errorf("re-promotion must reuse the retired read-set from the shared pool")
	}
}

func TestGCKeepsUndominatedWords(t *testing.T) {
	s := benchDetector(HelgrindPlusLib())
	feedOrdered(s, 1)
	before := s.shadow.bytes()
	// Thread 3's read (tick 4) is not covered by wm[3] = 0.
	s.collect(gcClock(map[int]uint64{0: 9, 1: 9, 2: 9}))
	if s.gcWords != 0 {
		t.Errorf("undominated word retired (%d)", s.gcWords)
	}
	if got := s.shadow.bytes(); got != before {
		t.Errorf("bytes changed without retirement: %d, want %d", got, before)
	}
}

func TestGCPreservesStickyFlags(t *testing.T) {
	s := benchDetector(HelgrindPlusLib())
	s.access(&event.Event{Kind: event.KindAtomicWrite, Tid: 1, Addr: 0x40}, 1, gcClock(map[int]uint64{1: 5}))
	w := s.shadow.word(0x40)
	if !w.atomicEver {
		t.Fatalf("atomic access must set atomicEver")
	}
	w.suspected = true
	w.reported = true

	s.collect(gcClock(map[int]uint64{0: 9, 1: 9}))
	if s.gcWords != 1 {
		t.Fatalf("flagged dominated word not retired")
	}
	w = s.shadow.word(0x40)
	if !w.atomicEver || !w.suspected || !w.reported {
		t.Errorf("sticky flags lost across retirement: atomicEver=%v suspected=%v reported=%v",
			w.atomicEver, w.suspected, w.reported)
	}
	// The bitmap side table is charged, so accounting still round-trips
	// (word cost + one retired-flags page entry).
	if got := s.shadow.bytes(); got <= 0 {
		t.Errorf("retired-flag bitmap must be charged, got %d", got)
	}
}

func TestGCForgetsHybridLocksetVars(t *testing.T) {
	s := benchDetector(HelgrindPlusLib())
	s.access(&event.Event{Kind: event.KindWrite, Tid: 1, Addr: 0x40}, 1, gcClock(map[int]uint64{1: 5}))
	if s.shadow.word(0x40).ls.State() == lockset.Virgin {
		t.Fatalf("hybrid access must create lockset var state")
	}
	s.collect(gcClock(map[int]uint64{0: 9, 1: 9}))
	if s.shadow.retired[0] != nil || s.shadow.word(0x40).ls.State() != lockset.Virgin {
		t.Errorf("hybrid lockset var must be forgotten on retirement")
	}
}

func TestGCSkipsEraserLocksetVars(t *testing.T) {
	s := benchDetector(Eraser())
	s.access(&event.Event{Kind: event.KindWrite, Tid: 1, Addr: 0x40}, 1, gcClock(map[int]uint64{1: 5}))
	if s.shadow.word(0x40).ls.State() == lockset.Virgin {
		t.Fatalf("Eraser access must create lockset var state")
	}
	s.collect(gcClock(map[int]uint64{0: 9, 1: 9}))
	if s.gcWords != 1 {
		t.Fatalf("Eraser word not retired (%d)", s.gcWords)
	}
	if rf := s.shadow.retired[0]; rf == nil || rf.locks == nil || rf.locks[0x40>>addrWordShift].State() == lockset.Virgin {
		t.Errorf("Eraser lockset state is the report; the GC must not forget it")
	}
	if ls := s.shadow.word(0x40).ls; ls.State() != lockset.Exclusive || ls.Owner() != 1 {
		t.Errorf("restored lockset state = %v owned by T%d, want exclusive owned by T1", ls.State(), ls.Owner())
	}
}
