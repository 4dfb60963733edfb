package detect

import "sync"

// Shadow-memory layout: a two-level page table instead of one flat
// map[addr]*shadowWord. The IR allocates globals densely in 8-byte cells
// (ir.Builder.GlobalArray steps by 8 and IndexAddr scales indices by
// 8), so the detector tracks one shadow word per 8-byte cell and groups
// 512 consecutive words into a page. The hot path then costs one map
// lookup per page transition (usually zero: the last page is cached)
// plus an array index, and shadow words are stored by value in the page
// array — no per-address allocation, no pointer chasing.
//
// Pages outlive their detector: Detector.Close hands every page back to
// pagePool, clearing only the words the run touched, and the next
// detector's first touch takes a page from there. A batch of short runs —
// a paper table is 480 of them, each touching a handful of words — then
// recycles a few pages instead of allocating and zeroing one per run.
const (
	// addrWordShift converts a byte address into a word index: shadow
	// granularity is the IR's 8-byte memory cell.
	addrWordShift = 3
	// pageWordShift sizes a page at 512 words (4 KiB of address space),
	// big enough that the one-entry page cache absorbs nearly every
	// lookup. A detector that touches any memory holds at least one page, but pages come from pagePool and go back with only
	// their touched range cleared, so a short run pays for the words it
	// uses, not for 44 KiB.
	pageWordShift = 9
	pageWords     = 1 << pageWordShift
	pageWordMask  = pageWords - 1
)

// shadowPage holds the shadow words of one pageWords-sized address range.
type shadowPage struct {
	words [pageWords]shadowWord
	// live counts the words in use, for ShadowBytes accounting (a page
	// is allocated whole, but only touched words carry detector state).
	live int
	// lo and hi bound the words touched since the page left pagePool
	// (lo <= i < hi; hi == 0 when none): every word outside the range is
	// still zero, so releasing the page clears only the range.
	lo, hi int32
}

// pagePool recycles shadow pages across detectors. Every page in it is
// all-zero, with live, lo and hi zero too: a page taken from it is a fresh
// page. Concurrent detectors (the experiment engine's jobs) share it.
var pagePool = sync.Pool{New: func() any { return new(shadowPage) }}

// putPage returns a page whose words are all zero to pagePool.
func putPage(pg *shadowPage) {
	pg.lo, pg.hi = 0, 0
	pagePool.Put(pg)
}

// release clears the touched range of every page of the table and returns
// the pages to pagePool and their words' read-sets to readSetPool, leaving
// the table empty. The owning detector must be done with them: nothing may
// touch the table's pages afterwards.
func (s *shadowMem) release() {
	for _, pg := range s.pages {
		words := pg.words[pg.lo:pg.hi]
		for i := range words {
			words[i].putReadSets()
		}
		clear(words)
		pg.live = 0
		putPage(pg)
	}
	clear(s.pages)
	s.lastPage = nil
}

// shadowMem is the two-level paged shadow memory of one detector run.
type shadowMem struct {
	pages map[int64]*shadowPage
	// One-entry cache: experiment programs are small enough that nearly
	// every access hits the same page, making the common case a single
	// comparison plus an array index.
	lastKey  int64
	lastPage *shadowPage
	// retired preserves the sticky suppression flags (and Eraser lockset
	// state) of GC-retired words, per page key; nil until the GC first
	// retires a word with either. See gc.go.
	retired map[int64]*retiredFlags
}

func newShadowMem() *shadowMem { return &shadowMem{pages: make(map[int64]*shadowPage)} }

// retiredOf returns (allocating on demand) the retired-flag bitmap of the
// given page key.
func (s *shadowMem) retiredOf(key int64) *retiredFlags {
	if s.retired == nil {
		s.retired = make(map[int64]*retiredFlags)
	}
	rf := s.retired[key]
	if rf == nil {
		rf = &retiredFlags{}
		s.retired[key] = rf
	}
	return rf
}

// word returns the shadow word for a byte address, allocating its page on
// first touch.
func (s *shadowMem) word(addr int64) *shadowWord {
	wi := addr >> addrWordShift
	key := wi >> pageWordShift
	pg := s.lastPage
	if pg == nil || key != s.lastKey {
		pg = s.pages[key]
		if pg == nil {
			pg = pagePool.Get().(*shadowPage)
			s.pages[key] = pg
		}
		s.lastKey, s.lastPage = key, pg
	}
	i := int(wi & pageWordMask)
	w := &pg.words[i]
	if !w.live {
		w.live = true
		pg.live++
		if i32 := int32(i); pg.hi == 0 {
			pg.lo, pg.hi = i32, i32+1
		} else if i32 < pg.lo {
			pg.lo = i32
		} else if i32 >= pg.hi {
			pg.hi = i32 + 1
		}
		if s.retired != nil {
			// A retired word coming back into use recovers its sticky
			// suppression flags (and, under Eraser, its lockset state), so
			// retirement stays output-invisible.
			if rf := s.retired[key]; rf != nil {
				rf.restore(i, w)
			}
		}
	}
	return w
}

// bytes approximates the shadow state's memory consumption. The model
// charges every live word the seed implementation's per-word cost — 96
// bytes of word state plus what its two read clocks and read-event map
// would cost for the reads currently recorded — so the paper's memory
// figures stay comparable across shadow layouts: a flavor's clock is
// charged at the seed's dense length (highest recorded reader id + 1, or
// the empty-clock header when the flavor was never read), and each
// distinct recorded reader carries the seed's 24-byte read-event map
// entry (the seed shared one map across both flavors, so a thread that
// read both ways counts once). Every read the run recorded stays charged,
// as in the seed; only the shadow GC's retirement shrinks the figure.
//
// Every lockset state past Virgin, live in its word or parked by the GC,
// is charged the seed's per-variable cost (lockset.Var.Bytes), so the
// figure matches the map-keyed tracker the state used to live in.
func (s *shadowMem) bytes() int64 {
	// Retired-flag bitmaps are real residency and are charged (2 bitmaps
	// of pageWords bits plus the map entry), so retirement accounting
	// round-trips honestly: allocate → retire → reallocate returns to the
	// same figure.
	var n int64
	for _, rf := range s.retired {
		n += rf.bytes()
	}
	for _, pg := range s.pages {
		// Every live word lies in the touched range: word() widens it
		// whenever a word comes alive.
		words := pg.words[pg.lo:pg.hi]
		for i := range words {
			w := &words[i]
			if !w.live {
				continue
			}
			_, mp := w.reads.readers()
			_, ma := w.readsAtomic.readers()
			n += 96 + flavorClockBytes(mp) + flavorClockBytes(ma) +
				int64(unionReaders(&w.reads, &w.readsAtomic))*24 + w.ls.Bytes()
		}
	}
	return n
}

// flavorClockBytes is the seed cost of one flavor's read clock: the dense
// vector up to the highest recorded reader, or the empty-clock header.
func flavorClockBytes(maxTid int) int64 {
	if maxTid < 0 {
		return 24
	}
	return int64(maxTid+1)*8 + 24
}
