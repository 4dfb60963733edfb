package detect

import (
	"sync"

	"adhocrace/internal/event"
	"adhocrace/internal/vc"
)

// FastTrack-style adaptive read representation (Flanagan & Freund,
// PLDI'09).
//
// The seed detector kept a full vector clock (plus a per-thread event-index
// map) on the read side of every shadow word — O(threads) bytes and at
// least two heap allocations for any word that is ever read. But almost all
// words are only ever read in a totally ordered fashion: by a single
// thread, or by a sequence of threads where each read happens-after the
// previous one. For those, one packed (tid, tick) epoch carries exactly the
// same information, compares in O(1), and allocates nothing.
//
// readState therefore adapts:
//
//   - epoch mode (set == nil): the last read as a vc.Epoch plus its stream
//     position, as long as a single thread does the reading.
//   - read-set mode (set != nil): a second reader thread promotes to a
//     compact set of (tid, tick, event) entries sorted by thread id — the
//     sparse equivalent of the seed's read clock, with the event positions
//     folded in (the seed's separate readEvents map is gone).
//
// That is the whole lifecycle, under every configuration: a set lives
// until the shadow GC retires its word (every recorded read dominated by
// the quiescence watermark, see gc.go) or the run ends. No write retires
// reads: a write ordered after every recorded read says nothing about the
// next write, and when two unordered atomic writes follow — atomic pairs
// skip the write-epoch check — only the recorded reads can still show a
// race with the second (dataracetest.BuildAtomicChainBreak). Sets are
// recycled through readSetPool, shared by every detector of the process
// like the shadow pages, so steady-state promotion traffic allocates
// nothing.
//
// The representation changes how read history is stored, not what the
// detector reports. The seed full-vector-clock reads live on as a test
// oracle (refreads_test.go): TestReadStateMatchesFullVCReads drives both
// through random access streams and holds the read scans of every write
// equal under every preset, and the golden report fingerprints
// (testdata/golden_fingerprints.txt, first generated under the seed
// representation) pin the corpus byte for byte.

// readEntry is one recorded read in a promoted read-set.
type readEntry struct {
	tid  event.Tid
	tick uint64
	ev   int64
}

// readSet is the promoted representation: concurrent reads, sorted by
// thread id so conflict scans visit threads in the same order the seed's
// clock scan did.
type readSet struct {
	e []readEntry
}

// readState is the adaptive read side of one shadow word, one per access
// flavor (plain, atomic). The zero value means "never read".
type readState struct {
	// last is the read epoch; meaningful only in epoch mode (set == nil),
	// where zero means no read recorded.
	last vc.Epoch
	// lastEv is the stream position of last.
	lastEv int64
	// set is the promoted read-set; nil in epoch mode.
	set *readSet
}

// record notes a read by tid (whose clock is c) at stream position idx,
// promoting to a read-set when a second reader thread appears. A first
// read or a re-read by the recorded thread stays in epoch mode.
//
// Literal FastTrack goes further: a cross-thread read *ordered after* the
// recorded epoch replaces it instead of promoting. That loses no race
// (happens-before is transitive), but it changes which of two racy reads
// a warning attributes — the seed's conflict scan reports the
// lowest-numbered conflicting thread, and the replaced read may be it —
// so the byte-identical equivalence bar rules it out. Promotion keeps
// both.
func (rs *readState) record(d *Detector, tid event.Tid, c *vc.Clock, idx int64) {
	tick := c.Get(int(tid))
	if rs.set != nil {
		rs.set.update(tid, tick, idx)
		return
	}
	if !rs.last.IsZero() && rs.last.Tid() != int(tid) {
		// Second reader thread: promote, keeping both reads.
		set := readSetPool.Get().(*readSet)
		set.update(event.Tid(rs.last.Tid()), rs.last.Tick(), rs.lastEv)
		set.update(tid, tick, idx)
		rs.set = set
		rs.last, rs.lastEv = 0, 0
		d.promotions++
		return
	}
	// First read, or the recorded thread again: the epoch absorbs it.
	rs.last = vc.MakeEpoch(int(tid), tick)
	rs.lastEv = idx
}

// conflict returns the first recorded read, in thread-id order, that is
// unordered with an access by tid under clock c — mirroring the seed
// implementation's ascending clock scan — or (-1, -1).
func (rs *readState) conflict(tid event.Tid, c *vc.Clock) (event.Tid, int64) {
	if rs.set != nil {
		for i := range rs.set.e {
			r := &rs.set.e[i]
			if r.tid != tid && r.tick > c.Get(int(r.tid)) {
				return r.tid, r.ev
			}
		}
		return -1, -1
	}
	if !rs.last.IsZero() {
		if u := event.Tid(rs.last.Tid()); u != tid && rs.last.Tick() > c.Get(int(u)) {
			return u, rs.lastEv
		}
	}
	return -1, -1
}

// orderedBefore reports whether every recorded read happens-before an
// access under clock c — the shadow GC's retirement predicate, with the
// watermark as c. A state with no reads is trivially ordered.
func (rs *readState) orderedBefore(c *vc.Clock) bool {
	if rs.set != nil {
		for i := range rs.set.e {
			r := &rs.set.e[i]
			if r.tick > c.Get(int(r.tid)) {
				return false
			}
		}
		return true
	}
	return rs.last.IsZero() || rs.last.OrderedBefore(c)
}

// readers returns the number of distinct recorded reader threads, and
// maxTid the highest recorded reader id (-1 when none) — inputs to the
// shadow accounting model (see shadowMem.bytes).
func (rs *readState) readers() (n int, maxTid int) {
	if rs.set != nil {
		return len(rs.set.e), int(rs.set.e[len(rs.set.e)-1].tid)
	}
	if rs.last.IsZero() {
		return 0, -1
	}
	return 1, rs.last.Tid()
}

// hasReader reports whether tid is among the recorded reader threads.
func (rs *readState) hasReader(tid event.Tid) bool {
	if rs.set != nil {
		for i := range rs.set.e {
			if rs.set.e[i].tid == tid {
				return true
			}
		}
		return false
	}
	return !rs.last.IsZero() && event.Tid(rs.last.Tid()) == tid
}

// unionReaders counts the distinct reader threads across both flavors —
// the seed's readEvents map was shared between them, so its accounting
// charges a thread that read a word both plainly and atomically once, not
// twice.
func unionReaders(plain, atomic *readState) int {
	n, _ := plain.readers()
	if atomic.set != nil {
		for i := range atomic.set.e {
			if !plain.hasReader(atomic.set.e[i].tid) {
				n++
			}
		}
	} else if !atomic.last.IsZero() && !plain.hasReader(event.Tid(atomic.last.Tid())) {
		n++
	}
	return n
}

// update inserts or refreshes the entry for tid, keeping the set sorted by
// thread id. Sets are small (bounded by the threads concurrently reading
// one word), so the insertion is a linear scan.
func (r *readSet) update(tid event.Tid, tick uint64, ev int64) {
	i := 0
	for i < len(r.e) && r.e[i].tid < tid {
		i++
	}
	if i < len(r.e) && r.e[i].tid == tid {
		r.e[i].tick, r.e[i].ev = tick, ev
		return
	}
	r.e = append(r.e, readEntry{})
	copy(r.e[i+1:], r.e[i:])
	r.e[i] = readEntry{tid: tid, tick: tick, ev: ev}
}

// readSetPool recycles read-sets across detectors, beside pagePool. Every
// set in it is empty (its entry slice keeps its capacity): a set comes
// back when the shadow GC retires its word or shadowMem.release hands its
// page back. Concurrent detectors share it.
var readSetPool = sync.Pool{New: func() any { return new(readSet) }}

// putReadSets returns the word's promoted read-sets, emptied, to
// readSetPool and counts them. The caller zeroes the word.
func (w *shadowWord) putReadSets() int64 {
	var n int64
	for _, set := range [2]*readSet{w.reads.set, w.readsAtomic.set} {
		if set != nil {
			set.e = set.e[:0]
			readSetPool.Put(set)
			n++
		}
	}
	return n
}
