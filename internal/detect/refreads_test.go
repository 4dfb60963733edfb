package detect

import (
	"testing"

	"adhocrace/internal/event"
	"adhocrace/internal/hb"
	"adhocrace/internal/vc"
)

// Reference read representation: the seed implementation's full vector
// clock per flavor plus a per-thread event-index map, the oracle the
// adaptive representation (readstate.go) is checked against.
//
// One deliberate difference from the seed: its event-index map was shared
// between the plain and atomic flavors (last read of either flavor per
// thread). No shipped configuration can observe that — the event index
// only feeds DRD's history window, and DRD excludes atomic accesses
// entirely — so the adaptive representation keeps the positions per
// flavor, and so does this oracle, which lets the differential test
// compare event indices exactly.

// refReads is one flavor's read history in the seed layout.
type refReads struct {
	clock  *vc.Clock
	events map[event.Tid]int64
}

// refWord is the read-side state of one address in the seed layout.
type refWord struct {
	reads, readsAtomic refReads
}

// record notes a read by tid under clock at stream position idx.
func (r *refReads) record(tid event.Tid, clock *vc.Clock, idx int64) {
	if r.clock == nil {
		r.clock = vc.New()
		r.events = make(map[event.Tid]int64)
	}
	r.clock.Set(int(tid), clock.Get(int(tid)))
	r.events[tid] = idx
}

// conflict is the seed conflict scan: the first thread in ascending id
// order whose recorded read is unordered with an access by tid under
// clock, or (-1, -1).
func (r *refReads) conflict(tid event.Tid, clock *vc.Clock) (event.Tid, int64) {
	if r.clock == nil {
		return -1, -1
	}
	for i := 0; i < r.clock.Len(); i++ {
		t := event.Tid(i)
		if t == tid {
			continue
		}
		if rt := r.clock.Get(i); rt > 0 && rt > clock.Get(i) {
			return t, r.events[t]
		}
	}
	return -1, -1
}

// diffWord is one address of the differential test: the write epoch both
// representations share (it was an epoch in the seed too), the adaptive
// read side, the seed read side, and what the comparison may forgive.
type diffWord struct {
	wSeen          bool
	wTid           event.Tid
	wTick          uint64
	wEvent         int64
	wAtomic        bool
	reads, readsAt readState
	ref            refWord
	// conflicted is set by the word's first conflict: under per-address
	// deduplication nothing after it is observable.
	conflicted bool
	// demoted is set once the adaptive side retired read history; gap once
	// an atomic write then skipped the write-epoch check while unordered
	// with the previous (atomic) write — the chain break the demotion
	// argument does not cover (see the test comment).
	demoted, gap bool
}

// race is a conflict result: the other thread and its event index, or
// (-1, -1).
type race struct {
	tid event.Tid
	ev  int64
}

// TestReadStateMatchesFullVCReads drives the adaptive read representation
// and the seed full-vector-clock reads through identical random access
// streams — 2–6 threads, plain and atomic flavors, clocks from an hb store
// driven by random release/acquire traffic — and compares the conflict
// result (thread, event index) of every write, with the write-epoch check
// and the demotion policy of Detector.access.
//
// Under DRD, which never demotes, the raw read scans of both flavors must
// also match on every write. Under lib+spin, which licenses demotion
// (forgetfulReadsOK), results must match until the word's first conflict,
// after which per-address deduplication makes them unobservable — with one
// known exception the test counts instead of failing on: two unordered
// atomic writes never race, so the second skips the write-epoch check, and
// a plain read retired before that break is lost although the seed still
// reports it (a read-vs-atomic-write race). Any other divergence fails.
func TestReadStateMatchesFullVCReads(t *testing.T) {
	for _, cfg := range []Config{HelgrindPlusLibSpin(7), DRD()} {
		licensed := cfg.forgetfulReadsOK()
		var writes, compared, silenced, gapped, promotions, demotions, reused int64
		for seed := uint64(1); seed <= 400; seed++ {
			rng := seed * 0x9e3779b97f4a7c15
			next := func(n int) int {
				rng ^= rng >> 12
				rng ^= rng << 25
				rng ^= rng >> 27
				return int((rng * 0x2545f4914f6cdd1d) % uint64(n))
			}
			threads := 2 + next(5)
			h := hb.New()
			for i := 1; i < threads; i++ {
				h.Spawn(0, event.Tid(i))
			}
			s := benchDetector(cfg)
			words := make([]diffWord, 3)
			sets := make(map[*readSet]bool)
			var idx int64
			for step := 0; step < 300; step++ {
				tid := event.Tid(next(threads))
				switch op := next(10); {
				case op == 0:
					h.Release(tid, int64(100+next(2)))
					continue
				case op == 1:
					h.Acquire(tid, int64(100+next(2)))
					continue
				case op == 2:
					h.ClockOf(tid).Tick(int(tid))
					continue
				}
				idx++
				w := &words[next(len(words))]
				isWrite, isAtomic := next(3) == 0, next(3) == 0
				clock := h.ClockOf(tid)
				unordered := w.wSeen && w.wTid != tid && w.wTick > clock.Get(int(w.wTid))
				unchecked := isAtomic && w.wAtomic
				got, want := race{-1, -1}, race{-1, -1}
				if unordered && !unchecked {
					got = race{w.wTid, w.wEvent}
					want = got
				}
				if !isWrite {
					if got.tid >= 0 {
						w.conflicted = true
					}
					rs, ref := &w.reads, &w.ref.reads
					if isAtomic {
						rs, ref = &w.readsAt, &w.ref.readsAtomic
					}
					promoting := rs.set == nil
					rs.record(s, tid, clock, idx)
					if promoting && rs.set != nil {
						if sets[rs.set] {
							reused++
						}
						sets[rs.set] = true
					}
					ref.record(tid, clock, idx)
					continue
				}
				writes++
				if unordered && unchecked && w.demoted {
					w.gap = true
				}
				if !licensed {
					// Nothing is ever retired: the raw scans must agree.
					for _, fl := range []struct {
						rs  *readState
						ref *refReads
					}{{&w.reads, &w.ref.reads}, {&w.readsAt, &w.ref.readsAtomic}} {
						a, ae := fl.rs.conflict(tid, clock)
						r, re := fl.ref.conflict(tid, clock)
						if a != r || ae != re {
							t.Fatalf("%s seed %d event %d: read scan (%d,%d), full VC (%d,%d)",
								cfg.Name, seed, idx, a, ae, r, re)
						}
					}
				}
				if got.tid < 0 {
					compared++
					got.tid, got.ev = w.reads.conflict(tid, clock)
					want.tid, want.ev = w.ref.reads.conflict(tid, clock)
					if got.tid < 0 && !isAtomic {
						got.tid, got.ev = w.readsAt.conflict(tid, clock)
					}
					if want.tid < 0 && !isAtomic {
						want.tid, want.ev = w.ref.readsAtomic.conflict(tid, clock)
					}
				}
				switch {
				case got == want:
					if got.tid >= 0 {
						w.conflicted = true
					}
				case w.conflicted:
					silenced++
				case w.gap:
					gapped++
				default:
					t.Fatalf("%s seed %d event %d (T%d write atomic=%v): adaptive conflict %+v, full VC %+v",
						cfg.Name, seed, idx, tid, isAtomic, got, want)
				}
				if licensed {
					if !w.reads.empty() && w.reads.orderedBefore(clock) {
						w.reads.demote(s)
						w.demoted = true
					}
					if !w.readsAt.empty() && w.readsAt.orderedBefore(clock) {
						w.readsAt.demote(s)
						w.demoted = true
					}
				}
				w.wSeen, w.wTid, w.wTick, w.wEvent, w.wAtomic = true, tid, clock.Get(int(tid)), idx, isAtomic
			}
			promotions += s.promotions
			demotions += s.demotions
		}
		t.Logf("%s: %d writes, %d read scans compared, %d divergences after a first conflict, %d in the atomic chain-break gap, %d promotions, %d demotions, %d pooled set reuses",
			cfg.Name, writes, compared, silenced, gapped, promotions, demotions, reused)
		if promotions == 0 || compared == 0 {
			t.Errorf("%s: stream never promoted (%d) or never scanned reads (%d)", cfg.Name, promotions, compared)
		}
		if licensed && (demotions == 0 || reused == 0) {
			t.Errorf("%s: licensed config must demote (%d) and reuse pooled sets (%d)", cfg.Name, demotions, reused)
		}
		if !licensed && (demotions != 0 || silenced+gapped != 0) {
			t.Errorf("%s: unlicensed config demoted %d times and diverged %d times", cfg.Name, demotions, silenced+gapped)
		}
	}
}
