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

// TestReadStateMatchesFullVCReads drives the adaptive read representation
// and the seed full-vector-clock reads through identical random access
// streams — 2–6 threads, plain and atomic flavors, clocks from an hb store
// driven by random release/acquire traffic — and on every write holds the
// raw read scans of both flavors equal, under every preset. Nothing is
// forgiven: the adaptive side keeps every read until the shadow GC retires
// it.
//
// The adaptive side lives in the detector's own shadow words, write epoch
// included, so the detector's GC (collect, at the hb store's watermark)
// retires them every gcSteps steps, and Close releases the rest at the end
// of each stream. Retirement is invisible to the scans — a dominated read
// is ordered before every later access — and the sets it returns to
// readSetPool must come back in later promotions.
func TestReadStateMatchesFullVCReads(t *testing.T) {
	const gcSteps = 25
	sets := make(map[*readSet]bool)
	for _, cfg := range append(PaperTools(7), HelgrindPlusNolibSpinLocks(7)) {
		var writes, compared, promotions, gcSets, reused int64
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
			refs := make([]refWord, 3)
			var idx int64
			for step := 1; step <= 300; step++ {
				if step%gcSteps == 0 {
					if wm := h.Watermark(); wm.Len() > 0 {
						s.collect(wm.Thaw())
					}
				}
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
				addr := next(len(refs))
				w, ref := s.shadow.word(int64(addr)<<addrWordShift), &refs[addr]
				isWrite, isAtomic := next(3) == 0, next(3) == 0
				clock := h.ClockOf(tid)
				if !isWrite {
					rs, rr := &w.reads, &ref.reads
					if isAtomic {
						rs, rr = &w.readsAtomic, &ref.readsAtomic
					}
					promoting := rs.set == nil
					rs.record(s, tid, clock, idx)
					if promoting && rs.set != nil {
						if sets[rs.set] {
							reused++
						}
						sets[rs.set] = true
					}
					rr.record(tid, clock, idx)
					continue
				}
				writes++
				for _, fl := range []struct {
					rs *readState
					rr *refReads
				}{{&w.reads, &ref.reads}, {&w.readsAtomic, &ref.readsAtomic}} {
					compared++
					a, ae := fl.rs.conflict(tid, clock)
					r, re := fl.rr.conflict(tid, clock)
					if a != r || ae != re {
						t.Fatalf("%s seed %d event %d (T%d write atomic=%v): read scan (%d,%d), full VC (%d,%d)",
							cfg.Name, seed, idx, tid, isAtomic, a, ae, r, re)
					}
				}
				w.wSeen, w.wTid, w.wTick, w.wEvent, w.wAtomic = true, tid, clock.Get(int(tid)), idx, isAtomic
			}
			promotions += s.promotions
			gcSets += s.gcSets
			s.Close()
		}
		t.Logf("%s: %d writes, %d read scans compared, %d promotions, %d sets retired by the GC, %d pooled set reuses",
			cfg.Name, writes, compared, promotions, gcSets, reused)
		if promotions == 0 || compared == 0 || gcSets == 0 || reused == 0 {
			t.Errorf("%s: stream never promoted (%d), scanned reads (%d), retired sets (%d) or reused a pooled set (%d)",
				cfg.Name, promotions, compared, gcSets, reused)
		}
	}
}
