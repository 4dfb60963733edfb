package detect

// Quiescence-based shadow-state GC.
//
// A long-running detector's state — shadow words, promoted read-sets,
// sync-object clocks, spin-condition release histories — grows with the
// set of addresses and objects ever touched, which is unbounded over an
// unbounded trace. Almost all of it is dead in the FastTrack sense: once
// every thread that can still run has synchronized past an access, that
// access happens-before everything the future holds and can never satisfy
// a race predicate again.
//
// # The domination argument
//
// Let wm be the quiescence watermark: the pointwise minimum (the lattice
// meet) of every live thread's clock, always including thread 0's
// (hb.Engine.Watermark). Every live thread's clock is >= wm, clocks are
// monotone, and a thread created later inherits a live parent's clock at
// spawn time, which is also >= wm. So for any epoch (t, k) with
// k <= wm[t]: every access any thread can still perform carries a clock c
// with c[t] >= wm[t] >= k — the epoch happens-before all future accesses.
//
// A shadow word whose write epoch and every recorded read epoch are
// dominated this way can therefore never again trigger the write-write,
// write-read, or read-write conflict predicates (each compares one stored
// epoch against one component of the accessor's clock — exactly the
// per-component test wm bounds), and its demotion predicate
// (readState.orderedBefore) is vacuously unchanged by clearing. Retiring
// the word — zeroing it and recycling its read-sets through the shard
// pool — is output-invisible, with one carve-out: the sticky flags
// (atomicEver, suspected, reported) gate *suppression*, not ordering, and
// forgetting them could resurrect a deduplicated warning or rewind the
// long-run state machine. They are preserved in a per-page bitmap side
// table (retiredFlags) and restored when the word is next touched, so the
// precision delta of the GC is exactly zero — which
// TestShadowGCEquivalence* holds corpus-wide and
// TestShadowGCPrecisionContract pins on the adversarial cases.
//
// # Why the GC cannot flush-order-race with shard ownership
//
// Shards own disjoint address partitions and process their entries in
// stream FIFO order (shard.go's determinism argument). The GC does not
// flush: the coordinator computes wm at one stream position and demuxes a
// gcEntryKind mark into every shard's queue through the same
// event.Demux slot path accesses take. Each shard therefore collects at a
// deterministic point of its own stream — after exactly the accesses the
// coordinator had routed before the mark, before all later ones. Any
// access entry queued behind the mark carries a frozen clock stamped at or
// after wm's computation, so it observes retired words exactly as the
// unbounded detector would have observed their dominated contents: no
// conflict either way, identical demotion decisions, identical recording.
// Coordinator-owned state (hb sync objects, core release histories,
// exited thread clocks) quiesces inline at the same stream position.
//
// # Precision contract
//
// Byte-identical warnings, in all configurations, at every shard count
// and overlap mode — dominated history can satisfy no predicate, sticky
// flags survive retirement, and Eraser's lockset variables (whose state
// *is* the report) are exempted from per-variable forgetting. What does
// change: ShadowBytes (the point of the exercise) and the representation
// counters (promotions/demotions/epoch-hits count transitions the GC
// removes or re-runs), none of which the report fingerprint includes.

import (
	"adhocrace/internal/event"
	"adhocrace/internal/fault"
	"adhocrace/internal/obs"
	"adhocrace/internal/vc"
)

// gcEntryKind is the demuxed GC mark: a reserved event kind the vm never
// emits, carrying the watermark in the entry's clock field.
const gcEntryKind event.Kind = 0xff

// DefaultGCEvents is the default GC cycle period, in events.
const DefaultGCEvents = 1 << 16

// EnableShadowGC turns on the quiescence GC with the given cycle period in
// events (<= 0 means DefaultGCEvents). Must be called before the first
// event. Warnings are byte-identical with the GC on or off; only memory
// consumption and the representation counters change.
func (d *Detector) EnableShadowGC(every int64) {
	if every <= 0 {
		every = DefaultGCEvents
	}
	d.gcEvery = every
	d.nextGC = every
}

// collectGarbage runs one GC cycle at the current stream position.
func (d *Detector) collectGarbage() {
	d.nextGC = d.events + d.gcEvery
	wm := d.hb.Watermark()
	if wm.Len() == 0 {
		// Bottom watermark: nothing can be dominated.
		return
	}
	d.gcCycles++
	if err := d.fault.Fire(fault.GCCycle); err != nil {
		// No error path out of a cycle; an injected GC failure crashes the
		// detection stage for the caller's containment to absorb.
		panic(err)
	}
	start := d.obs.Start()
	if d.demux != nil {
		for i := range d.shards {
			e := d.demux.Slot(i)
			*e = entry{kind: gcEntryKind, clock: wm}
		}
	} else {
		d.shards[0].collect(wm)
	}
	retired := d.hb.Quiesce(wm)
	d.gcSyncObjs += retired
	d.gcHists += d.adhoc.Quiesce(wm)
	// The timed slice is the coordinator's share of the cycle: the sharded
	// collect marks run later on the workers (inside their shard-apply
	// spans), so this span measures coordinator occupancy, not total sweep.
	d.obs.Stage(obs.TrackGC, obs.HistGCNs, start, retired)
}

// collect retires this shard's dominated shadow words. Runs on the shard's
// worker at the mark's stream position (or inline, single-threaded).
func (s *shardState) collect(wm vc.Frozen) {
	eraser := s.cfg.Tool == EraserTool
	for key, pg := range s.shadow.pages {
		var rf *retiredFlags
		for i := range pg.words {
			w := &pg.words[i]
			if !w.live {
				continue
			}
			if w.wSeen && w.wTick > wm.Get(int(w.wTid)) {
				continue
			}
			if !w.reads.orderedBefore(wm) || !w.readsAtomic.orderedBefore(wm) {
				continue
			}
			if w.atomicEver || w.suspected || w.reported {
				if rf == nil {
					rf = s.shadow.retiredOf(key)
				}
				rf.set(i, w.atomicEver, w.suspected, w.reported)
			}
			if w.reads.set != nil {
				s.putReadSet(w.reads.set)
				s.gcSets++
			}
			if w.readsAtomic.set != nil {
				s.putReadSet(w.readsAtomic.set)
				s.gcSets++
			}
			if !eraser {
				// The hybrid tools discard AccessWith's verdict, so the
				// variable's lockset state machine may restart from Virgin.
				s.locks.ForgetVar(s.shadow.addrOf(key, i))
			}
			*w = shadowWord{}
			pg.live--
			s.gcWords++
		}
		if pg.live == 0 {
			// Every word was retired, so zeroed: the page goes back to
			// the pool as it is.
			delete(s.shadow.pages, key)
			if s.shadow.lastPage == pg {
				s.shadow.lastPage = nil
			}
			putPage(pg)
			s.gcPages++
		}
	}
}

// retiredFlags is the per-page bitmap side table preserving the sticky
// suppression flags of retired words, restored on the word's next touch.
type retiredFlags struct {
	atomicEver [pageWords / 64]uint64
	suspected  [pageWords / 64]uint64
	reported   [pageWords / 64]uint64
}

func (rf *retiredFlags) set(i int, atomicEver, suspected, reported bool) {
	bit := uint64(1) << (uint(i) & 63)
	if atomicEver {
		rf.atomicEver[i>>6] |= bit
	}
	if suspected {
		rf.suspected[i>>6] |= bit
	}
	if reported {
		rf.reported[i>>6] |= bit
	}
}

// restore copies word i's preserved flags into w.
func (rf *retiredFlags) restore(i int, w *shadowWord) {
	bit := uint64(1) << (uint(i) & 63)
	w.atomicEver = rf.atomicEver[i>>6]&bit != 0
	w.suspected = rf.suspected[i>>6]&bit != 0
	w.reported = rf.reported[i>>6]&bit != 0
}
