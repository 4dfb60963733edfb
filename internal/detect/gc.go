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
// per-component test wm bounds). Retiring the word — zeroing it and
// recycling its read-sets through readSetPool — is output-invisible, with
// two carve-outs. The sticky flags (atomicEver, reported) gate
// *suppression*, not ordering, and forgetting them could resurrect a
// suppressed or deduplicated warning. Under Eraser the word's lockset
// state *is* the report, and the happens-before watermark says nothing
// about it.
// Both are parked in a per-page side table (retiredFlags) and restored when
// the word is next touched, so the precision delta of the GC is exactly
// zero — which TestShadowGCEquivalence* holds corpus-wide and
// TestShadowGCPrecisionContract pins on the adversarial cases. The hybrid
// tools discard the lockset verdict, so their lockset state is wiped with
// the word and its state machine restarts from Virgin.
//
// # Stream position
//
// A cycle runs inline in Handle, between two events: the watermark, the
// shadow sweep and the engine-side quiescence (hb sync objects, core
// release histories, exited thread clocks) all see the same stream
// position, and every later access reads a clock at or above wm, so it
// observes retired words exactly as the unbounded detector would have
// observed their dominated contents: no conflict either way, identical
// recording.
//
// # Precision contract
//
// Byte-identical warnings, in all configurations and pipeline modes —
// dominated history can satisfy no predicate, sticky
// flags survive retirement, and Eraser's lockset state (which *is* the
// report) is parked and restored rather than forgotten. What does
// change: ShadowBytes (the point of the exercise) and the representation
// counters (promotions/epoch-hits count transitions the GC removes or
// re-runs), none of which the report fingerprint includes.

import (
	"adhocrace/internal/fault"
	"adhocrace/internal/lockset"
	"adhocrace/internal/obs"
	"adhocrace/internal/vc"
)

// GCPeriod is the GC cycle period, in events. Every detector cycles at
// it, so the stream's length alone decides whether a cycle ever runs.
// 1<<16 leaves short runs alone and bounds long ones: of the 1,626 runs
// of tables -t all -synth-n 30, only freqmine's pass it (21 cycles, no word retired),
// while one synth.LongTrace window of 500 phases holds 108.5 MB of shadow
// without the GC and 6.3 MB with it (docs/ARCHITECTURE.md, "Bounded
// memory").
const GCPeriod = 1 << 16

// EnableShadowGC does nothing: every detector runs the GC at GCPeriod.
//
// Deprecated: New arms the GC.
func (d *Detector) EnableShadowGC(int64) {}

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
	d.collect(wm.Thaw())
	retired := d.hb.Quiesce(wm)
	d.gcSyncObjs += retired
	d.gcHists += d.adhoc.Quiesce(wm)
	d.obs.Stage(obs.TrackGC, obs.HistGCNs, start, retired)
}

// collect retires the shadow words dominated by the watermark wm.
func (d *Detector) collect(wm *vc.Clock) {
	eraser := d.cfg.Tool == EraserTool
	for key, pg := range d.shadow.pages {
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
			if w.atomicEver || w.reported {
				if rf == nil {
					rf = d.shadow.retiredOf(key)
				}
				rf.set(i, w.atomicEver, w.reported)
			}
			if eraser && w.ls.State() != lockset.Virgin {
				if rf == nil {
					rf = d.shadow.retiredOf(key)
				}
				rf.park(i, w.ls)
			}
			d.gcSets += w.putReadSets()
			*w = shadowWord{}
			pg.live--
			d.gcWords++
		}
		if pg.live == 0 {
			// Every word was retired, so zeroed: the page goes back to
			// the pool as it is.
			delete(d.shadow.pages, key)
			if d.shadow.lastPage == pg {
				d.shadow.lastPage = nil
			}
			putPage(pg)
			d.gcPages++
		}
	}
}

// retiredFlags is the per-page side table preserving what retirement must
// not forget — the sticky suppression flags, and under Eraser the lockset
// state — restored on the word's next touch.
type retiredFlags struct {
	atomicEver [pageWords / 64]uint64
	reported   [pageWords / 64]uint64
	// flagged marks a table whose bitmaps hold a flag; shadowMem.bytes
	// charges the bitmaps only then.
	flagged bool
	// locks parks the lockset state of retired Eraser words; nil until
	// the first one retires.
	locks *[pageWords]lockset.Var
}

func (rf *retiredFlags) set(i int, atomicEver, reported bool) {
	rf.flagged = true
	bit := uint64(1) << (uint(i) & 63)
	if atomicEver {
		rf.atomicEver[i>>6] |= bit
	}
	if reported {
		rf.reported[i>>6] |= bit
	}
}

// park keeps word i's lockset state until the word is next touched.
func (rf *retiredFlags) park(i int, ls lockset.Var) {
	if rf.locks == nil {
		rf.locks = new([pageWords]lockset.Var)
	}
	rf.locks[i] = ls
}

// restore copies word i's preserved flags and parked lockset state into w;
// the parked state moves, so it is charged once, as the word's.
func (rf *retiredFlags) restore(i int, w *shadowWord) {
	bit := uint64(1) << (uint(i) & 63)
	w.atomicEver = rf.atomicEver[i>>6]&bit != 0
	w.reported = rf.reported[i>>6]&bit != 0
	if rf.locks != nil {
		w.ls = rf.locks[i]
		rf.locks[i] = lockset.Var{}
	}
}

// bytes is the table's charge in the memory figure: the two bitmaps and
// their map entry once a flag is set, plus every parked lockset state.
func (rf *retiredFlags) bytes() int64 {
	var n int64
	if rf.flagged {
		n = 2*(pageWords/8) + 48
	}
	if rf.locks != nil {
		for i := range rf.locks {
			n += rf.locks[i].Bytes()
		}
	}
	return n
}
