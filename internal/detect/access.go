package detect

import (
	"adhocrace/internal/event"
	"adhocrace/internal/vc"
)

// access runs the per-address detector state machine for one memory
// access at stream position idx (1-based). clock is the accessing thread's
// live clock, read in place: nothing mutates it while the access runs.
// The ad-hoc engine's release bookkeeping (core.Engine.OnWrite) is the
// caller's, after the shadow update.
func (d *Detector) access(ev *event.Event, idx int64, clock *vc.Clock) {
	isWrite := ev.Kind.IsWrite()
	isAtomic := ev.Kind.IsAtomic()

	w := d.shadow.word(ev.Addr)
	if isAtomic {
		w.atomicEver = true
	}

	// Eraser tool: lockset only.
	if d.cfg.Tool == EraserTool {
		if d.locks.AccessVar(&w.ls, ev.Tid, isWrite) && !w.reported {
			w.reported = true
			tab := d.adhoc.Table()
			d.warn(Warning{Kind: WarnLockset, Loc: tab.LocAt(ev.Loc), Addr: ev.Addr,
				Sym: tab.SymName(ev.Sym), Tid: ev.Tid, Write: isWrite, EventIdx: idx})
		}
		return
	}

	// Hybrid bookkeeping: Helgrind+ carries the lockset state next to the
	// clocks, but reporting is HB-driven, so the verdict goes unused and
	// the state shows only in the memory figure.
	if d.cfg.Tool == HelgrindPlus {
		d.locks.AccessVar(&w.ls, ev.Tid, isWrite)
	}

	var raceWith event.Tid = -1
	var raceEvent int64 = -1

	// Write-read / write-write race: the last write must happen-before us.
	// Two atomic accesses never race (atomicity is synchronization at the
	// hardware level), so an atomic access conflicts only with plain ones.
	if w.wSeen && w.wTid != ev.Tid && w.wTick > clock.Get(int(w.wTid)) &&
		!(isAtomic && w.wAtomic) {
		raceWith, raceEvent = w.wTid, w.wEvent
	}

	// Read-write race: every prior read must happen-before a write. Atomic
	// writes race only with prior plain reads.
	if isWrite && raceWith < 0 {
		raceWith, raceEvent = w.reads.conflict(ev.Tid, clock)
		if raceWith < 0 && !isAtomic {
			raceWith, raceEvent = w.readsAtomic.conflict(ev.Tid, clock)
		}
	}

	if raceWith >= 0 {
		d.maybeReport(ev, idx, w, isWrite, raceWith, raceEvent)
	}

	// Update shadow.
	if isWrite {
		w.wSeen = true
		w.wTid = ev.Tid
		w.wTick = clock.Get(int(ev.Tid))
		w.wEvent = idx
		w.wLoc = ev.Loc
		w.wAtomic = isAtomic
	} else {
		rs := &w.reads
		if isAtomic {
			rs = &w.readsAtomic
		}
		rs.record(d, ev.Tid, clock, idx)
	}
}

func (d *Detector) maybeReport(ev *event.Event, idx int64, w *shadowWord, isWrite bool, other event.Tid, otherEvent int64) {
	// Suppression of synchronization variables.
	if d.adhoc.Enabled() {
		if d.adhoc.IsSyncVar(ev.Addr, ev.Sym) {
			return
		}
	} else if d.cfg.Tool == HelgrindPlus && w.atomicEver {
		// Helgrind+ without the spin feature: the atomic sync-variable
		// heuristic.
		return
	}
	if d.cfg.Tool == DRDTool {
		// DRD recycles old segments, so far-apart accesses no longer
		// pair (bounded history), and reports each (address, site) pair
		// once.
		if otherEvent >= 0 && idx-otherEvent > drdHistory {
			return
		}
		k := siteKey{ev.Addr, ev.Loc}
		if d.reportedSite[k] {
			return
		}
		d.reportedSite[k] = true
	} else {
		// Helgrind+ reports the first racy context per address.
		if w.reported {
			return
		}
		w.reported = true
	}
	// Warnings are rare; only here do the interned ids become strings.
	tab := d.adhoc.Table()
	d.warn(Warning{Kind: WarnHBRace, Loc: tab.LocAt(ev.Loc), Addr: ev.Addr,
		Sym: tab.SymName(ev.Sym), Tid: ev.Tid, Other: other, Write: isWrite, EventIdx: idx})
}

func (d *Detector) warn(w Warning) {
	d.warnings = append(d.warnings, w)
	if d.onWarning != nil {
		d.onWarning(w)
	}
}
