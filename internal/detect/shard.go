package detect

import (
	"sort"

	"adhocrace/internal/core"
	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/lockset"
	"adhocrace/internal/vc"
)

// Intra-run detector sharding.
//
// The single-threaded detector funnels every memory event through one
// shadow table. Sharding partitions that table by address ownership across
// N shard workers: the coordinator (Detector.Handle, called by the vm on
// its one execution goroutine) routes each access to the shard owning its
// address, in batches, through an event.Demux; synchronization events —
// the only events that mutate vector clocks, held-lock sets, or the ad-hoc
// engine's classification — stay on the coordinator, and every queued
// access carries immutable stamps of the coordinator state it reads, so
// those mutations never wait for queued work.
//
// # Determinism argument
//
// A sharded run reports exactly what the single-threaded run reports:
//
//  1. Per-address order. Every address maps to exactly one shard
//     (shardOf), and a shard's batches are processed FIFO by one worker
//     (sched.Pool), so the accesses to any address are processed in
//     stream order — the order the sequential detector processes them.
//  2. Stable inputs. Processing an access reads, besides shard-owned
//     shadow state, only (a) the accessing thread's vector clock, (b) its
//     held-lock set, and (c) the ad-hoc engine's sync-variable
//     classification. (a) and (b) are stamped into the entry as immutable
//     snapshots at event time — a frozen clock view (vc.Frozen, O(1) by
//     copy-on-write) and a memoized held-lock set (lockset.HeldSnapshot)
//     — exactly the values the sequential detector would read at that
//     stream position, whatever the coordinator mutates afterwards. (c)
//     is mutated only by spin-read marks, which first flush the shard
//     owning the marked address. Before the clock store, (a) was a live
//     pointer and every clock-mutating event had to flush dependent
//     queued work first (a dependency-tagged selective flush the demux
//     used to carry); frozen stamps retired that whole barrier class —
//     sync events no longer stall the pipeline.
//  3. Stable outputs. Warnings carry their stream position (EventIdx);
//     the merged report sorts by it, which reproduces the sequential
//     append order because each event yields at most one warning. Shadow
//     accounting sums disjoint per-shard state, so ShadowBytes is the
//     same partition of the same words.
//
// The shard-count knob therefore changes wall-clock time and nothing
// else; shardDeterminismTest asserts byte-identical reports across shard
// counts.

// shardLineShift sizes the ownership granule at 4 shadow words (32 bytes
// of address space). Ownership interleaves lines across shards rather than
// whole page-table pages because the workloads' globals are allocated
// densely from address zero — page-granular ownership would park every
// access on shard 0. A line keeps neighbouring words (one IR object,
// typically) on one shard while spreading arrays across all of them.
const (
	shardLineShift = 2
	shardLineMask  = (1 << shardLineShift) - 1
)

// entry is one demuxed access: the fields of the event the access path
// reads, its stream position, and the coordinator-state snapshots item 2
// of the determinism argument calls for.
type entry struct {
	kind event.Kind
	tid  event.Tid
	addr int64
	sym  ir.SymID
	loc  ir.LocID
	// idx is the event's position in the stream (1-based), the sequential
	// detector's d.events at processing time.
	idx int64
	// clock is the accessing thread's clock at event time, as an immutable
	// frozen view — safe to read from the shard worker no matter what the
	// coordinator does to the live clock afterwards.
	clock vc.Frozen
	// held is the thread's held-lock snapshot (zero for tools that run no
	// lockset).
	held lockset.Set
}

// shardState is the detector state owned by one shard: everything keyed by
// address. Exactly one goroutine touches a shardState at a time — its
// worker between flushes, the coordinator otherwise.
type shardState struct {
	cfg   *Config
	adhoc *core.Engine

	shadow *shadowMem
	// locks carries only the per-variable half of the lockset state; the
	// held-lock half lives with the coordinator and arrives per entry.
	locks *lockset.Tracker
	// reportedSite supports per-(addr,loc) deduplication (DRD).
	reportedSite map[siteKey]bool

	// setPool recycles demoted read-sets (see readstate.go), so promotion
	// traffic after warm-up allocates nothing.
	setPool []*readSet
	// promotions / demotions count read-representation transitions, summed
	// into the Report.
	promotions, demotions int64
	// gcWords / gcPages / gcSets count this shard's GC retirements (see
	// gc.go), summed into the Report.
	gcWords, gcPages, gcSets int64

	warnings []Warning
	// onWarn streams warnings as they are appended — set only on a
	// single-shard detector, where append order is report order (see
	// Detector.setWarningObserver).
	onWarn func(Warning)
}

func newShardState(cfg *Config, adhoc *core.Engine, stride, shardIdx int64) *shardState {
	return &shardState{
		cfg:          cfg,
		adhoc:        adhoc,
		shadow:       newShadowMemStride(stride, shardIdx),
		locks:        lockset.NewTracker(),
		reportedSite: make(map[siteKey]bool),
	}
}

// access runs the per-address half of the detector state machine for one
// demuxed access — the code the sequential detector runs inline, minus the
// coordinator-owned ad-hoc release bookkeeping (core.Engine.OnWrite).
func (s *shardState) access(e *entry) {
	if e.kind == gcEntryKind {
		// A demuxed GC mark: collect at this position of the shard's
		// stream. The entry's clock carries the watermark.
		s.collect(e.clock)
		return
	}
	isWrite := e.kind.IsWrite()
	isAtomic := e.kind.IsAtomic()

	w := s.shadow.word(e.addr)
	if isAtomic {
		w.atomicEver = true
	}

	// Eraser tool: lockset only.
	if s.cfg.Tool == EraserTool {
		warn, _ := s.locks.AccessWith(e.tid, e.addr, isWrite, e.held)
		if warn && !w.reported {
			w.reported = true
			tab := s.adhoc.Table()
			s.warn(Warning{Kind: WarnLockset, Loc: tab.LocAt(e.loc), Addr: e.addr,
				Sym: tab.SymName(e.sym), Tid: e.tid, Write: isWrite, EventIdx: e.idx})
		}
		return
	}

	// Hybrid bookkeeping (classification only; reporting is HB-driven).
	if s.cfg.Tool == HelgrindPlus {
		s.locks.AccessWith(e.tid, e.addr, isWrite, e.held)
	}

	clock := e.clock
	var raceWith event.Tid = -1
	var raceEvent int64 = -1

	// Write-read / write-write race: the last write must happen-before us.
	// Two atomic accesses never race (atomicity is synchronization at the
	// hardware level), so an atomic access conflicts only with plain ones.
	if w.wSeen && w.wTid != e.tid && w.wTick > clock.Get(int(w.wTid)) &&
		!(isAtomic && w.wAtomic) {
		raceWith, raceEvent = w.wTid, w.wEvent
	}

	// Read-write race: every prior read must happen-before a write. Atomic
	// writes race only with prior plain reads.
	if isWrite && raceWith < 0 {
		raceWith, raceEvent = w.reads.conflict(e.tid, clock)
		if raceWith < 0 && !isAtomic {
			raceWith, raceEvent = w.readsAtomic.conflict(e.tid, clock)
		}
	}

	if raceWith >= 0 {
		s.maybeReport(e, w, isWrite, raceWith, raceEvent)
	}

	// Update shadow.
	if isWrite {
		// A write ordered after every recorded read of a flavor retires
		// that flavor's read history: FastTrack's demotion, which is what
		// keeps promoted read-sets rare and the pool hot. Only licensed
		// when the configuration's reporting cannot observe the retirement
		// (Config.forgetfulReadsOK explains the argument). Checked per
		// flavor — the atomic flavor may demote even on an atomic write
		// that skipped the conflict scan above, because the predicate is
		// ordering, not racelessness.
		if s.cfg.forgetfulReadsOK() {
			if !w.reads.empty() && w.reads.orderedBefore(clock) {
				w.reads.demote(s)
			}
			if !w.readsAtomic.empty() && w.readsAtomic.orderedBefore(clock) {
				w.readsAtomic.demote(s)
			}
		}
		w.wSeen = true
		w.wTid = e.tid
		w.wTick = clock.Get(int(e.tid))
		w.wEvent = e.idx
		w.wLoc = e.loc
		w.wAtomic = isAtomic
	} else {
		rs := &w.reads
		if isAtomic {
			rs = &w.readsAtomic
		}
		rs.record(s, e.tid, clock, e.idx)
	}
}

func (s *shardState) maybeReport(e *entry, w *shadowWord, isWrite bool, other event.Tid, otherEvent int64) {
	// Suppression of synchronization variables.
	if s.adhoc.Enabled() {
		if s.adhoc.IsSyncVar(e.addr, e.sym) {
			return
		}
	} else if s.cfg.AtomicSuppression && w.atomicEver {
		return
	}
	// Bounded history (DRD segment recycling).
	if s.cfg.HistoryWindow > 0 && otherEvent >= 0 && e.idx-otherEvent > s.cfg.HistoryWindow {
		return
	}
	// Long-run MSM: arm on first observation, report on second.
	if s.cfg.LongRunMSM && !w.suspected {
		w.suspected = true
		return
	}
	// Deduplication.
	if s.cfg.DedupPerAddr {
		if w.reported {
			return
		}
		w.reported = true
	} else {
		k := siteKey{e.addr, e.loc}
		if s.reportedSite[k] {
			return
		}
		s.reportedSite[k] = true
	}
	// Warnings are rare; only here do the interned ids become strings.
	tab := s.adhoc.Table()
	s.warn(Warning{Kind: WarnHBRace, Loc: tab.LocAt(e.loc), Addr: e.addr,
		Sym: tab.SymName(e.sym), Tid: e.tid, Other: other, Write: isWrite, EventIdx: e.idx})
}

func (s *shardState) warn(w Warning) {
	s.warnings = append(s.warnings, w)
	if s.onWarn != nil {
		s.onWarn(w)
	}
}

// mergeWarnings interleaves per-shard warning lists back into stream
// order. EventIdx is unique per warning (an event yields at most one), so
// sorting by it reproduces the sequential detector's append order exactly.
func mergeWarnings(shards []*shardState) []Warning {
	if len(shards) == 1 {
		return shards[0].warnings
	}
	var out []Warning
	for _, s := range shards {
		out = append(out, s.warnings...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EventIdx < out[j].EventIdx })
	return out
}
