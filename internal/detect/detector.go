package detect

import (
	"fmt"
	"sort"

	"adhocrace/internal/core"
	"adhocrace/internal/event"
	"adhocrace/internal/fault"
	"adhocrace/internal/hb"
	"adhocrace/internal/ir"
	"adhocrace/internal/lockset"
	"adhocrace/internal/obs"
	"adhocrace/internal/spin"
)

// WarningKind classifies a warning.
type WarningKind uint8

// Warning kinds.
const (
	// WarnHBRace: two conflicting accesses unordered by happens-before.
	WarnHBRace WarningKind = iota
	// WarnLockset: variable reached shared-modified with an empty
	// candidate lockset (Eraser tool only).
	WarnLockset
)

var warnNames = [...]string{"hb-race", "lockset"}

// String names the warning kind.
func (k WarningKind) String() string {
	if int(k) < len(warnNames) {
		return warnNames[k]
	}
	return "warn(?)"
}

// Warning is one race report.
type Warning struct {
	Kind WarningKind
	// Loc is the racy context: the source location of the access that
	// triggered the report.
	Loc ir.Loc
	// Addr/Sym identify the variable.
	Addr int64
	Sym  string
	// Tid is the accessing thread; Other the thread of the prior
	// conflicting access.
	Tid, Other event.Tid
	// Write reports whether the triggering access was a write.
	Write bool
	// EventIdx is the position in the event stream.
	EventIdx int64
}

// String renders the warning.
func (w Warning) String() string {
	what := "read"
	if w.Write {
		what = "write"
	}
	sym := w.Sym
	if sym == "" {
		sym = fmt.Sprintf("0x%x", w.Addr)
	}
	return fmt.Sprintf("%s: %s of %s at %s by T%d (conflicts with T%d)",
		w.Kind, what, sym, w.Loc, w.Tid, w.Other)
}

// Report is the outcome of running a detector over one execution.
type Report struct {
	Config   Config
	Warnings []Warning
	// Events is the number of events processed.
	Events int64
	// SpinEdges is the number of happens-before edges injected by the
	// ad-hoc synchronization engine.
	SpinEdges int64
	// SpinLoops is the number of loops the instrumentation classified.
	SpinLoops int
	// InferredLockWords is the number of lock words identified (only with
	// the InferLocks extension).
	InferredLockWords int
	// ShadowBytes approximates detector shadow-memory consumption.
	ShadowBytes int64
	// ReadSetPromotions counts shadow words whose read representation was
	// promoted from a single epoch to a read-set because genuinely
	// concurrent reads were observed (see shard.go); a measure of how often
	// the FastTrack fast path does not suffice. Deterministic for a given
	// (program, tool, seed) run, independent of shard count and pipeline
	// mode.
	ReadSetPromotions int64
	// ReadSetDemotions counts read-sets collapsed back to the epoch
	// representation by a write ordered after every recorded read.
	ReadSetDemotions int64
	// SyncEpochHits counts O(1) sync-object fast paths of the clock store
	// (same-owner re-releases, covered acquires); SyncRebases and
	// SyncInflates count its fallbacks (hb.Stats). Like the read-set
	// counters these are representation metrics: deterministic per
	// (program, tool, seed), and excluded from the report fingerprint.
	SyncEpochHits int64
	SyncRebases   int64
	SyncInflates  int64
	// SyncObjects counts the happens-before engine's live sync-object and
	// barrier states at report time — the soak tests' plateau gauge.
	SyncObjects int64
	// GC counters (all zero unless EnableShadowGC ran; see gc.go). Like
	// ShadowBytes and the representation counters these depend on layout
	// and cycle timing — the report fingerprint excludes them.
	//
	// GCCycles counts completed GC cycles; GCWordsRetired dominated shadow
	// words retired; GCPagesFreed shadow pages freed whole;
	// GCReadSetsReclaimed promoted read-sets returned to the pool by
	// retirement; GCSyncObjsRetired sync-object/barrier states the
	// happens-before engine retired; GCHistsBounded release histories the
	// ad-hoc engine emptied.
	GCCycles            int64
	GCWordsRetired      int64
	GCPagesFreed        int64
	GCReadSetsReclaimed int64
	GCSyncObjsRetired   int64
	GCHistsBounded      int64
}

// distinctContexts deduplicates the warnings' source locations and sorts
// them by (file, line) — the shared scan behind both context metrics.
// Warnings are appended in event-stream order, so the result is
// deterministic for a given (program, tool, seed) run.
func (r *Report) distinctContexts() []ir.Loc {
	seen := make(map[ir.Loc]bool, len(r.Warnings))
	out := make([]ir.Loc, 0, len(r.Warnings))
	for _, w := range r.Warnings {
		if !seen[w.Loc] {
			seen[w.Loc] = true
			out = append(out, w.Loc)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// RacyContexts returns the number of distinct racy contexts (source
// locations with at least one warning), the paper's evaluation metric.
func (r *Report) RacyContexts() int { return len(r.distinctContexts()) }

// ContextList returns the distinct racy contexts, sorted.
func (r *Report) ContextList() []ir.Loc { return r.distinctContexts() }

// HasWarnings reports whether any race was reported.
func (r *Report) HasWarnings() bool { return len(r.Warnings) > 0 }

// shadowWord is the per-address detector state, stored by value in the
// paged shadow memory (see shadow.go). The zero value is a fresh word; the
// whole hot path is allocation-free — the write side is an epoch, and the
// read side is the adaptive FastTrack representation of readState, which
// allocates only on promotion to a read-set (and then from the shard's
// pool).
type shadowWord struct {
	// Last write epoch: thread, that thread's clock component, stream
	// position, location, atomicity.
	wTid    event.Tid
	wTick   uint64
	wEvent  int64
	wLoc    ir.LocID
	wSeen   bool
	wAtomic bool

	// Read state per flavor. Plain and atomic reads are tracked separately
	// because two atomic accesses never constitute a data race.
	reads       readState
	readsAtomic readState

	// live marks words in use, for the page's ShadowBytes accounting.
	live bool
	// atomicEver marks addresses ever accessed atomically (the Helgrind+
	// lib sync-variable heuristic).
	atomicEver bool
	// suspected supports the long-run MSM: first racy observation arms
	// it, the second reports.
	suspected bool
	// reported supports per-address deduplication.
	reported bool
}

// Detector consumes one execution's event stream. It is the coordinator
// of the (possibly sharded) detection pipeline: Handle runs on the vm's
// execution goroutine, keeps every clock-, lockset- and classification-
// mutating event to itself, and demuxes plain memory accesses to the
// shard workers owning their addresses. With one shard (New) there are no
// workers and every access is processed inline — the single-threaded
// detector is the degenerate case of the sharded one. See shard.go for
// the sharding design and its determinism argument.
type Detector struct {
	cfg Config

	hb    hb.Engine
	adhoc *core.Engine
	// locks carries the held-lock half of the lockset state; the
	// per-variable half lives in the shards.
	locks *lockset.Tracker

	shards []*shardState
	// demux routes access entries to shard workers; nil with one shard.
	demux  *event.Demux[entry]
	closed bool

	events int64
	ins    *spin.Instrumentation

	// Quiescence GC schedule and coordinator-side counters (see gc.go);
	// gcEvery == 0 means the GC is off.
	gcEvery    int64
	nextGC     int64
	gcCycles   int64
	gcSyncObjs int64
	gcHists    int64

	// onWarning is RunOpts.OnWarning; streamed counts the warnings already
	// delivered through it, so Report never re-delivers. Single-shard
	// detectors deliver inline from shardState.warn (append order == report
	// order); sharded ones deliver the not-yet-streamed tail when the
	// merged report is assembled.
	onWarning func(Warning)
	streamed  int

	// obs, when set, observes the detection side: shard batch applies, GC
	// cycles, report merge time, and (through the demux and hb engine) fan-
	// out and inflation activity. The per-access hot path carries no probe.
	obs *obs.Pipeline
	// fault, when set, arms the detection-side failpoints (shard apply,
	// merge, GC cycle; the demux carries its own dispatch site). Like obs,
	// the per-access hot path carries no site — injections are
	// stage-granular. Nil keeps every site a nil-check.
	fault *fault.Registry
}

type siteKey struct {
	addr int64
	loc  ir.LocID
}

// New builds a single-threaded detector for one run. The instrumentation
// must be the one produced by cfg.Instrument on the program being executed
// (nil when the spin feature is off); the program supplies the static
// symbol table for sync-variable resolution.
func New(cfg Config, ins *spin.Instrumentation, prog *ir.Program) *Detector {
	return NewSharded(cfg, ins, prog, 1)
}

// NewSharded builds a detector whose shadow state is partitioned across
// the given number of shard workers (values below 2 mean single-threaded,
// no workers). Reports are identical for every shard count. Callers of
// NewSharded own the worker lifecycle: Close must be called when the
// detector is done (Prepared.Run and ReplayTrace do this for you).
func NewSharded(cfg Config, ins *spin.Instrumentation, prog *ir.Program, shards int) *Detector {
	if shards < 1 {
		shards = 1
	}
	h := hb.New()
	adhoc := core.New(h, ins, prog)
	adhoc.InferLocks = cfg.InferLocks
	d := &Detector{
		cfg:    cfg,
		hb:     h,
		adhoc:  adhoc,
		locks:  lockset.NewTracker(),
		shards: make([]*shardState, shards),
		ins:    ins,
	}
	for i := range d.shards {
		d.shards[i] = newShardState(&d.cfg, adhoc, int64(shards), int64(i))
	}
	if shards > 1 {
		d.demux = event.NewDemux(shards, 0, func(shard int, batch []entry) {
			s := d.shards[shard]
			// d.obs/d.fault are read at call time: setObs/setFault run
			// before any event is demuxed, and the dispatch hand-off orders
			// the writes. An injected shard-apply failure panics on the
			// worker; the sched.Pool captures it and re-raises it on the
			// coordinator at the next flush.
			if err := d.fault.Fire(fault.ShardApply); err != nil {
				panic(err)
			}
			start := d.obs.Start()
			for i := range batch {
				s.access(&batch[i])
			}
			d.obs.Stage(obs.TrackShard(shard), obs.HistShardApplyNs, start, int64(len(batch)))
		})
	}
	return d
}

// setObs attaches an observability pipeline to the coordinator, the demux
// fan-out, and (when the engine supports it) the hb clock store. Must be
// called before the first event; nil is the default and keeps every probe
// a nil-check.
func (d *Detector) setObs(p *obs.Pipeline) {
	d.obs = p
	if d.demux != nil {
		d.demux.SetObs(p)
	}
	if eng, ok := d.hb.(interface{ SetObs(*obs.Pipeline) }); ok {
		eng.SetObs(p)
	}
}

// setFault attaches a failpoint registry to the coordinator and the demux
// fan-out. Must be called before the first event; nil is the default.
func (d *Detector) setFault(r *fault.Registry) {
	d.fault = r
	if d.demux != nil {
		d.demux.SetFault(r)
	}
}

// setWarningObserver installs RunOpts.OnWarning. Must be called before the
// first event; nil uninstalls.
func (d *Detector) setWarningObserver(fn func(Warning)) {
	d.onWarning = fn
	if fn != nil && len(d.shards) == 1 {
		d.shards[0].onWarn = func(w Warning) {
			d.streamed++
			fn(w)
		}
	} else if len(d.shards) == 1 {
		d.shards[0].onWarn = nil
	}
}

// shardOf maps an address to the shard owning its shadow line.
func (d *Detector) shardOf(addr int64) int {
	line := (addr >> addrWordShift) >> shardLineShift
	return int(uint64(line) % uint64(len(d.shards)))
}

// Handle implements event.Sink.
//
// Clock- and lockset-mutating events need no shard flush: every queued
// access carries immutable stamps of the coordinator state it reads (a
// frozen clock view, a held-lock snapshot), so mutating the live state
// cannot disturb in-flight work. The only remaining barriers are
// shadow-order ones: a spin-read mark reclassifies its address (flush the
// owning shard before queued accesses to it would report differently),
// and a release-relevant write must interleave with its address's queued
// accesses in stream order (onAccess).
func (d *Detector) Handle(ev *event.Event) {
	d.events++
	switch ev.Kind {
	case event.KindRead, event.KindWrite, event.KindAtomicRead, event.KindAtomicWrite:
		d.onAccess(ev)
	case event.KindSyncPre:
		if ev.Sync == ir.SyncDestroy {
			// Destruction is resource management, not ordering: drop the
			// object's clock state regardless of the tool's sync support.
			d.hb.ForgetObject(ev.Addr)
			return
		}
		if d.cfg.supportsSync(ev.Sync) {
			d.onSyncPre(ev)
		}
	case event.KindSyncPost:
		if ev.Sync != ir.SyncDestroy && d.cfg.supportsSync(ev.Sync) {
			d.onSyncPost(ev)
		}
	case event.KindSpawn:
		d.hb.Spawn(ev.Tid, ev.Child)
	case event.KindJoin:
		d.hb.Join(ev.Tid, ev.Child)
	case event.KindSpinRead:
		// The mark reclassifies its address as a sync variable, which
		// changes how queued accesses to that address would report.
		if d.demux != nil {
			d.demux.FlushShard(d.shardOf(ev.Addr))
		}
		d.adhoc.OnSpinRead(ev)
	case event.KindSpinExit:
		d.adhoc.OnSpinExit(ev)
	case event.KindThreadStart:
		// Lifecycle marks feed the quiescence watermark: started threads
		// hold retirement back, exited ones stop doing so.
		d.hb.ThreadStarted(ev.Tid)
	case event.KindThreadExit:
		d.hb.ThreadExited(ev.Tid)
	}
	if d.gcEvery > 0 && d.events >= d.nextGC {
		d.collectGarbage()
	}
}

func (d *Detector) onAccess(ev *event.Event) {
	isWrite := ev.Kind.IsWrite()

	if d.cfg.Tool == DRDTool && d.cfg.AtomicsInvisible && ev.Kind.IsAtomic() {
		// DRD excludes atomic accesses from race checking entirely; they
		// neither race nor pair against plain accesses.
		return
	}

	shard := d.shardOf(ev.Addr)
	inline := d.demux == nil
	if !inline && isWrite && d.adhoc.WriteActs(ev) {
		// A release-relevant write: OnWrite snapshots the writer's clock
		// into the address's release history, so the access itself must be
		// processed inline between shadow update and release snapshot,
		// after the address's queued accesses (shadow order) — exactly
		// like the sequential path. The writer's *other* queued accesses
		// need no flush: their stamps are frozen.
		d.demux.FlushShard(shard)
		inline = true
	}

	var e *entry
	var local entry // stack home for the inline path
	if inline {
		e = &local
	} else {
		// Filled in place inside the pending batch — no copy. Entries
		// carry immutable stamps, so nothing the coordinator later mutates
		// needs to wait for them.
		e = d.demux.Slot(shard)
	}
	e.kind = ev.Kind
	e.tid = ev.Tid
	e.addr = ev.Addr
	e.sym = ev.Sym
	e.loc = ev.Loc
	e.idx = d.events
	e.clock = d.hb.Snapshot(ev.Tid)
	if d.cfg.Tool != DRDTool {
		e.held = d.locks.HeldSnapshot(ev.Tid)
	}
	if inline {
		d.shards[shard].access(e)
		if isWrite {
			d.adhoc.OnWrite(ev)
		}
	}
}

// onSyncPre handles the Pre half of a supported sync event; Handle has
// already filtered unsupported kinds (before the flush, which they must
// not trigger).
func (d *Detector) onSyncPre(ev *event.Event) {
	switch ev.Sync {
	case ir.SyncMutexUnlock:
		d.hb.Release(ev.Tid, ev.Addr)
		d.locks.LockReleased(ev.Tid, ev.Addr)
	case ir.SyncCondSignal:
		d.hb.Release(ev.Tid, ev.Addr)
	case ir.SyncCondWait:
		// Waiting releases the user mutex (Addr2).
		d.hb.Release(ev.Tid, ev.Addr2)
		d.locks.LockReleased(ev.Tid, ev.Addr2)
	case ir.SyncBarrierWait:
		d.hb.BarrierArrive(ev.Tid, ev.Addr)
	case ir.SyncSemPost, ir.SyncQueuePut:
		d.hb.Release(ev.Tid, ev.Addr)
	case ir.SyncRWUnlock:
		d.hb.Release(ev.Tid, ev.Addr)
		d.locks.LockReleased(ev.Tid, ev.Addr)
	}
}

// onSyncPost handles the Post half of a supported sync event; Handle has
// already filtered unsupported kinds.
func (d *Detector) onSyncPost(ev *event.Event) {
	switch ev.Sync {
	case ir.SyncMutexLock:
		d.hb.Acquire(ev.Tid, ev.Addr)
		d.locks.LockAcquired(ev.Tid, ev.Addr)
	case ir.SyncCondWait:
		d.hb.Acquire(ev.Tid, ev.Addr)  // the signal
		d.hb.Acquire(ev.Tid, ev.Addr2) // the re-acquired mutex
		d.locks.LockAcquired(ev.Tid, ev.Addr2)
	case ir.SyncBarrierWait:
		d.hb.BarrierLeave(ev.Tid, ev.Addr)
	case ir.SyncSemWait, ir.SyncQueueGet, ir.SyncOnceEnter:
		d.hb.Acquire(ev.Tid, ev.Addr)
	case ir.SyncRWLockRd, ir.SyncRWLockWr:
		// Reader/writer locks are modeled as exclusive for lockset
		// purposes; the HB edges are exact either way.
		d.hb.Acquire(ev.Tid, ev.Addr)
		d.locks.LockAcquired(ev.Tid, ev.Addr)
	}
}

// Flush implements event.Flusher: it completes all queued shard work. The
// vm calls it when a run ends; Report and Close also flush.
func (d *Detector) Flush() {
	if d.demux != nil {
		d.demux.FlushAll()
	}
}

// Close flushes and stops the shard workers. Required after NewSharded
// with more than one shard (Prepared.Run and ReplayTrace close for you);
// idempotent and a no-op for single-threaded detectors. The detector must not Handle
// further events after Close, but Report remains valid.
func (d *Detector) Close() {
	if d.demux != nil && !d.closed {
		d.closed = true
		d.demux.Close()
	}
}

// Report finalizes and returns the run's report.
func (d *Detector) Report() *Report {
	d.Flush()
	if err := d.fault.Fire(fault.DetectMerge); err != nil {
		// Report has no error path; an injected merge failure is a
		// detector crash for the caller's containment to absorb.
		panic(err)
	}
	start := d.obs.Start()
	rep := &Report{
		Config:            d.cfg,
		Warnings:          mergeWarnings(d.shards),
		Events:            d.events,
		SpinEdges:         d.adhoc.Edges,
		SpinLoops:         d.numLoops(),
		InferredLockWords: d.adhoc.InferredLockWords(),
		ShadowBytes:       d.shadowBytes(),
	}
	for _, s := range d.shards {
		rep.ReadSetPromotions += s.promotions
		rep.ReadSetDemotions += s.demotions
		rep.GCWordsRetired += s.gcWords
		rep.GCPagesFreed += s.gcPages
		rep.GCReadSetsReclaimed += s.gcSets
	}
	hs := d.hb.Stats()
	rep.SyncEpochHits = hs.EpochHits
	rep.SyncRebases = hs.Rebases
	rep.SyncInflates = hs.Inflates
	rep.SyncObjects = d.hb.Objects()
	rep.GCCycles = d.gcCycles
	rep.GCSyncObjsRetired = d.gcSyncObjs
	rep.GCHistsBounded = d.gcHists
	d.obs.Stage(obs.TrackMerge, obs.HistMergeNs, start, int64(len(rep.Warnings)))
	if d.onWarning != nil {
		// Deliver the warnings not yet streamed inline (all of them, for a
		// sharded detector) in merged order, so the observed sequence always
		// equals rep.Warnings exactly once each.
		for _, w := range rep.Warnings[d.streamed:] {
			d.onWarning(w)
		}
		d.streamed = len(rep.Warnings)
	}
	return rep
}

func (d *Detector) numLoops() int {
	if d.ins == nil {
		return 0
	}
	return d.ins.NumLoops()
}

// shadowBytes sums the memory figure over the state partition: per-shard
// shadow pages and lockset variables (disjoint by address), the
// coordinator's held-lock state, and the shared happens-before and ad-hoc
// engines. The partition covers exactly the single-threaded detector's
// state, so the figure is independent of the shard count.
func (d *Detector) shadowBytes() int64 {
	var n int64
	for _, s := range d.shards {
		n += s.shadow.bytes()
		n += s.locks.VarBytes()
	}
	n += d.hb.Bytes()
	n += d.locks.HeldBytes()
	n += d.adhoc.Bytes()
	return n
}
