package detect

import (
	"fmt"
	"math"
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
	// concurrent reads were observed (see readstate.go); a measure of how
	// often the FastTrack fast path does not suffice. Deterministic for a
	// given (program, tool, seed) run, independent of the pipeline mode.
	ReadSetPromotions int64
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
	// GC counters (see gc.go; all zero on a stream shorter than
	// GCPeriod events, which never reaches a cycle). Like
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
// whole hot path is allocation-free — the write side is an epoch, the
// read side is the adaptive FastTrack representation of readState, which
// allocates only on promotion to a read-set (and then from the detector's
// pool), and the lockset state allocates only when its candidate set
// shrinks to a proper subset of the held set.
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

	// ls is the cell's Eraser lockset state (Eraser and the hybrid tools;
	// it stays Virgin under DRD).
	ls lockset.Var

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

// Detector consumes one execution's event stream: one shadow table (which
// carries each cell's lockset state), one held-lock tracker, and the
// happens-before and ad-hoc engines, all driven on one goroutine at a
// time: the producer's (the vm's, or a trace decoder's), or, once a run's
// stream is long, the overlap pipeline's consumer. Each access reads the
// accessing thread's live clock and held-lock set in place.
type Detector struct {
	cfg Config

	hb    hb.Engine
	adhoc *core.Engine
	locks *lockset.Tracker

	shadow *shadowMem
	// reportedSite supports per-(addr,loc) deduplication (DRD).
	reportedSite map[siteKey]bool
	// promotions counts epoch → read-set transitions.
	promotions int64

	warnings []Warning
	// onWarning is RunOpts.OnWarning, called as each warning is appended:
	// append order is report order.
	onWarning func(Warning)

	// closed is set by Close, which returns the shadow pages to the pool
	// after recording their footprint in closedShadowBytes for Report.
	closed            bool
	closedShadowBytes int64

	events int64
	// plainLeft counts the events Handle still applies itself; at zero it
	// hands every further event to pipe, the run's overlap pipeline
	// (Prepared.NewRun sets both from pipe.Plain), whose consumer applies
	// them. A detector built by New alone has no pipe and starts the count
	// at math.MaxInt, which no stream reaches.
	plainLeft int
	pipe      *event.Segmented
	ins       *spin.Instrumentation

	// Quiescence GC schedule and counters (see gc.go): a cycle runs every
	// gcEvery events, GCPeriod unless a test's RunOpts sets another.
	gcEvery                  int64
	nextGC                   int64
	gcCycles                 int64
	gcSyncObjs               int64
	gcHists                  int64
	gcWords, gcPages, gcSets int64

	// obs, when set, observes the detection side: GC cycles, report merge
	// time, and (through the hb engine) inflation activity. The per-access
	// hot path carries no probe.
	obs *obs.Pipeline
	// fault, when set, arms the detection-side failpoints (merge, GC
	// cycle). Like obs, the per-access hot path carries no site —
	// injections are stage-granular. Nil keeps every site a nil-check.
	fault *fault.Registry
}

type siteKey struct {
	addr int64
	loc  ir.LocID
}

// New builds a detector for one run. The instrumentation must be the one
// produced by cfg.Instrument on the program being executed (nil when the
// spin feature is off); the program supplies the static symbol table for
// sync-variable resolution. The detector runs a quiescence GC cycle
// every GCPeriod events (gc.go), so only a long stream ever reaches one.
// Close the detector when done to recycle its shadow pages (Prepared.Run
// and ReplayTrace do this for you).
func New(cfg Config, ins *spin.Instrumentation, prog *ir.Program) *Detector {
	h := hb.New()
	adhoc := core.New(h, ins, prog)
	adhoc.InferLocks = cfg.InferLocks
	return &Detector{
		cfg:          cfg,
		hb:           h,
		adhoc:        adhoc,
		locks:        lockset.NewTracker(),
		shadow:       newShadowMem(),
		reportedSite: make(map[siteKey]bool),
		plainLeft:    math.MaxInt,
		ins:          ins,
		gcEvery:      GCPeriod,
		nextGC:       GCPeriod,
	}
}

// NewSharded is New; the shard count is ignored.
//
// Deprecated: detectors are single-threaded; use New.
func NewSharded(cfg Config, ins *spin.Instrumentation, prog *ir.Program, _ int) *Detector {
	return New(cfg, ins, prog)
}

// setObs attaches an observability pipeline to the detector and (when the
// engine supports it) the hb clock store. Must be called before the first
// event; nil is the default and keeps every probe a nil-check.
func (d *Detector) setObs(p *obs.Pipeline) {
	d.obs = p
	if eng, ok := d.hb.(interface{ SetObs(*obs.Pipeline) }); ok {
		eng.SetObs(p)
	}
}

// Handle implements event.Sink. It applies the event on the caller's
// goroutine until the run's overlap pipeline takes over (Prepared.NewRun),
// then hands it to the pipeline, whose consumer applies it through
// applier.Handle. The plain path costs one counter compare and decrement
// in front of the dispatch.
func (d *Detector) Handle(ev *event.Event) {
	if d.plainLeft == 0 {
		d.pipe.Handle(ev)
		return
	}
	d.plainLeft--
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
		d.onSyncPre(ev)
	case event.KindSyncPost:
		d.onSyncPost(ev)
	case event.KindSpawn:
		d.hb.Spawn(ev.Tid, ev.Child)
	case event.KindJoin:
		d.hb.Join(ev.Tid, ev.Child)
	case event.KindSpinRead:
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
	if d.events >= d.nextGC {
		d.collectGarbage()
	}
}

// Flush implements event.Flusher: once the overlap pipeline has started,
// it waits until the consumer has applied every event handed over.
func (d *Detector) Flush() {
	if d.pipe != nil {
		d.pipe.Flush()
	}
}

// applier is the detector as its pipeline's downstream sink, driven on
// the consumer goroutine: Handle's dispatch without the hand-off check.
type applier Detector

func (a *applier) Handle(ev *event.Event) {
	d := (*Detector)(a)
	d.events++
	switch ev.Kind {
	case event.KindRead, event.KindWrite, event.KindAtomicRead, event.KindAtomicWrite:
		d.onAccess(ev)
	case event.KindSyncPre:
		if ev.Sync == ir.SyncDestroy {
			d.hb.ForgetObject(ev.Addr)
			return
		}
		d.onSyncPre(ev)
	case event.KindSyncPost:
		d.onSyncPost(ev)
	case event.KindSpawn:
		d.hb.Spawn(ev.Tid, ev.Child)
	case event.KindJoin:
		d.hb.Join(ev.Tid, ev.Child)
	case event.KindSpinRead:
		d.adhoc.OnSpinRead(ev)
	case event.KindSpinExit:
		d.adhoc.OnSpinExit(ev)
	case event.KindThreadStart:
		d.hb.ThreadStarted(ev.Tid)
	case event.KindThreadExit:
		d.hb.ThreadExited(ev.Tid)
	}
	if d.events >= d.nextGC {
		d.collectGarbage()
	}
}

func (d *Detector) onAccess(ev *event.Event) {
	if d.cfg.Tool == DRDTool && d.cfg.AtomicsInvisible && ev.Kind.IsAtomic() {
		// DRD excludes atomic accesses from race checking entirely; they
		// neither race nor pair against plain accesses.
		return
	}
	d.access(ev, d.events, d.hb.ClockOf(ev.Tid))
	if ev.Kind.IsWrite() {
		// After the shadow update: a release-relevant write snapshots the
		// writer's clock into the address's release history.
		d.adhoc.OnWrite(ev)
	}
}

// onSyncPre handles the Pre half of a sync event other than destruction,
// if the tool supports it.
func (d *Detector) onSyncPre(ev *event.Event) {
	if !d.cfg.supportsSync(ev.Sync) {
		return
	}
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

// onSyncPost handles the Post half of a sync event the tool supports.
func (d *Detector) onSyncPost(ev *event.Event) {
	if ev.Sync == ir.SyncDestroy || !d.cfg.supportsSync(ev.Sync) {
		return
	}
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

// Close stops the overlap pipeline's consumer, if one started, and
// returns the shadow pages to the pool shared by all detectors. Every
// detector should be closed when done (Prepared.Run and ReplayTrace close
// for you); one left unclosed keeps its pages for the garbage collector
// instead of recycling them. Idempotent. The detector must not Handle
// further events after Close, but Report remains valid and reports the
// footprint at Close. A consumer-side panic not yet re-raised surfaces
// here, after the pages are released.
func (d *Detector) Close() {
	if d.closed {
		return
	}
	d.closed = true
	defer func() {
		d.closedShadowBytes = d.shadowBytes()
		d.shadow.release()
	}()
	if d.pipe != nil {
		d.pipe.Close()
	}
}

// Report finalizes and returns the run's report.
func (d *Detector) Report() *Report {
	if err := d.fault.Fire(fault.DetectMerge); err != nil {
		// Report has no error path; an injected merge failure is a
		// detector crash for the caller's containment to absorb.
		panic(err)
	}
	start := d.obs.Start()
	rep := &Report{
		Config:              d.cfg,
		Warnings:            d.warnings,
		Events:              d.events,
		SpinEdges:           d.adhoc.Edges,
		SpinLoops:           d.numLoops(),
		InferredLockWords:   d.adhoc.InferredLockWords(),
		ShadowBytes:         d.closedShadowBytes,
		ReadSetPromotions:   d.promotions,
		GCCycles:            d.gcCycles,
		GCWordsRetired:      d.gcWords,
		GCPagesFreed:        d.gcPages,
		GCReadSetsReclaimed: d.gcSets,
		GCSyncObjsRetired:   d.gcSyncObjs,
		GCHistsBounded:      d.gcHists,
	}
	if !d.closed {
		rep.ShadowBytes = d.shadowBytes()
	}
	hs := d.hb.Stats()
	rep.SyncEpochHits = hs.EpochHits
	rep.SyncRebases = hs.Rebases
	rep.SyncInflates = hs.Inflates
	rep.SyncObjects = d.hb.Objects()
	d.obs.Stage(obs.TrackMerge, obs.HistMergeNs, start, int64(len(rep.Warnings)))
	return rep
}

func (d *Detector) numLoops() int {
	if d.ins == nil {
		return 0
	}
	return d.ins.NumLoops()
}

// shadowBytes sums the memory figure: shadow pages, lockset state, and the
// happens-before and ad-hoc engines.
func (d *Detector) shadowBytes() int64 {
	return d.shadow.bytes() + d.locks.Bytes() + d.hb.Bytes() + d.adhoc.Bytes()
}
