package synth

import (
	"fmt"
	"sort"

	"adhocrace/internal/event"
	"adhocrace/internal/hb"
	"adhocrace/internal/ir"
	"adhocrace/internal/vc"
)

// Preset names, in report order: the short names detect.Preset resolves
// to the presets a synth corpus runs (spin = Helgrind+ lib+spin at the
// corpus's window, lib = Helgrind+ lib, drd = DRD, eraser = Eraser).
var PresetNames = []string{"spin", "lib", "drd", "eraser"}

// Expect is the oracle's prediction for one (fragment, preset) pair.
type Expect struct {
	// Warn is whether the preset is expected to warn on the fragment's
	// variables.
	Warn bool
	// Proximity marks predictions that depend on event-stream proximity
	// (DRD's bounded segment history pairs only accesses that land within
	// 2000 events of each other, which depends on scheduler interleaving).
	// Proximity mismatches are tallied separately, as scheduling variance
	// rather than tool bugs; they are asserted in aggregate over a corpus.
	Proximity bool
}

// Expectations returns the oracle's per-preset prediction for a fragment
// kind. Every entry is backed by a happens-before argument:
//
//   - spin (Helgrind+ lib+spin(7)) resolves every within-model fragment
//     exactly: classified loops inject the flag-transfer edge and their
//     condition words are suppressed as sync variables. The one excluded
//     kind (spin-retry) is a documented false positive — the classifier
//     rejects induction-variable conditions, so no edge is injected.
//   - lib (Helgrind+ lib) sees no ad-hoc edges at all: every spin kind is
//     a false positive. Its atomic sync-variable heuristic suppresses any
//     address ever accessed atomically, which hides the racy-atomic-mix
//     race (the paper's recovered false negative).
//   - drd has no barrier model (FP on barrier), a bounded access history
//     (FN on window-separated races), and atomics are invisible to it
//     (clean on atomic-flag hand-offs whose data accesses are window-
//     separated; FN on racy-atomic-mix). Plain-flag spin loops poll the
//     flag right up to the releasing store, so those false positives are
//     within any history window.
//   - eraser is pure lockset: every fragment whose writes are not
//     consistently lock-protected warns, racy or not.
func Expectations(k Kind) map[string]Expect {
	no := Expect{}
	yes := Expect{Warn: true}
	prox := Expect{Warn: true, Proximity: true}
	switch k {
	case KindSpinPlain:
		return map[string]Expect{"spin": no, "lib": yes, "drd": prox, "eraser": yes}
	case KindSpinAtomic:
		// The writer's filler sits between its data touch and the flag
		// raise in program order, so the conflicting data accesses are
		// stream-separated beyond DRD's history in every interleaving.
		return map[string]Expect{"spin": no, "lib": yes, "drd": no, "eraser": yes}
	case KindSpinRetry:
		return map[string]Expect{"spin": yes, "lib": yes, "drd": prox, "eraser": yes}
	case KindSpinDoubleChecked:
		return map[string]Expect{"spin": no, "lib": yes, "drd": prox, "eraser": yes}
	case KindSpinFlagReuse:
		return map[string]Expect{"spin": no, "lib": yes, "drd": prox, "eraser": yes}
	case KindLock:
		return map[string]Expect{"spin": no, "lib": no, "drd": no, "eraser": no}
	case KindCondvar:
		return map[string]Expect{"spin": no, "lib": no, "drd": no, "eraser": no}
	case KindBarrier:
		return map[string]Expect{"spin": no, "lib": no, "drd": prox, "eraser": yes}
	case KindRacyPlain:
		return map[string]Expect{"spin": yes, "lib": yes, "drd": prox, "eraser": yes}
	case KindRacyAdhoc:
		return map[string]Expect{"spin": yes, "lib": yes, "drd": prox, "eraser": yes}
	case KindRacyWindow:
		// The slow thread's filler precedes its touch in program order, so
		// the conflicting accesses are stream-separated unless the fast
		// thread is starved for the entire filler — possible in principle,
		// hence Proximity on the expected miss.
		return map[string]Expect{"spin": yes, "lib": yes, "drd": Expect{Proximity: true}, "eraser": yes}
	case KindRacyAtomicMix:
		return map[string]Expect{"spin": yes, "lib": no, "drd": no, "eraser": yes}
	default:
		panic(fmt.Sprintf("synth: no expectations for kind %d", k))
	}
}

// OracleLibs returns the libraries an oracle's execution intercepts:
// pthread, GLIB and OpenMP.
func OracleLibs() map[ir.LibTag]bool {
	return map[ir.LibTag]bool{ir.LibPthread: true, ir.LibGlib: true, ir.LibOMP: true}
}

// Violations returns one message per disagreement between the workload's
// declared labels and the execution the oracle observed; seed names the
// execution in the messages.
func (o *Oracle) Violations(seed int64) []string {
	var bad []string
	syms := make([]string, 0, len(o.racyObserved))
	declared := make(map[string]bool)
	for _, v := range o.w.Vars {
		if v.Role == RoleData {
			declared[v.Sym] = v.Racy
			syms = append(syms, v.Sym)
		}
	}
	sort.Strings(syms)
	for _, sym := range syms {
		if declared[sym] != o.racyObserved[sym] {
			bad = append(bad, fmt.Sprintf("%s: declared racy=%v, observed racy=%v (seed %d)",
				sym, declared[sym], o.racyObserved[sym], seed))
		}
	}
	return bad
}

// oracleShadow is the per-address race-check state of the oracle sink.
type oracleShadow struct {
	wSeen   bool
	wTid    event.Tid
	wTick   uint64
	wAtomic bool
	// reads holds, per thread, the clock component of its last read,
	// split by atomicity (two atomic accesses never race).
	reads       *vc.Clock
	readsAtomic *vc.Clock
}

// Oracle is the ground-truth happens-before engine, an event.Sink fed one
// execution of a workload intercepting OracleLibs — in the synth corpus,
// one more consumer of the presets' run (detect.View): library sync and
// spawn/join edges like any detector, plus value-transfer edges on the
// generator's flag words — knowledge no black-box tool has — and an exact
// race check of every RoleData variable. A read observing value v of a
// flag word joins the clock of the write that published v.
type Oracle struct {
	w     *Workload
	hb    hb.Engine
	flags map[int64]bool // flag-word addresses
	data  map[int64]string
	// release maps (flag addr, written value) to the publishing clock — a
	// frozen handle of the happens-before engine, never a copy.
	release map[int64]map[int64]vc.Frozen
	shadow  map[int64]*oracleShadow

	racyObserved map[string]bool
}

// NewOracle returns a fresh oracle for one execution of w.
func NewOracle(w *Workload) *Oracle {
	o := &Oracle{
		w:            w,
		hb:           hb.New(),
		flags:        make(map[int64]bool),
		data:         make(map[int64]string),
		release:      make(map[int64]map[int64]vc.Frozen),
		shadow:       make(map[int64]*oracleShadow),
		racyObserved: make(map[string]bool),
	}
	for _, v := range w.Vars {
		for i := 0; i < v.Words; i++ {
			addr := v.Addr + int64(i)*8
			switch v.Role {
			case RoleFlag:
				o.flags[addr] = true
			case RoleData:
				o.data[addr] = v.Sym
			}
		}
	}
	return o
}

// Handle implements event.Sink.
func (o *Oracle) Handle(ev *event.Event) {
	switch ev.Kind {
	case event.KindSpawn:
		o.hb.Spawn(ev.Tid, ev.Child)
	case event.KindJoin:
		o.hb.Join(ev.Tid, ev.Child)
	case event.KindSyncPre:
		switch ev.Sync {
		case ir.SyncMutexUnlock, ir.SyncCondSignal, ir.SyncSemPost, ir.SyncQueuePut, ir.SyncRWUnlock:
			o.hb.Release(ev.Tid, ev.Addr)
		case ir.SyncCondWait:
			o.hb.Release(ev.Tid, ev.Addr2)
		case ir.SyncBarrierWait:
			o.hb.BarrierArrive(ev.Tid, ev.Addr)
		}
	case event.KindSyncPost:
		switch ev.Sync {
		case ir.SyncMutexLock, ir.SyncSemWait, ir.SyncQueueGet, ir.SyncOnceEnter,
			ir.SyncRWLockRd, ir.SyncRWLockWr:
			o.hb.Acquire(ev.Tid, ev.Addr)
		case ir.SyncCondWait:
			o.hb.Acquire(ev.Tid, ev.Addr)
			o.hb.Acquire(ev.Tid, ev.Addr2)
		case ir.SyncBarrierWait:
			o.hb.BarrierLeave(ev.Tid, ev.Addr)
		}
	case event.KindRead, event.KindAtomicRead:
		if o.flags[ev.Addr] {
			// Ground-truth flag protocol: observing value v means reading
			// the write that published v, so the publisher's clock at that
			// write happens-before everything after this read.
			if rel, ok := o.release[ev.Addr][ev.Value]; ok {
				o.hb.ClockOf(ev.Tid).JoinFrozen(rel)
			}
			return
		}
		o.check(ev, false)
	case event.KindWrite, event.KindAtomicWrite:
		if o.flags[ev.Addr] {
			m := o.release[ev.Addr]
			if m == nil {
				m = make(map[int64]vc.Frozen)
				o.release[ev.Addr] = m
			}
			m[ev.Value] = o.hb.Snapshot(ev.Tid)
			o.hb.ClockOf(ev.Tid).Tick(int(ev.Tid))
			return
		}
		o.check(ev, true)
	}
}

// check runs the exact happens-before race check on a data access.
func (o *Oracle) check(ev *event.Event, isWrite bool) {
	sym, tracked := o.data[ev.Addr]
	if !tracked {
		return
	}
	isAtomic := ev.Kind.IsAtomic()
	s := o.shadow[ev.Addr]
	if s == nil {
		s = &oracleShadow{}
		o.shadow[ev.Addr] = s
	}
	clock := o.hb.ClockOf(ev.Tid)
	racy := false
	if s.wSeen && s.wTid != ev.Tid && s.wTick > clock.Get(int(s.wTid)) && !(isAtomic && s.wAtomic) {
		racy = true
	}
	if isWrite && !racy {
		racy = oracleReadConflict(s.reads, ev.Tid, clock) ||
			(!isAtomic && oracleReadConflict(s.readsAtomic, ev.Tid, clock))
	}
	if racy {
		o.racyObserved[sym] = true
	}
	if isWrite {
		s.wSeen = true
		s.wTid = ev.Tid
		s.wTick = clock.Get(int(ev.Tid))
		s.wAtomic = isAtomic
	} else {
		rc := &s.reads
		if isAtomic {
			rc = &s.readsAtomic
		}
		if *rc == nil {
			*rc = vc.New()
		}
		(*rc).Set(int(ev.Tid), clock.Get(int(ev.Tid)))
	}
}

func oracleReadConflict(rc *vc.Clock, tid event.Tid, clock *vc.Clock) bool {
	if rc == nil {
		return false
	}
	for i := 0; i < rc.Len(); i++ {
		if event.Tid(i) == tid {
			continue
		}
		if rt := rc.Get(i); rt > 0 && rt > clock.Get(i) {
			return true
		}
	}
	return false
}
