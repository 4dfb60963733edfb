// Package hb implements the happens-before engine: per-thread vector clocks
// ordered by thread lifecycle edges and release/acquire on synchronization
// objects (mutexes, condition variables, semaphores, barriers, queues).
//
// Detectors feed it the intercepted sync events of the libraries they know;
// package core feeds it the edges inferred from spinning read loops.
//
// New returns the clock store: thread clocks are the only mutable clocks,
// every published value is an immutable vc.Frozen handle (copy-on-write,
// O(1) to hand out), and sync objects run an epoch-compressed fast path —
// an object whose clock was last published by a single thread holds
// (owner, tick, a frozen base) and only inflates to a full accumulator
// clock on a cross-thread release, the object-side mirror of the
// detector's adaptive read representation. The seed full-vector-clock
// engine lives on in this package's tests (reference_test.go) as the
// oracle the store must match: the edge-case tables and a random op-stream
// matrix — including spawns, joins, exits, ForgetObject and GC cycles —
// compare every ordering the two engines produce.
package hb

import (
	"adhocrace/internal/event"
	"adhocrace/internal/obs"
	"adhocrace/internal/vc"
)

// Engine tracks the happens-before relation of one execution.
type Engine interface {
	// ClockOf returns the live clock of thread t, creating it on first use.
	// Callers may Join into it but must not retain it across engine
	// operations; durable views come from Snapshot.
	ClockOf(t event.Tid) *vc.Clock
	// Spawn orders parent before child: the child inherits the parent's
	// clock.
	Spawn(parent, child event.Tid)
	// Join orders child before parent at the join point.
	Join(parent, child event.Tid)
	// Release publishes thread t's knowledge on object obj (mutex unlock,
	// condvar signal, semaphore post, queue put).
	Release(t event.Tid, obj int64)
	// Acquire imports the object's published knowledge into thread t (mutex
	// lock, condvar wakeup, semaphore wait, queue get).
	Acquire(t event.Tid, obj int64)
	// BarrierArrive registers thread t at the barrier (the Pre side of a
	// barrier wait). All arrivals of a generation are accumulated.
	BarrierArrive(t event.Tid, obj int64)
	// BarrierLeave imports the accumulated generation clock into thread t
	// (the Post side). When every arrival has left, the generation resets.
	// A thread re-entering before the generation drains merges into the
	// next generation; that over-approximates ordering (extra edges, never
	// missing ones), the conservative direction for false-positive counts.
	BarrierLeave(t event.Tid, obj int64)
	// Snapshot returns an immutable view of thread t's current clock.
	// O(1) and allocation-free while the clock is unchanged; the engine's
	// next mutation of the clock copies first (vc.Clock.Freeze).
	Snapshot(t event.Tid) vc.Frozen
	// ForgetObject releases all engine state of a destroyed sync object
	// (its release clock and, for barriers, the generation state). Driven
	// by the destruction events of intercepted libraries; without it a
	// long-running execution's object table only ever grows.
	ForgetObject(obj int64)
	// ThreadStarted marks thread t live. Threads are live by default from
	// first use; the call matters when a tid is reused across replayed
	// windows of a long trace — it clears the exited mark so the thread
	// counts toward the quiescence watermark again.
	ThreadStarted(t event.Tid)
	// ThreadExited marks thread t exited. Exited threads drop out of the
	// quiescence watermark (their clocks stop holding retirement back), and
	// Quiesce may free their clock storage once it is dominated.
	ThreadExited(t event.Tid)
	// Watermark returns the quiescence watermark: the pointwise minimum of
	// every live thread's clock, always including thread 0's (the main
	// thread restarts across replayed windows without a spawn edge, so its
	// clock must keep holding retirement back even while it is exited). Any
	// epoch (t, k) with k <= wm[t] happens-before every event any thread
	// can still perform. Bottom when no thread has a clock yet.
	Watermark() vc.Frozen
	// Quiesce retires engine state dominated by the watermark: sync objects
	// whose published clock is <= wm (an inflated object retired this way
	// re-localizes — the next release restarts it on the epoch path), idle
	// barrier generations, and the clocks of exited non-main threads once
	// dominated (recreated on demand, provably with identical observable
	// values). Returns the number of sync objects retired.
	Quiesce(wm vc.Frozen) int64
	// Objects counts live sync-object and barrier states — the soak tests'
	// plateau gauge.
	Objects() int64
	// Stats returns the engine's representation counters (zero for an
	// engine without a compressed representation).
	Stats() Stats
	// Bytes approximates the engine's memory footprint for the memory
	// figure.
	Bytes() int64
}

// Stats counts the clock store's representation transitions — how often the
// sync side stayed on the O(1) epoch path versus falling back to full
// vector-clock work. Deterministic for a given (program, seed) stream.
type Stats struct {
	// EpochHits counts O(1) sync-object fast paths taken: same-owner
	// re-releases that only advanced the epoch tick, and acquires skipped
	// because the acquirer's clock already covered the publication.
	EpochHits int64
	// Rebases counts epoch-mode releases that re-froze the owner's clock
	// because it had imported foreign knowledge since the last publication.
	Rebases int64
	// Inflates counts sync objects inflated from the epoch representation
	// to a full accumulator clock by a cross-thread release.
	Inflates int64
}

// New returns an empty clock-store engine.
func New() Engine { return &store{} }

// objState is the clock of one sync object in the store.
//
// Epoch mode (full == nil): the object's published clock is
// base ∨ {owner: tick} — the owner's frozen clock at its last re-base,
// with the owner's component raised to its value at the last release.
// While the owner's clock imports no foreign knowledge (vc.Clock.Joins
// unchanged), consecutive releases only advance tick: O(1), no copy, no
// join. A release by a different thread inflates to full, the seed
// representation, which joins in place from then on. The lattice is
// one-way — epoch → rebased epoch → full — matching the read side's
// epoch → read-set promotion.
type objState struct {
	owner     event.Tid
	tick      uint64
	base      vc.Frozen
	baseJoins uint64
	full      *vc.Clock
}

type barrierState struct {
	// pendingF carries a generation's first arrival as a frozen handle —
	// the epoch-mode analogue for the (common in generated workloads)
	// single-arrival prefix. A second arrival inflates into acc, which is
	// recycled across generations.
	pendingF vc.Frozen
	acc      *vc.Clock
	inflated bool
	arrivals int
	leaves   int
}

// store is the production engine. Thread clocks are mutable and owned here;
// everything published — snapshots, object bases, barrier pendings — is a
// frozen handle. Maps are allocated lazily: most runs of the accuracy suite
// touch no barriers, and lib-less configurations touch no sync objects at
// all.
type store struct {
	threads []*vc.Clock
	// exited marks threads whose ThreadExit was seen; they drop out of the
	// watermark, and Quiesce may free their clocks (recreated on demand).
	exited   []bool
	objs     map[int64]*objState
	barriers map[int64]*barrierState
	stats    Stats
	// obs, when set, observes the sync slow path live (inflation events);
	// the O(1) epoch fast path carries no probe at all.
	obs *obs.Pipeline
}

// SetObs attaches an observability pipeline to the store. The detector
// coordinator calls it (via an interface assertion, so engines without
// probes need no hook) before any events flow.
func (e *store) SetObs(p *obs.Pipeline) { e.obs = p }

// ClockOf returns the clock of thread t, creating it on first use. A slot
// freed by Quiesce is recreated the same way — sound because Quiesce only
// frees clocks dominated by the watermark, so a fresh clock joined through
// any live parent reproduces the exact values the retained clock would
// have produced.
func (e *store) ClockOf(t event.Tid) *vc.Clock {
	i := int(t)
	for len(e.threads) <= i {
		fresh := vc.New()
		fresh.Tick(len(e.threads)) // each thread starts with its own component at 1
		e.threads = append(e.threads, fresh)
	}
	if e.threads[i] == nil {
		fresh := vc.New()
		fresh.Tick(i)
		e.threads[i] = fresh
	}
	return e.threads[i]
}

func (e *store) ThreadStarted(t event.Tid) {
	e.ClockOf(t)
	if int(t) < len(e.exited) {
		e.exited[t] = false
	}
}

func (e *store) ThreadExited(t event.Tid) {
	i := int(t)
	for len(e.exited) <= i {
		e.exited = append(e.exited, false)
	}
	e.exited[i] = true
}

func (e *store) Watermark() vc.Frozen {
	views := make([]vc.Frozen, 0, len(e.threads))
	for i, c := range e.threads {
		if c == nil {
			continue
		}
		if i == 0 || i >= len(e.exited) || !e.exited[i] {
			views = append(views, c.Freeze())
		}
	}
	return vc.MeetFrozen(views)
}

func (e *store) Quiesce(wm vc.Frozen) int64 {
	var retired int64
	for obj, s := range e.objs {
		dominated := false
		if s.full != nil {
			dominated = s.full.LessOrEqualFrozen(wm)
		} else {
			dominated = s.tick <= wm.Get(int(s.owner)) && s.base.LessOrEqual(wm)
		}
		if dominated {
			delete(e.objs, obj)
			retired++
		}
	}
	for obj, b := range e.barriers {
		// Between generations the barrier holds no ordering at all —
		// arrive on a missing state recreates exactly this empty state, so
		// idle generations retire unconditionally.
		if b.arrivals == 0 && b.leaves == 0 {
			delete(e.barriers, obj)
			retired++
		}
	}
	// Never free thread 0: main restarts across replayed windows via
	// ThreadStart without a spawn edge, so its clock is the only carrier of
	// tick continuity for tid 0. Every other tid is recreated through
	// Spawn, which joins a live parent's clock (>= wm by monotonicity).
	for i := 1; i < len(e.threads) && i < len(e.exited); i++ {
		c := e.threads[i]
		if c != nil && e.exited[i] && c.LessOrEqualFrozen(wm) {
			e.threads[i] = nil
		}
	}
	return retired
}

func (e *store) Objects() int64 {
	return int64(len(e.objs) + len(e.barriers))
}

func (e *store) Spawn(parent, child event.Tid) {
	pc := e.ClockOf(parent)
	cc := e.ClockOf(child)
	cc.Join(pc)
	pc.Tick(int(parent))
	cc.Tick(int(child))
}

func (e *store) Join(parent, child event.Tid) {
	pc := e.ClockOf(parent)
	pc.Join(e.ClockOf(child))
	pc.Tick(int(parent))
}

func (e *store) Release(t event.Tid, obj int64) {
	tc := e.ClockOf(t)
	s := e.objs[obj]
	switch {
	case s == nil:
		if e.objs == nil {
			e.objs = make(map[int64]*objState)
		}
		e.objs[obj] = &objState{
			owner: t, tick: tc.Get(int(t)),
			base: tc.Freeze(), baseJoins: tc.Joins(),
		}
	case s.full != nil:
		// Inflated: the seed path, joining in place.
		s.full.Join(tc)
	case s.owner == t:
		if tc.Joins() == s.baseJoins {
			// Only own ticks since the base was frozen: the publication is
			// still base ∨ {t: now}. O(1), no copy, no join.
			s.tick = tc.Get(int(t))
			e.stats.EpochHits++
		} else {
			// The owner imported foreign knowledge; its whole current clock
			// supersedes the old publication (clocks are monotonic), so
			// re-base instead of joining.
			s.base = tc.Freeze()
			s.baseJoins = tc.Joins()
			s.tick = tc.Get(int(t))
			e.stats.Rebases++
		}
	default:
		// Cross-thread release: materialize the old publication and join
		// the new releaser — the epoch → full inflation.
		full := s.base.Thaw()
		if full.Get(int(s.owner)) < s.tick {
			full.Set(int(s.owner), s.tick)
		}
		full.Join(tc)
		s.full = full
		s.base = vc.Frozen{}
		e.stats.Inflates++
		e.obs.Add(obs.CtrHBInflates, 1)
		e.obs.Instant(obs.TrackHB, "inflate", obj)
	}
	tc.Tick(int(t))
}

func (e *store) Acquire(t event.Tid, obj int64) {
	s := e.objs[obj]
	if s == nil {
		return
	}
	tc := e.ClockOf(t)
	if s.full != nil {
		tc.Join(s.full)
		return
	}
	if tc.Get(int(s.owner)) >= s.tick {
		// The acquirer has already synchronized with the owner at or after
		// the publishing release, so the publication is covered: c[u] >= k
		// means u's event at tick k happens-before the acquirer's current
		// point, and everything in u's clock at that event is below it.
		e.stats.EpochHits++
		return
	}
	tc.JoinPub(s.base, int(s.owner), s.tick)
}

func (e *store) BarrierArrive(t event.Tid, obj int64) {
	bs := e.barriers[obj]
	if bs == nil {
		if e.barriers == nil {
			e.barriers = make(map[int64]*barrierState)
		}
		bs = &barrierState{}
		e.barriers[obj] = bs
	}
	tc := e.ClockOf(t)
	if bs.arrivals == 0 && !bs.inflated {
		bs.pendingF = tc.Freeze()
	} else {
		if !bs.inflated {
			if bs.acc == nil {
				bs.acc = vc.New()
			}
			bs.acc.JoinFrozen(bs.pendingF)
			bs.pendingF = vc.Frozen{}
			bs.inflated = true
		}
		bs.acc.Join(tc)
	}
	bs.arrivals++
	tc.Tick(int(t))
}

func (e *store) BarrierLeave(t event.Tid, obj int64) {
	bs := e.barriers[obj]
	if bs == nil {
		return
	}
	if bs.inflated {
		e.ClockOf(t).Join(bs.acc)
	} else if bs.arrivals > 0 {
		e.ClockOf(t).JoinFrozen(bs.pendingF)
	}
	bs.leaves++
	if bs.leaves >= bs.arrivals {
		bs.pendingF = vc.Frozen{}
		bs.arrivals = 0
		bs.leaves = 0
		if bs.inflated {
			bs.acc.Reset() // recycle the accumulator for the next generation
			bs.inflated = false
		}
	}
}

func (e *store) Snapshot(t event.Tid) vc.Frozen {
	return e.ClockOf(t).Freeze()
}

func (e *store) ForgetObject(obj int64) {
	delete(e.objs, obj)
	delete(e.barriers, obj)
}

func (e *store) Stats() Stats { return e.stats }

// Bytes approximates the engine's footprint under the seed cost model, so
// the memory figures stay comparable across clock representations: an
// epoch-mode object is charged what its materialized clock would cost.
func (e *store) Bytes() int64 {
	var n int64
	for _, c := range e.threads {
		if c != nil {
			n += c.Bytes()
		}
	}
	for _, s := range e.objs {
		if s.full != nil {
			n += s.full.Bytes() + 16
		} else {
			l := s.base.Len()
			if int(s.owner)+1 > l {
				l = int(s.owner) + 1
			}
			n += int64(l)*8 + 24 + 16
		}
	}
	for _, b := range e.barriers {
		if b.inflated {
			n += b.acc.Bytes() + 32
		} else {
			n += b.pendingF.Bytes() + 32
		}
	}
	return n
}
