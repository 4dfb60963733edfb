package hb

import (
	"adhocrace/internal/event"
	"adhocrace/internal/vc"
)

// Reference engine: the seed full-vector-clock implementation, kept
// verbatim as the oracle the clock store is checked against — the
// edge-case tables and the random op-stream matrix in hb_test.go compare
// every ordering the two engines produce. Every sync object holds a
// mutable full clock joined on each release; snapshots are memoized per
// (thread, clock version) copies.

// newReference returns a seed-representation engine.
func newReference() Engine {
	return &reference{
		objs:     make(map[int64]*vc.Clock),
		barriers: make(map[int64]*refBarrier),
	}
}

type refBarrier struct {
	pending  *vc.Clock
	arrivals int
	leaves   int
}

type refSnap struct {
	ver   uint64
	valid bool
	snap  vc.Frozen
}

type reference struct {
	threads  []*vc.Clock
	exited   []bool
	objs     map[int64]*vc.Clock
	barriers map[int64]*refBarrier
	// snaps memoizes Snapshot per thread, keyed by the clock's version —
	// the seed's one-copy-per-clock-change scheme (the store needs none:
	// vc.Clock.Freeze memoizes in the clock itself).
	snaps []refSnap
}

func (e *reference) ClockOf(t event.Tid) *vc.Clock {
	i := int(t)
	for len(e.threads) <= i {
		fresh := vc.New()
		fresh.Tick(len(e.threads))
		e.threads = append(e.threads, fresh)
	}
	if e.threads[i] == nil {
		fresh := vc.New()
		fresh.Tick(i)
		e.threads[i] = fresh
	}
	return e.threads[i]
}

func (e *reference) ThreadStarted(t event.Tid) {
	e.ClockOf(t)
	if int(t) < len(e.exited) {
		e.exited[t] = false
	}
}

func (e *reference) ThreadExited(t event.Tid) {
	i := int(t)
	for len(e.exited) <= i {
		e.exited = append(e.exited, false)
	}
	e.exited[i] = true
}

func (e *reference) Watermark() vc.Frozen {
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

func (e *reference) Quiesce(wm vc.Frozen) int64 {
	var retired int64
	for obj, c := range e.objs {
		if c.LessOrEqualFrozen(wm) {
			delete(e.objs, obj)
			retired++
		}
	}
	for obj, b := range e.barriers {
		if b.arrivals == 0 && b.leaves == 0 {
			delete(e.barriers, obj)
			retired++
		}
	}
	for i := 1; i < len(e.threads) && i < len(e.exited); i++ {
		c := e.threads[i]
		if c != nil && e.exited[i] && c.LessOrEqualFrozen(wm) {
			e.threads[i] = nil
			if i < len(e.snaps) {
				// A recreated clock restarts its version counter, so a
				// memoized snapshot for the freed clock could alias it.
				e.snaps[i] = refSnap{}
			}
		}
	}
	return retired
}

func (e *reference) Objects() int64 {
	return int64(len(e.objs) + len(e.barriers))
}

func (e *reference) Spawn(parent, child event.Tid) {
	pc := e.ClockOf(parent)
	cc := e.ClockOf(child)
	cc.Join(pc)
	pc.Tick(int(parent))
	cc.Tick(int(child))
}

func (e *reference) Join(parent, child event.Tid) {
	pc := e.ClockOf(parent)
	pc.Join(e.ClockOf(child))
	pc.Tick(int(parent))
}

func (e *reference) Release(t event.Tid, obj int64) {
	c := e.objs[obj]
	if c == nil {
		c = vc.New()
		e.objs[obj] = c
	}
	tc := e.ClockOf(t)
	c.Join(tc)
	tc.Tick(int(t))
}

func (e *reference) Acquire(t event.Tid, obj int64) {
	if c := e.objs[obj]; c != nil {
		e.ClockOf(t).Join(c)
	}
}

func (e *reference) BarrierArrive(t event.Tid, obj int64) {
	bs := e.barriers[obj]
	if bs == nil {
		bs = &refBarrier{pending: vc.New()}
		e.barriers[obj] = bs
	}
	tc := e.ClockOf(t)
	bs.pending.Join(tc)
	bs.arrivals++
	tc.Tick(int(t))
}

func (e *reference) BarrierLeave(t event.Tid, obj int64) {
	bs := e.barriers[obj]
	if bs == nil {
		return
	}
	e.ClockOf(t).Join(bs.pending)
	bs.leaves++
	if bs.leaves >= bs.arrivals {
		bs.pending = vc.New()
		bs.arrivals = 0
		bs.leaves = 0
	}
}

// Snapshot returns a frozen copy of thread t's current clock, memoized per
// (thread, clock version): consecutive snapshots of an unchanged clock
// return views of the same copy.
func (e *reference) Snapshot(t event.Tid) vc.Frozen {
	c := e.ClockOf(t)
	i := int(t)
	for len(e.snaps) <= i {
		e.snaps = append(e.snaps, refSnap{})
	}
	if s := &e.snaps[i]; s.valid && s.ver == c.Version() {
		return s.snap
	}
	cp := c.Copy()
	e.snaps[i] = refSnap{ver: c.Version(), valid: true, snap: cp.Freeze()}
	return e.snaps[i].snap
}

func (e *reference) ForgetObject(obj int64) {
	delete(e.objs, obj)
	delete(e.barriers, obj)
}

func (e *reference) Stats() Stats { return Stats{} }

func (e *reference) Bytes() int64 {
	var n int64
	for _, c := range e.threads {
		if c != nil {
			n += c.Bytes()
		}
	}
	for _, c := range e.objs {
		n += c.Bytes() + 16
	}
	for _, b := range e.barriers {
		n += b.pending.Bytes() + 32
	}
	return n
}
