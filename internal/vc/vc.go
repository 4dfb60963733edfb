// Package vc implements vector clocks, the ordering substrate of the
// happens-before analyses (Lamport clocks generalized per thread, as used by
// Helgrind+ and DRD), plus the two compressed representations the hot paths
// run on: Epoch (a packed single-component stamp, epoch.go) and Frozen (an
// immutable structurally-shared snapshot of a Clock).
//
// # Ownership model
//
// Clock is the one mutable representation, and exactly one layer mutates
// any given Clock (the happens-before engine its thread or object belongs
// to). The detector reads a thread's live Clock in place, within one
// access; anything that keeps a clock value past the next engine operation
// holds a Frozen handle: Freeze is O(1) — it marks the clock's backing
// array as shared and hands out a view of it — and the next mutation of
// the clock copies the array first (copy-on-write), so a frozen view is
// immutable forever without the handing-out layer ever copying
// defensively. Repeated Freeze calls on an unchanged clock return views of
// the same array, so re-publishing an unchanged clock allocates nothing.
package vc

import (
	"fmt"
	"strings"
)

// Clock is a vector clock: Clock[i] is the number of relevant events thread
// i has performed. The zero value is the bottom clock (all zeros).
type Clock struct {
	ticks []uint64
	// ver counts value mutations, so derived data can be cached per version
	// instead of rebuilt per read. Joins that change nothing leave it alone.
	ver uint64
	// joins counts mutations that can change components other than one the
	// mutator owns (Join/Set, not Tick). The happens-before engine's
	// epoch-mode sync objects use it to detect "only own ticks since the
	// last publication", the release fast path's licensing condition.
	joins uint64
	// shared marks the backing array as aliased by at least one Frozen
	// view; the next mutation copies before writing (copy-on-write).
	shared bool
}

// Version identifies the clock's current value: it changes whenever the
// clock's components do, and only then. Two reads of the same clock with
// equal versions observed the same value.
func (c *Clock) Version() uint64 { return c.ver }

// Joins counts the mutations that imported foreign components (Join,
// JoinFrozen, JoinPub, Set) — everything except the owner's own Tick. See
// the epoch fast path in package hb for the use.
func (c *Clock) Joins() uint64 { return c.joins }

// New returns an empty clock.
func New() *Clock { return &Clock{} }

// ensureWritable makes the backing array safe to mutate through index i:
// it unshares a frozen array and grows a short one, in one allocation.
func (c *Clock) ensureWritable(i int) {
	need := i + 1
	if !c.shared {
		if need <= len(c.ticks) {
			return
		}
		if need <= cap(c.ticks) {
			// A freshly allocated (and therefore zeroed) tail within
			// capacity: extend in place. Frozen views never alias spare
			// capacity — they capture exactly the length at freeze time and
			// the array is copied whole on the first post-freeze mutation —
			// so the tail is writable.
			c.ticks = c.ticks[:need]
			return
		}
	}
	n := len(c.ticks)
	if need > n {
		n = need
	}
	capacity := n
	if need > cap(c.ticks) && capacity < 2*cap(c.ticks) {
		capacity = 2 * cap(c.ticks) // amortize genuine growth, not unsharing
	}
	if capacity < 4 {
		capacity = 4
	}
	fresh := make([]uint64, n, capacity)
	copy(fresh, c.ticks)
	c.ticks = fresh
	c.shared = false
}

// Get returns the component for thread i.
func (c *Clock) Get(i int) uint64 {
	if i >= 0 && i < len(c.ticks) {
		return c.ticks[i]
	}
	return 0
}

// Set sets the component for thread i.
func (c *Clock) Set(i int, v uint64) {
	if c.Get(i) == v {
		return
	}
	c.ensureWritable(i)
	c.ticks[i] = v
	c.ver++
	c.joins++
}

// Tick increments the component for thread i and returns the new value.
// Tick is the owner's own-progress mutation: it bumps the version but not
// the join counter.
func (c *Clock) Tick(i int) uint64 {
	c.ensureWritable(i)
	c.ticks[i]++
	c.ver++
	return c.ticks[i]
}

// Join merges other into c (pointwise max).
func (c *Clock) Join(other *Clock) {
	if other == nil {
		return
	}
	c.join(other.ticks)
}

// JoinFrozen merges a frozen view into c (pointwise max).
func (c *Clock) JoinFrozen(f Frozen) { c.join(f.ticks) }

// join is the shared pointwise-max body: a read-only change scan first, so
// no-op joins neither unshare nor grow the clock.
func (c *Clock) join(other []uint64) {
	top := -1
	for i, v := range other {
		if v > c.Get(i) {
			top = i
		}
	}
	if top < 0 {
		return
	}
	c.ensureWritable(top)
	for i := 0; i <= top; i++ {
		if other[i] > c.ticks[i] {
			c.ticks[i] = other[i]
		}
	}
	c.ver++
	c.joins++
}

// JoinPub merges a publication expressed in the happens-before engine's
// epoch-compressed object form — base ∨ {tid: tick}, the publisher's frozen
// base clock with its own component raised to tick — in one pass.
func (c *Clock) JoinPub(base Frozen, tid int, tick uint64) {
	top := -1
	for i, v := range base.ticks {
		if v > c.Get(i) {
			top = i
		}
	}
	if tick > c.Get(tid) && tid > top {
		top = tid
	}
	if top < 0 {
		return
	}
	c.ensureWritable(top)
	// Write only up to top: base may carry trailing zero components (a
	// frozen view of a Reset clock keeps its length) that c need not
	// cover, and zeros never win a max anyway.
	n := len(base.ticks)
	if n > top+1 {
		n = top + 1
	}
	for i := 0; i < n; i++ {
		if base.ticks[i] > c.ticks[i] {
			c.ticks[i] = base.ticks[i]
		}
	}
	// tid is within bounds whenever its component needs raising (top was
	// extended to cover it); a covered publication may leave it beyond.
	if tid < len(c.ticks) && tick > c.ticks[tid] {
		c.ticks[tid] = tick
	}
	c.ver++
	c.joins++
}

// Reset returns the clock to bottom, reusing the backing array when it is
// privately owned — the accumulator-recycling path of barrier generations.
func (c *Clock) Reset() {
	if c.shared {
		c.ticks = nil
		c.shared = false
	} else {
		for i := range c.ticks {
			c.ticks[i] = 0
		}
	}
	c.ver++
	c.joins++
}

// Copy returns an independent mutable copy of c.
func (c *Clock) Copy() *Clock {
	out := &Clock{ticks: make([]uint64, len(c.ticks))}
	copy(out.ticks, c.ticks)
	return out
}

// Freeze returns an immutable view of the clock's current value. O(1): the
// view shares the backing array, and the clock's next mutation copies
// first. Freezing an unchanged clock repeatedly returns views of the same
// array — the interning that makes repeated publications of an unchanged
// clock free.
func (c *Clock) Freeze() Frozen {
	c.shared = true
	return Frozen{ticks: c.ticks}
}

// LessOrEqual reports whether c happens-before-or-equals other
// (pointwise <=).
func (c *Clock) LessOrEqual(other *Clock) bool {
	for i, v := range c.ticks {
		if v == 0 {
			continue
		}
		if other == nil || v > other.Get(i) {
			return false
		}
	}
	return true
}

// LessOrEqualFrozen reports whether c happens-before-or-equals the frozen
// view (pointwise <=) — the domination test the shadow-state GC applies to
// mutable accumulators (inflated sync objects, condition-value histories)
// against the quiescence watermark.
func (c *Clock) LessOrEqualFrozen(f Frozen) bool {
	for i, v := range c.ticks {
		if v > 0 && v > f.Get(i) {
			return false
		}
	}
	return true
}

// MeetFrozen returns the pointwise minimum of the given views — the
// greatest clock value dominated by every one of them. The result's length
// is the shortest input's length, because a missing component reads as 0
// and 0 always wins the min. No views at all yield bottom: with nothing to
// dominate below, nothing may be retired.
func MeetFrozen(views []Frozen) Frozen {
	if len(views) == 0 {
		return Frozen{}
	}
	n := views[0].Len()
	for _, v := range views[1:] {
		if v.Len() < n {
			n = v.Len()
		}
	}
	ticks := make([]uint64, n)
	for i := 0; i < n; i++ {
		min := views[0].ticks[i]
		for _, v := range views[1:] {
			if v.ticks[i] < min {
				min = v.ticks[i]
			}
		}
		ticks[i] = min
	}
	return Frozen{ticks: ticks}
}

// Concurrent reports whether neither clock orders the other. Equal clocks
// are not concurrent.
func Concurrent(a, b *Clock) bool {
	return !a.LessOrEqual(b) && !b.LessOrEqual(a)
}

// OrderedBefore reports whether an event stamped a happens-before an event
// stamped b, i.e. a <= b and a != b componentwise somewhere. For race
// detection the usual test is simply a.LessOrEqual(b).
func OrderedBefore(a, b *Clock) bool {
	return a.LessOrEqual(b)
}

// Len returns the number of components the clock tracks.
func (c *Clock) Len() int { return len(c.ticks) }

// Bytes returns the approximate memory footprint of the clock, used by the
// shadow-memory accounting in the performance figures.
func (c *Clock) Bytes() int64 { return int64(len(c.ticks))*8 + 24 }

// String renders the clock as <t0,t1,...>.
func (c *Clock) String() string { return renderTicks(c.ticks) }

// Frozen is an immutable vector-clock value: a structurally shared view of
// a Clock at freeze time (see Clock.Freeze). The zero value is the bottom
// clock. Frozen is a two-word value, handed around by value — holding one
// never allocates, and reading one is safe from any goroutine that received
// it after the freeze (the array is never written again).
type Frozen struct {
	ticks []uint64
}

// Get returns the component for thread i.
func (f Frozen) Get(i int) uint64 {
	if i >= 0 && i < len(f.ticks) {
		return f.ticks[i]
	}
	return 0
}

// Len returns the number of components the view tracks.
func (f Frozen) Len() int { return len(f.ticks) }

// LessOrEqual reports whether f happens-before-or-equals other
// (pointwise <=).
func (f Frozen) LessOrEqual(other Frozen) bool {
	for i, v := range f.ticks {
		if v > 0 && v > other.Get(i) {
			return false
		}
	}
	return true
}

// Thaw returns an independent mutable clock holding the view's value.
func (f Frozen) Thaw() *Clock {
	out := &Clock{ticks: make([]uint64, len(f.ticks))}
	copy(out.ticks, f.ticks)
	return out
}

// Bytes returns the approximate footprint of the view's value under the
// dense cost model (what a mutable clock of the same length charges).
func (f Frozen) Bytes() int64 { return int64(len(f.ticks))*8 + 24 }

// String renders the view as <t0,t1,...>.
func (f Frozen) String() string { return renderTicks(f.ticks) }

func renderTicks(ticks []uint64) string {
	parts := make([]string, len(ticks))
	for i, v := range ticks {
		parts[i] = fmt.Sprint(v)
	}
	return "<" + strings.Join(parts, ",") + ">"
}
