package vc

// Epoch is FastTrack's O(1) access stamp (Flanagan & Freund, PLDI'09): one
// (thread, tick) pair packed into a single word. Where a full vector clock
// answers "is this access ordered after *every* prior access", an epoch
// answers the same question for the overwhelmingly common case that the
// prior accesses of interest collapse to a single thread's component —
// c.Get(tid) >= tick — turning the per-access comparison from O(threads)
// into one load and one compare, with no allocation.
//
// The zero Epoch means "none": real epochs always carry a non-zero tick,
// because every thread's own clock component starts at 1 (hb.Engine ticks
// each thread's component at creation), so an access stamped from the
// accessor's own component can never produce tick 0.
type Epoch uint64

// Epoch layout: tick in the low 48 bits, thread id in the high 16. 48 bits
// of tick outlast any run the vm's step limit admits, and 16 bits of tid
// exceed the interpreter's thread budget by orders of magnitude.
const (
	epochTidShift = 48
	epochTickMask = (1 << epochTidShift) - 1
	// EpochMaxTid is the largest thread id an Epoch can carry.
	EpochMaxTid = 1<<16 - 1
)

// MakeEpoch packs a (thread, tick) pair. Overflowing either field would
// silently corrupt ordering decisions (a tid one past the budget packs as
// tid 0), so it fails loud instead; nothing in the interpreter approaches
// either bound.
func MakeEpoch(tid int, tick uint64) Epoch {
	if uint(tid) > EpochMaxTid || tick > epochTickMask {
		panic("vc: epoch tid/tick overflow")
	}
	return Epoch(uint64(tid)<<epochTidShift | tick)
}

// IsZero reports whether e is the "no epoch" sentinel.
func (e Epoch) IsZero() bool { return e == 0 }

// Tid returns the thread component.
func (e Epoch) Tid() int { return int(uint64(e) >> epochTidShift) }

// Tick returns the tick component.
func (e Epoch) Tick() uint64 { return uint64(e) & epochTickMask }

// OrderedBefore reports whether the access stamped e happens-before an
// access by a thread whose clock is c: the single comparison e.tick <=
// c[e.tid] that replaces a full vector-clock LessOrEqual.
func (e Epoch) OrderedBefore(c *Clock) bool {
	return e.Tick() <= c.Get(e.Tid())
}
