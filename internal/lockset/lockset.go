// Package lockset implements the Eraser-style lockset algorithm: each
// shared variable's candidate set of protecting locks is intersected with
// the locks held at every access; an empty candidate set in a shared-
// modified state signals a potential race regardless of the observed
// interleaving.
//
// Helgrind+ is a hybrid detector: it carries lockset state next to the
// happens-before clocks. In this reproduction the lockset state machine
// is the whole of the Eraser tool (detect.Eraser, which raced and the
// synth corpus expose as "eraser") and is carried by the hybrid
// presets for the memory figure; the hybrid's reporting decisions live in
// package detect.
//
// The Tracker owns the per-thread held locks; the per-variable state (Var)
// is stored by the caller — package detect keeps it in the variable's
// shadow word — and handed to AccessVar, so an access costs no lookup.
package lockset

import (
	"slices"

	"adhocrace/internal/event"
)

// Set is an immutable set of lock addresses. Set{} is the empty set (Empty
// returns it); Universal returns the set of all locks, the initial
// candidate set of every variable.
type Set struct {
	universal bool
	locks     []int64 // sorted
}

// Universal returns the set of all locks.
func Universal() Set { return Set{universal: true} }

// Empty returns the empty set.
func Empty() Set { return Set{} }

// emptySet is the shared empty view: the held set of a thread holding no
// lock, and the candidate set a disjoint intersection shrinks to.
var emptySet = &Set{}

// FromSlice builds a set from a slice of lock addresses.
func FromSlice(locks []int64) Set {
	if len(locks) == 0 {
		return Set{}
	}
	s := slices.Clone(locks)
	slices.Sort(s)
	return Set{locks: slices.Compact(s)}
}

// IsUniversal reports whether the set is the universal set.
func (s Set) IsUniversal() bool { return s.universal }

// IsEmpty reports whether the set is empty.
func (s Set) IsEmpty() bool { return !s.universal && len(s.locks) == 0 }

// Len returns the cardinality; -1 for the universal set.
func (s Set) Len() int {
	if s.universal {
		return -1
	}
	return len(s.locks)
}

// Contains reports membership.
func (s Set) Contains(lock int64) bool {
	if s.universal {
		return true
	}
	_, ok := slices.BinarySearch(s.locks, lock)
	return ok
}

// Intersect returns s ∩ other. It allocates only when the result is a
// proper subset of both operands: when s ⊆ other it returns s itself, and
// when other ⊆ s it returns other.
func (s Set) Intersect(other Set) Set {
	if s.universal {
		return other
	}
	if other.universal {
		return s
	}
	switch n := common(s.locks, other.locks); n {
	case len(s.locks):
		return s
	case len(other.locks):
		return other
	default:
		return Set{locks: merge(s.locks, other.locks, n)}
	}
}

// common counts the members two sorted lock lists share.
func common(a, b []int64) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// merge returns the n members two sorted lock lists share.
func merge(a, b []int64, n int) []int64 {
	out := make([]int64, 0, n)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// intersect is Intersect on the shared views a Var holds: the result is
// one of the operands whenever it equals one, so only a candidate set that
// genuinely shrinks to a proper subset of both allocates.
func intersect(c, held *Set) *Set {
	if c == held {
		return c
	}
	switch n := common(c.locks, held.locks); n {
	case len(c.locks):
		return c
	case len(held.locks):
		return held
	case 0:
		return emptySet
	default:
		return &Set{locks: merge(c.locks, held.locks, n)}
	}
}

// Slice returns the members (nil for universal).
func (s Set) Slice() []int64 { return s.locks }

// State is the Eraser ownership state of one variable.
type State uint8

// Eraser states.
const (
	Virgin State = iota
	Exclusive
	Shared
	SharedModified
)

var stateNames = [...]string{"virgin", "exclusive", "shared", "shared-modified"}

// String names the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "state(?)"
}

// Var is the lockset shadow of one variable, stored by the caller and
// advanced by Tracker.AccessVar. The zero value is a Virgin variable.
// While the state is below Shared the candidate set is universal and
// cands is nil; from Shared on, cands is an immutable view shared with
// held sets and other variables, never written through.
type Var struct {
	cands *Set
	owner int32 // thread ids are below 1<<30 (the trace format's bound)
	state State
}

// State returns the variable's Eraser state.
func (v *Var) State() State { return v.state }

// Owner returns the thread of the variable's first access; meaningful
// once the state is past Virgin.
func (v *Var) Owner() event.Tid { return event.Tid(v.owner) }

// Candidates returns the variable's candidate set: universal below Shared.
func (v *Var) Candidates() Set {
	if v.cands == nil {
		return Universal()
	}
	return *v.cands
}

// Bytes is the variable's charge in the memory figure, under the seed
// model: a 48-byte entry plus its candidate set, for every variable ever
// accessed (nothing for a Virgin one).
func (v *Var) Bytes() int64 {
	if v.state == Virgin {
		return 0
	}
	var n int64 = 48
	if v.cands != nil {
		n += int64(len(v.cands.locks)) * 8
	}
	return n
}

// heldState is one thread's held-lock bookkeeping: the live lock list and
// its memoized immutable view, rebuilt at most once per lock operation.
type heldState struct {
	// locks is kept sorted, so the view is a plain copy.
	locks []int64
	// snap is the current view; nil when a lock operation made it stale.
	snap *Set
	// last is the most recent non-empty view built. A lock/unlock cycle
	// returns the list to the same locks, and the view is reused instead
	// of rebuilt, so steady lock churn allocates nothing.
	last *Set
	// ever marks threads that ever acquired a lock, for the seed-model
	// accounting (Bytes charges one entry per such thread).
	ever bool
}

// view returns the immutable view of the held list.
func (hs *heldState) view() *Set {
	if len(hs.locks) == 0 {
		return emptySet
	}
	if hs.last == nil || !slices.Equal(hs.last.locks, hs.locks) {
		hs.last = &Set{locks: slices.Clone(hs.locks)}
	}
	return hs.last
}

// Tracker maintains the locks each thread holds and runs the Eraser state
// machine on caller-held variables against them. Held state is a dense
// slice indexed by thread id (thread ids are the vm's small dense range),
// so the per-access held-set lookup is an index and a nil check.
type Tracker struct {
	held []heldState
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// heldOf returns t's held state, growing the dense table on first use.
func (tr *Tracker) heldOf(t event.Tid) *heldState {
	for len(tr.held) <= int(t) {
		tr.held = append(tr.held, heldState{})
	}
	return &tr.held[t]
}

// LockAcquired records that t now holds lock.
func (tr *Tracker) LockAcquired(t event.Tid, lock int64) {
	hs := tr.heldOf(t)
	hs.ever = true
	i, found := slices.BinarySearch(hs.locks, lock)
	if found {
		return
	}
	hs.locks = slices.Insert(hs.locks, i, lock)
	hs.snap = nil
}

// LockReleased records that t no longer holds lock.
func (tr *Tracker) LockReleased(t event.Tid, lock int64) {
	if int(t) >= len(tr.held) {
		return
	}
	hs := &tr.held[t]
	if i, found := slices.BinarySearch(hs.locks, lock); found {
		hs.locks = slices.Delete(hs.locks, i, i+1)
		hs.snap = nil
	}
}

// Held returns the set of locks t currently holds.
func (tr *Tracker) Held(t event.Tid) Set { return *tr.heldSet(t) }

// HeldCount returns how many locks t holds.
func (tr *Tracker) HeldCount(t event.Tid) int {
	if int(t) >= len(tr.held) {
		return 0
	}
	return len(tr.held[t].locks)
}

// heldSet returns the view of the locks t holds, memoized until the next
// lock operation by t.
func (tr *Tracker) heldSet(t event.Tid) *Set {
	if int(t) >= len(tr.held) {
		return emptySet
	}
	hs := &tr.held[t]
	if hs.snap == nil {
		hs.snap = hs.view()
	}
	return hs.snap
}

// AccessVar runs the Eraser state machine on v for an access by t, against
// the locks t holds now, and reports whether v has reached SharedModified
// with an empty candidate set (a lockset warning). A transition that does
// not shrink the candidate set to a proper subset of both it and the held
// set allocates nothing.
func (tr *Tracker) AccessVar(v *Var, t event.Tid, isWrite bool) (warn bool) {
	switch v.state {
	case Virgin:
		v.state = Exclusive
		v.owner = int32(t)
		return false
	case Exclusive:
		if int32(t) == v.owner {
			return false
		}
		if isWrite {
			v.state = SharedModified
		} else {
			v.state = Shared
		}
		// The universal set intersected with the held set is the held set.
		v.cands = tr.heldSet(t)
	case Shared:
		v.cands = intersect(v.cands, tr.heldSet(t))
		if isWrite && int32(t) != v.owner {
			v.state = SharedModified
		}
	case SharedModified:
		v.cands = intersect(v.cands, tr.heldSet(t))
	}
	return v.state == SharedModified && len(v.cands.locks) == 0
}

// Bytes approximates the held-lock bookkeeping's footprint for the memory
// figure, under the seed model: one 32-byte entry per thread that ever
// locked, plus its live lock list. The memoized views are derived data and
// deliberately uncounted, so the figure stays comparable with the
// unmemoized implementation. Variables are charged by their holder
// (Var.Bytes).
func (tr *Tracker) Bytes() int64 {
	var n int64
	for i := range tr.held {
		if tr.held[i].ever {
			n += int64(len(tr.held[i].locks))*8 + 32
		}
	}
	return n
}
