// Package lockset implements the Eraser-style lockset algorithm: each
// shared variable's candidate set of protecting locks is intersected with
// the locks held at every access; an empty candidate set in a shared-
// modified state signals a potential race regardless of the observed
// interleaving.
//
// Helgrind+ is a hybrid detector: it carries lockset state next to the
// happens-before clocks. In this reproduction the lockset classifies
// warnings and powers the pure-Eraser reference detector used in tests; the
// hybrid's reporting decisions live in package detect.
package lockset

import (
	"sort"

	"adhocrace/internal/event"
)

// Set is an immutable set of lock addresses. The zero value is the
// universal set ("all locks", the initial candidate set of every variable).
type Set struct {
	universal bool
	locks     []int64 // sorted
}

// Universal returns the set of all locks.
func Universal() Set { return Set{universal: true} }

// Empty returns the empty set.
func Empty() Set { return Set{} }

// FromSlice builds a set from a slice of lock addresses.
func FromSlice(locks []int64) Set {
	if len(locks) == 0 {
		return Set{}
	}
	s := append([]int64(nil), locks...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:1]
	for _, l := range s[1:] {
		if l != out[len(out)-1] {
			out = append(out, l)
		}
	}
	return Set{locks: out}
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
	i := sort.Search(len(s.locks), func(i int) bool { return s.locks[i] >= lock })
	return i < len(s.locks) && s.locks[i] == lock
}

// Intersect returns s ∩ other.
func (s Set) Intersect(other Set) Set {
	if s.universal {
		return other
	}
	if other.universal {
		return s
	}
	var out []int64
	i, j := 0, 0
	for i < len(s.locks) && j < len(other.locks) {
		switch {
		case s.locks[i] == other.locks[j]:
			out = append(out, s.locks[i])
			i++
			j++
		case s.locks[i] < other.locks[j]:
			i++
		default:
			j++
		}
	}
	return Set{locks: out}
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

// Var is the lockset shadow of one variable.
type Var struct {
	State      State
	Owner      event.Tid
	Candidates Set
}

// heldState is one thread's held-lock bookkeeping: the live lock list and
// its memoized Set, rebuilt at most once per lock operation.
type heldState struct {
	locks []int64
	snap  Set
	// snapValid marks snap as current; cleared by lock operations.
	snapValid bool
	// ever marks threads that ever acquired a lock, for the seed-model
	// accounting (HeldBytes charged one entry per such thread).
	ever bool
}

// Tracker maintains held locks per thread and Eraser state per variable.
// Held state is a dense slice indexed by thread id (thread ids are the
// vm's small dense range), so the per-access held-set lookup is an index
// and a flag check — no map traffic on the hot path. The vars map is
// allocated lazily: a DRD run never touches it.
type Tracker struct {
	held []heldState
	vars map[int64]*Var
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
	hs.snapValid = false
	hs.ever = true
	for _, l := range hs.locks {
		if l == lock {
			return
		}
	}
	hs.locks = append(hs.locks, lock)
}

// LockReleased records that t no longer holds lock.
func (tr *Tracker) LockReleased(t event.Tid, lock int64) {
	if int(t) >= len(tr.held) {
		return
	}
	hs := &tr.held[t]
	hs.snapValid = false
	for i, l := range hs.locks {
		if l == lock {
			hs.locks = append(hs.locks[:i], hs.locks[i+1:]...)
			return
		}
	}
}

// Held returns the set of locks t currently holds.
func (tr *Tracker) Held(t event.Tid) Set {
	if int(t) >= len(tr.held) {
		return Set{}
	}
	return FromSlice(tr.held[t].locks)
}

// HeldCount returns how many locks t holds.
func (tr *Tracker) HeldCount(t event.Tid) int {
	if int(t) >= len(tr.held) {
		return 0
	}
	return len(tr.held[t].locks)
}

// heldSet returns Held(t) memoized until the next lock operation by t, so
// the per-access lookup allocates nothing between lock operations.
func (tr *Tracker) heldSet(t event.Tid) Set {
	hs := tr.heldOf(t)
	if !hs.snapValid {
		hs.snap = FromSlice(hs.locks)
		hs.snapValid = true
	}
	return hs.snap
}

// Access runs the Eraser state machine for an access by t, against the
// locks t holds now, and reports whether the variable has reached
// SharedModified with an empty candidate set (a lockset warning). The
// candidate set after the access is also returned for diagnostics.
func (tr *Tracker) Access(t event.Tid, addr int64, isWrite bool) (warn bool, cands Set) {
	held := tr.heldSet(t)
	v := tr.vars[addr]
	if v == nil {
		if tr.vars == nil {
			tr.vars = make(map[int64]*Var)
		}
		v = &Var{State: Virgin, Candidates: Universal()}
		tr.vars[addr] = v
	}
	switch v.State {
	case Virgin:
		v.State = Exclusive
		v.Owner = t
	case Exclusive:
		if t != v.Owner {
			if isWrite {
				v.State = SharedModified
			} else {
				v.State = Shared
			}
			v.Candidates = v.Candidates.Intersect(held)
		}
	case Shared:
		v.Candidates = v.Candidates.Intersect(held)
		if isWrite && t != v.Owner {
			v.State = SharedModified
		}
	case SharedModified:
		v.Candidates = v.Candidates.Intersect(held)
	}
	return v.State == SharedModified && v.Candidates.IsEmpty(), v.Candidates
}

// VarState returns the Eraser shadow of addr, or nil if never accessed.
func (tr *Tracker) VarState(addr int64) *Var { return tr.vars[addr] }

// ForgetVar drops the per-variable state of addr, if any. The shadow-state
// GC calls it for retired addresses of tools that discard Access's
// verdict (the hybrid configurations track locksets for classification
// only, so restarting a variable's state machine from Virgin is
// unobservable); Eraser, whose variable state is the report, never forgets.
func (tr *Tracker) ForgetVar(addr int64) { delete(tr.vars, addr) }

// Bytes approximates the tracker's footprint for the memory figure, under
// the seed model: one 32-byte entry per thread that ever locked, plus its
// live lock list, and one 48-byte entry per variable plus its candidate
// set. The memoized held sets are derived data and deliberately uncounted,
// so the figure stays comparable with the unmemoized implementation.
func (tr *Tracker) Bytes() int64 {
	var n int64
	for i := range tr.held {
		if tr.held[i].ever {
			n += int64(len(tr.held[i].locks))*8 + 32
		}
	}
	for _, v := range tr.vars {
		n += int64(len(v.Candidates.locks))*8 + 48
	}
	return n
}
