package lockset

import (
	"testing"
	"testing/quick"

	"adhocrace/internal/event"
)

func TestSetBasics(t *testing.T) {
	u := Universal()
	if !u.IsUniversal() || u.IsEmpty() || u.Len() != -1 {
		t.Error("universal set misbehaves")
	}
	if !u.Contains(42) {
		t.Error("universal must contain everything")
	}
	e := Empty()
	if e.IsUniversal() || !e.IsEmpty() || e.Contains(1) {
		t.Error("empty set misbehaves")
	}
	s := FromSlice([]int64{3, 1, 2, 3})
	if s.Len() != 3 || !s.Contains(1) || !s.Contains(3) || s.Contains(4) {
		t.Errorf("FromSlice dedup/sort broken: %v", s.Slice())
	}
}

func TestIntersect(t *testing.T) {
	a := FromSlice([]int64{1, 2, 3})
	b := FromSlice([]int64{2, 3, 4})
	got := a.Intersect(b)
	if got.Len() != 2 || !got.Contains(2) || !got.Contains(3) {
		t.Errorf("intersect = %v", got.Slice())
	}
	if u := Universal().Intersect(a); u.Len() != 3 {
		t.Error("universal ∩ a must be a")
	}
	if u := a.Intersect(Universal()); u.Len() != 3 {
		t.Error("a ∩ universal must be a")
	}
	if e := a.Intersect(Empty()); !e.IsEmpty() {
		t.Error("a ∩ empty must be empty")
	}
}

func TestIntersectProperties(t *testing.T) {
	f := func(xs, ys []int64) bool {
		a, b := FromSlice(xs), FromSlice(ys)
		ab := a.Intersect(b)
		ba := b.Intersect(a)
		if ab.Len() != ba.Len() {
			return false
		}
		for _, l := range ab.Slice() {
			if !a.Contains(l) || !b.Contains(l) || !ba.Contains(l) {
				return false
			}
		}
		// No member of both is missing.
		for _, l := range xs {
			if b.Contains(l) && !ab.Contains(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeldTracking(t *testing.T) {
	tr := NewTracker()
	tr.LockAcquired(1, 100)
	tr.LockAcquired(1, 200)
	tr.LockAcquired(1, 100) // re-acquire is idempotent
	if tr.HeldCount(1) != 2 {
		t.Errorf("held = %d, want 2", tr.HeldCount(1))
	}
	tr.LockReleased(1, 100)
	if got := tr.Held(1); got.Len() != 1 || !got.Contains(200) {
		t.Errorf("held = %v", got.Slice())
	}
	tr.LockReleased(1, 999) // releasing a non-held lock is a no-op
	if tr.HeldCount(1) != 1 {
		t.Error("spurious release changed the set")
	}
}

// vars is the map-keyed variable table the Tracker used to keep: the
// tests drive AccessVar through it, one Var per address.
type vars map[int64]*Var

// access runs one access and returns the warning and the candidate set
// after it.
func (vs vars) access(tr *Tracker, t event.Tid, addr int64, isWrite bool) (bool, Set) {
	v := vs[addr]
	if v == nil {
		v = &Var{}
		vs[addr] = v
	}
	warn := tr.AccessVar(v, t, isWrite)
	return warn, v.Candidates()
}

func TestEraserStateMachine(t *testing.T) {
	tr, vs := NewTracker(), vars{}
	const addr = int64(8)

	// Virgin -> Exclusive on first access, no warning.
	if warn, _ := vs.access(tr, 1, addr, true); warn {
		t.Error("virgin access warned")
	}
	if vs[addr].State() != Exclusive {
		t.Errorf("state = %v, want exclusive", vs[addr].State())
	}
	// Same-thread accesses stay exclusive.
	vs.access(tr, 1, addr, true)
	if vs[addr].State() != Exclusive {
		t.Error("same-thread access left exclusive")
	}
	// Second thread reading (lock-free) moves to Shared: candidates empty
	// but reads alone never warn.
	if warn, _ := vs.access(tr, 2, addr, false); warn {
		t.Error("read by second thread warned")
	}
	if vs[addr].State() != Shared {
		t.Errorf("state = %v, want shared", vs[addr].State())
	}
	// Second thread writing lock-free: SharedModified with empty
	// candidates -> warning.
	if warn, cands := vs.access(tr, 2, addr, true); !warn || !cands.IsEmpty() {
		t.Errorf("expected warning with empty candidates, got warn=%v cands=%v", warn, cands.Slice())
	}
}

func TestEraserConsistentLockNoWarning(t *testing.T) {
	tr, vs := NewTracker(), vars{}
	const addr = int64(8)
	tr.LockAcquired(1, 100)
	vs.access(tr, 1, addr, true)
	tr.LockReleased(1, 100)
	tr.LockAcquired(2, 100)
	if warn, cands := vs.access(tr, 2, addr, true); warn || !cands.Contains(100) {
		t.Errorf("consistently locked variable warned: cands=%v", cands.Slice())
	}
}

func TestEraserWarnsOnLostDiscipline(t *testing.T) {
	tr, vs := NewTracker(), vars{}
	const addr = int64(8)
	tr.LockAcquired(1, 100)
	vs.access(tr, 1, addr, true)
	tr.LockReleased(1, 100)
	tr.LockAcquired(2, 200) // different lock
	// Exclusive -> SharedModified: candidates become {200}; Eraser defers
	// the warning until the candidate set actually empties.
	if warn, cands := vs.access(tr, 2, addr, true); warn || cands.IsEmpty() {
		t.Errorf("premature warning: cands=%v", cands.Slice())
	}
	tr.LockReleased(2, 200)
	tr.LockAcquired(1, 100)
	if warn, _ := vs.access(tr, 1, addr, true); !warn {
		t.Error("write with disjoint locksets must warn once candidates empty")
	}
}

// TestIntersectReturnsSubsetOperand: an intersection equal to one operand
// is that operand — same storage, no allocation.
func TestIntersectReturnsSubsetOperand(t *testing.T) {
	small := FromSlice([]int64{2})
	big := FromSlice([]int64{1, 2, 3})
	if got := small.Intersect(big); &got.Slice()[0] != &small.Slice()[0] {
		t.Error("s ⊆ other must return s itself")
	}
	if got := big.Intersect(small); &got.Slice()[0] != &small.Slice()[0] {
		t.Error("other ⊆ s must return other itself")
	}
	if allocs := testing.AllocsPerRun(100, func() { small = small.Intersect(big) }); allocs != 0 {
		t.Errorf("subset intersection allocates %.1f, want 0", allocs)
	}
	if got := FromSlice([]int64{1, 2}).Intersect(FromSlice([]int64{2, 3})); got.Len() != 1 || !got.Contains(2) {
		t.Errorf("proper intersection = %v, want [2]", got.Slice())
	}
}

// TestAccessVarSharedLockedZeroAlloc: two threads alternately writing a
// variable under the same lock keep a non-shrinking candidate set, and
// neither the accesses nor the lock churn between them allocate.
func TestAccessVarSharedLockedZeroAlloc(t *testing.T) {
	tr := NewTracker()
	var v Var
	step := func(tid event.Tid) {
		tr.LockAcquired(tid, 100)
		if tr.AccessVar(&v, tid, true) {
			t.Fatal("lock-protected variable warned")
		}
		tr.LockReleased(tid, 100)
	}
	step(1)
	step(2) // Exclusive -> SharedModified {100}; both threads built views
	if allocs := testing.AllocsPerRun(100, func() { step(1); step(2) }); allocs != 0 {
		t.Errorf("lock-protected shared-modified access allocates %.1f, want 0", allocs)
	}
	if v.State() != SharedModified || !v.Candidates().Contains(100) || v.Candidates().Len() != 1 {
		t.Errorf("state %v cands %v, want shared-modified {100}", v.State(), v.Candidates().Slice())
	}
}

// TestVarBytes pins the seed model's per-variable charge.
func TestVarBytes(t *testing.T) {
	tr := NewTracker()
	var v Var
	if v.Bytes() != 0 {
		t.Errorf("virgin var charged %d bytes", v.Bytes())
	}
	tr.AccessVar(&v, 1, true)
	if v.Bytes() != 48 {
		t.Errorf("exclusive var = %d bytes, want 48 (universal candidates are free)", v.Bytes())
	}
	tr.LockAcquired(2, 100)
	tr.LockAcquired(2, 200)
	tr.AccessVar(&v, 2, false)
	if v.Bytes() != 48+16 {
		t.Errorf("shared var with two candidates = %d bytes, want 64", v.Bytes())
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Virgin: "virgin", Exclusive: "exclusive",
		Shared: "shared", SharedModified: "shared-modified",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestTrackerBytes(t *testing.T) {
	tr := NewTracker()
	tr.LockAcquired(1, 100)
	if got := tr.Bytes(); got != 32+8 {
		t.Errorf("Bytes = %d, want 40: one locking thread holding one lock", got)
	}
}
