package hb

import (
	"fmt"
	"testing"

	"adhocrace/internal/event"
	"adhocrace/internal/vc"
)

func ordered(a, b vc.Frozen) bool { return a.LessOrEqual(b) }

// engines returns both implementations; every behavioral test runs against
// each, since the store's fast paths must be observationally identical to
// the seed representation.
func engines() map[string]func() Engine {
	return map[string]func() Engine{
		"store":     New,
		"reference": newReference,
	}
}

func forBoth(t *testing.T, f func(t *testing.T, e Engine)) {
	t.Helper()
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) { f(t, mk()) })
	}
}

func TestSpawnOrdersParentBeforeChild(t *testing.T) {
	forBoth(t, func(t *testing.T, e Engine) {
		before := e.Snapshot(0)
		e.Spawn(0, 1)
		child := e.Snapshot(1)
		if !ordered(before, child) {
			t.Error("parent's pre-spawn clock must happen-before the child")
		}
		// The parent's post-spawn clock is not ordered with the child.
		after := e.Snapshot(0)
		if ordered(after, child) {
			t.Error("parent's post-spawn clock must be concurrent with the child")
		}
	})
}

func TestJoinOrdersChildBeforeParent(t *testing.T) {
	forBoth(t, func(t *testing.T, e Engine) {
		e.Spawn(0, 1)
		e.ClockOf(1).Tick(1) // child does work
		childClock := e.Snapshot(1)
		e.Join(0, 1)
		parent := e.Snapshot(0)
		if !ordered(childClock, parent) {
			t.Error("child must happen-before the parent after join")
		}
	})
}

func TestReleaseAcquireChain(t *testing.T) {
	forBoth(t, func(t *testing.T, e Engine) {
		e.Spawn(0, 1)
		e.Spawn(0, 2)
		t1 := e.Snapshot(1)
		e.Release(1, 100)
		e.Acquire(2, 100)
		t2 := e.Snapshot(2)
		if !ordered(t1, t2) {
			t.Error("release/acquire on the same object must order threads")
		}
	})
}

func TestAcquireDifferentObjectNoOrder(t *testing.T) {
	forBoth(t, func(t *testing.T, e Engine) {
		e.Spawn(0, 1)
		e.Spawn(0, 2)
		e.ClockOf(1).Tick(1)
		t1 := e.Snapshot(1)
		e.Release(1, 100)
		e.Acquire(2, 200) // different object
		t2 := e.Snapshot(2)
		if ordered(t1, t2) {
			t.Error("different objects must not create edges")
		}
	})
}

func TestAcquireUnknownObjectIsNoop(t *testing.T) {
	forBoth(t, func(t *testing.T, e Engine) {
		before := e.Snapshot(3)
		e.Acquire(3, 999)
		after := e.Snapshot(3)
		if !ordered(before, after) || !ordered(after, before) {
			t.Error("acquire on a never-released object must not change the clock")
		}
	})
}

func TestBarrierOrdersAllArrivalsBeforeAllLeaves(t *testing.T) {
	forBoth(t, func(t *testing.T, e Engine) {
		for i := 1; i <= 3; i++ {
			e.Spawn(0, event.Tid(i))
		}
		snaps := make([]vc.Frozen, 4)
		for i := 1; i <= 3; i++ {
			e.ClockOf(event.Tid(i)).Tick(i)
			snaps[i] = e.Snapshot(event.Tid(i))
			e.BarrierArrive(event.Tid(i), 500)
		}
		for i := 1; i <= 3; i++ {
			e.BarrierLeave(event.Tid(i), 500)
		}
		for i := 1; i <= 3; i++ {
			leave := e.Snapshot(event.Tid(i))
			for j := 1; j <= 3; j++ {
				if !ordered(snaps[j], leave) {
					t.Errorf("arrival of T%d must happen-before T%d's leave", j, i)
				}
			}
		}
	})
}

func TestBarrierGenerationResets(t *testing.T) {
	forBoth(t, func(t *testing.T, e Engine) {
		e.Spawn(0, 1)
		e.Spawn(0, 2)
		// Generation 1.
		e.BarrierArrive(1, 500)
		e.BarrierArrive(2, 500)
		e.BarrierLeave(1, 500)
		e.BarrierLeave(2, 500)
		// Work after the barrier by T1 only.
		e.ClockOf(1).Tick(1)
		after := e.Snapshot(1)
		// Generation 2: T2 arrives and leaves; T1's post-gen1 work must not
		// leak into T2 unless T1 arrived too.
		e.BarrierArrive(2, 500)
		e.BarrierLeave(2, 500)
		t2 := e.Snapshot(2)
		if ordered(after, t2) {
			t.Error("generation state leaked across a drained barrier")
		}
	})
}

func TestBarrierLeaveWithoutArriveIsSafe(t *testing.T) {
	forBoth(t, func(t *testing.T, e Engine) {
		e.BarrierLeave(1, 77) // never armed: must not panic
	})
}

func TestClockOfGrows(t *testing.T) {
	forBoth(t, func(t *testing.T, e Engine) {
		c := e.ClockOf(10)
		if c.Get(10) != 1 {
			t.Errorf("fresh thread clock component = %d, want 1", c.Get(10))
		}
		if e.Bytes() <= 0 {
			t.Error("Bytes must be positive")
		}
	})
}

func TestTransitivity(t *testing.T) {
	forBoth(t, func(t *testing.T, e Engine) {
		for i := 1; i <= 3; i++ {
			e.Spawn(0, event.Tid(i))
		}
		e.ClockOf(1).Tick(1)
		t1 := e.Snapshot(1)
		e.Release(1, 1)
		e.Acquire(2, 1)
		e.Release(2, 2)
		e.Acquire(3, 2)
		t3 := e.Snapshot(3)
		if !ordered(t1, t3) {
			t.Error("happens-before must be transitive across objects")
		}
	})
}

// TestSnapshotIsStableView checks the snapshot contract shared by both
// engines: a snapshot never observes later engine activity, and snapshots
// of distinct threads are independent.
func TestSnapshotIsStableView(t *testing.T) {
	forBoth(t, func(t *testing.T, e Engine) {
		s1 := e.Snapshot(1)
		tick1 := s1.Get(1)
		e.ClockOf(1).Tick(1)
		if s1.Get(1) != tick1 {
			t.Error("a snapshot must not observe later ticks")
		}
		s3 := e.Snapshot(1)
		if s3.Get(1) != tick1+1 {
			t.Error("a fresh snapshot must observe the tick")
		}
		// An acquire joins without ticking the thread's own component; the
		// snapshot taken before must not see the import.
		e.Release(2, 77)
		before := e.Snapshot(1)
		e.Acquire(1, 77)
		after := e.Snapshot(1)
		if before.Get(2) >= after.Get(2) {
			t.Errorf("acquire edge lost: before=%v after=%v", before, after)
		}
	})
}

// hbOp is one step of a table-driven scenario (see edgeCaseScenarios).
type hbOp struct {
	do func(e Engine)
	// snap, when >= 0, snapshots this thread after the op into the
	// scenario's labeled snapshot list.
	snap event.Tid
}

func op(do func(e Engine)) hbOp                  { return hbOp{do: do, snap: -1} }
func opSnap(t event.Tid, do func(e Engine)) hbOp { return hbOp{do: do, snap: t} }

// edgeCaseScenarios are the happens-before corner cases the clock-store
// refactor must preserve, exercised identically against both engines: the
// recorded snapshots' full pairwise ordering matrix must match the
// expectation and agree across engines.
func edgeCaseScenarios() []struct {
	name string
	ops  []hbOp
	// ordered[i][j] is whether snapshot i must happen-before-or-equal
	// snapshot j.
	ordered map[[2]int]bool
} {
	return []struct {
		name    string
		ops     []hbOp
		ordered map[[2]int]bool
	}{
		{
			// Barrier reuse across generations: the same barrier object runs
			// two generations; gen-1 arrivals order into gen-2 leaves through
			// the arriving threads' accumulated clocks (cumulativity), but
			// gen-2-only work stays concurrent with gen-1 leavers.
			name: "barrier reuse across generations",
			ops: []hbOp{
				op(func(e Engine) { e.Spawn(0, 1); e.Spawn(0, 2) }),
				opSnap(1, func(e Engine) { e.ClockOf(1).Tick(1) }), // s0: T1 pre-gen1 work
				op(func(e Engine) { e.BarrierArrive(1, 9); e.BarrierArrive(2, 9) }),
				op(func(e Engine) { e.BarrierLeave(1, 9); e.BarrierLeave(2, 9) }),
				opSnap(2, func(e Engine) { e.ClockOf(2).Tick(2) }), // s1: T2 between generations
				op(func(e Engine) { e.BarrierArrive(1, 9); e.BarrierArrive(2, 9) }),
				op(func(e Engine) { e.BarrierLeave(1, 9); e.BarrierLeave(2, 9) }),
				opSnap(1, func(e Engine) {}), // s2: T1 after gen 2
			},
			ordered: map[[2]int]bool{
				{0, 1}: true,  // gen-1 arrival hb gen-2 (T2's inter-gen work follows its gen-1 leave)
				{0, 2}: true,  // and hb T1's post-gen-2 point
				{1, 2}: true,  // T2's inter-gen work flows through its gen-2 arrival
				{2, 1}: false, // nothing orders backwards
				{1, 0}: false,
			},
		},
		{
			// Semaphore post-before-wait: the post's release history is
			// published before any waiter exists; the late waiter must still
			// import it.
			name: "semaphore post before wait",
			ops: []hbOp{
				op(func(e Engine) { e.Spawn(0, 1); e.Spawn(0, 2) }),
				opSnap(1, func(e Engine) { e.ClockOf(1).Tick(1) }), // s0: T1 pre-post work
				op(func(e Engine) { e.Release(1, 40) }),            // sem_post
				opSnap(1, func(e Engine) { e.ClockOf(1).Tick(1) }), // s1: T1 post-post work
				op(func(e Engine) { e.Acquire(2, 40) }),            // sem_wait, long after
				opSnap(2, func(e Engine) {}),                       // s2: T2 after wait
			},
			ordered: map[[2]int]bool{
				{0, 2}: true,  // pre-post work hb the waiter
				{1, 2}: false, // post-post work does not
				{2, 0}: false,
			},
		},
		{
			// Condvar signal with no waiter: the release parks on the object;
			// a *later* wait on the same condvar imports it (the engine's
			// deliberate over-approximation — conservative for false
			// positives), while unrelated threads stay unordered.
			name: "condvar signal with no waiter",
			ops: []hbOp{
				op(func(e Engine) { e.Spawn(0, 1); e.Spawn(0, 2); e.Spawn(0, 3) }),
				opSnap(1, func(e Engine) { e.ClockOf(1).Tick(1) }), // s0: T1 pre-signal
				op(func(e Engine) { e.Release(1, 60) }),            // signal, nobody waiting
				opSnap(2, func(e Engine) { e.ClockOf(2).Tick(2) }), // s1: T2 unrelated work
				op(func(e Engine) { e.Acquire(3, 60) }),            // late wait wakes on next signal; engine imports history
				opSnap(3, func(e Engine) {}),                       // s2: T3 after wait
			},
			ordered: map[[2]int]bool{
				{0, 2}: true,  // the lost signal still orders (over-approximation, pinned)
				{1, 2}: false, // unrelated thread stays concurrent
				{2, 1}: false,
				{2, 0}: false,
			},
		},
	}
}

func TestEdgeCasesBothEngines(t *testing.T) {
	for _, sc := range edgeCaseScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			results := make(map[string][]vc.Frozen)
			for name, mk := range engines() {
				e := mk()
				var snaps []vc.Frozen
				for _, o := range sc.ops {
					o.do(e)
					if o.snap >= 0 {
						snaps = append(snaps, e.Snapshot(o.snap))
					}
				}
				results[name] = snaps
				for pair, want := range sc.ordered {
					if got := ordered(snaps[pair[0]], snaps[pair[1]]); got != want {
						t.Errorf("%s: ordered(s%d, s%d) = %v, want %v",
							name, pair[0], pair[1], got, want)
					}
				}
			}
			// The two engines must agree on the complete ordering matrix,
			// not just the expected pairs.
			st, ref := results["store"], results["reference"]
			for i := range st {
				for j := range st {
					if ordered(st[i], st[j]) != ordered(ref[i], ref[j]) {
						t.Errorf("engines disagree on ordered(s%d, s%d)", i, j)
					}
				}
			}
		})
	}
}

// TestStoreMatchesReferenceOnRandomStreams drives both engines through
// identical pseudo-random operation streams — the ops the detector issues:
// release/acquire, barrier arrive/leave, ticks, spawns and joins
// mid-stream, thread exits, ForgetObject, and GC cycles of
// Quiesce(Watermark()) — and asserts the complete pairwise ordering matrix
// of all snapshots and watermarks matches, along with every cycle's
// retirement count and live-object gauge. A randomized extension of the
// edge-case tables.
func TestStoreMatchesReferenceOnRandomStreams(t *testing.T) {
	const (
		initial    = 4
		maxThreads = 8
	)
	var quiesced, retired, joins, forgets int64
	for seed := uint64(1); seed <= 200; seed++ {
		rng := seed * 0x9e3779b97f4a7c15
		next := func(n int) int {
			rng ^= rng >> 12
			rng ^= rng << 25
			rng ^= rng >> 27
			return int((rng * 0x2545f4914f6cdd1d) % uint64(n))
		}
		st, ref := New(), newReference()
		both := func(op func(e Engine)) { op(st); op(ref) }
		live := []event.Tid{0}
		var exited []event.Tid // exited, not yet joined
		nextTid := event.Tid(1)
		spawn := func() {
			parent, child := live[next(len(live))], nextTid
			nextTid++
			both(func(e Engine) { e.Spawn(parent, child) })
			live = append(live, child)
		}
		for i := 1; i < initial; i++ {
			spawn()
		}
		var stSnaps, refSnaps []vc.Frozen
		for step := 0; step < 200; step++ {
			tid := live[next(len(live))]
			obj := int64(100 + next(3))
			switch next(11) {
			case 0:
				both(func(e Engine) { e.Release(tid, obj) })
			case 1:
				both(func(e Engine) { e.Acquire(tid, obj) })
			case 2:
				both(func(e Engine) { e.BarrierArrive(tid, obj) })
			case 3:
				both(func(e Engine) { e.BarrierLeave(tid, obj) })
			case 4:
				both(func(e Engine) { e.ClockOf(tid).Tick(int(tid)) })
			case 5:
				stSnaps = append(stSnaps, st.Snapshot(tid))
				refSnaps = append(refSnaps, ref.Snapshot(tid))
			case 6:
				if int(nextTid) < maxThreads {
					spawn()
				}
			case 7:
				// A non-main thread exits; its join comes later.
				if tid != 0 {
					both(func(e Engine) { e.ThreadExited(tid) })
					for i, l := range live {
						if l == tid {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
					exited = append(exited, tid)
				}
			case 8:
				if len(exited) > 0 {
					i := next(len(exited))
					child := exited[i]
					exited = append(exited[:i], exited[i+1:]...)
					both(func(e Engine) { e.Join(tid, child) })
					joins++
				}
			case 9:
				stWM, refWM := st.Watermark(), ref.Watermark()
				stSnaps = append(stSnaps, stWM)
				refSnaps = append(refSnaps, refWM)
				stRet, refRet := st.Quiesce(stWM), ref.Quiesce(refWM)
				if stRet != refRet || st.Objects() != ref.Objects() {
					t.Fatalf("seed %d step %d: Quiesce retired %d (store) vs %d (reference), objects %d vs %d",
						seed, step, stRet, refRet, st.Objects(), ref.Objects())
				}
				quiesced++
				retired += stRet
			case 10:
				both(func(e Engine) { e.ForgetObject(obj) })
				forgets++
			}
		}
		for i := range stSnaps {
			for j := range stSnaps {
				if ordered(stSnaps[i], stSnaps[j]) != ordered(refSnaps[i], refSnaps[j]) {
					t.Fatalf("seed %d: engines disagree on ordered(s%d, s%d): store %v/%v ref %v/%v",
						seed, i, j, stSnaps[i], stSnaps[j], refSnaps[i], refSnaps[j])
				}
			}
		}
	}
	if quiesced == 0 || retired == 0 || joins == 0 || forgets == 0 {
		t.Fatalf("streams must exercise GC cycles (%d) that retire state (%d), joins (%d) and ForgetObject (%d)",
			quiesced, retired, joins, forgets)
	}
	t.Logf("%d GC cycles retired %d objects; %d joins, %d forgets", quiesced, retired, joins, forgets)
}

// TestForgetObjectReleasesState is the accounting test for sync-object
// destruction: object and barrier state must be reclaimed, returning Bytes
// to its pre-object level.
func TestForgetObjectReleasesState(t *testing.T) {
	forBoth(t, func(t *testing.T, e Engine) {
		e.Spawn(0, 1)
		base := e.Bytes()
		for obj := int64(100); obj < 150; obj++ {
			e.Release(0, obj)
			e.Acquire(1, obj)
			e.BarrierArrive(0, obj)
			e.BarrierLeave(0, obj)
		}
		grown := e.Bytes()
		if grown <= base {
			t.Fatalf("object state must grow Bytes: base %d, grown %d", base, grown)
		}
		for obj := int64(100); obj < 150; obj++ {
			e.ForgetObject(obj)
		}
		// Thread clocks legitimately grew (ticks extend no components, but
		// the spawn did); everything object-keyed must be gone.
		after := e.Bytes()
		freed := grown - after
		perObj := (grown - base) / 50
		if freed < 50*perObj {
			t.Errorf("ForgetObject reclaimed %d of %d object bytes", freed, grown-base)
		}
		e.ForgetObject(999) // unknown object: no-op
	})
}

// TestSameEpochSyncZeroAlloc pins the acceptance bar: the same-epoch fast
// paths of the clock store — a thread re-releasing its own object, an
// acquire already covered by the acquirer's clock, and a snapshot of an
// unchanged clock — must not allocate.
func TestSameEpochSyncZeroAlloc(t *testing.T) {
	e := New()
	e.Spawn(0, 1)
	e.Release(1, 100)
	e.Acquire(1, 100)
	e.Release(1, 100) // settle the CoW copy of the first freeze

	if allocs := testing.AllocsPerRun(200, func() { e.Release(1, 100) }); allocs != 0 {
		t.Errorf("same-epoch Release allocates %.1f per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { e.Acquire(1, 100) }); allocs != 0 {
		t.Errorf("same-epoch Acquire allocates %.1f per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { e.Snapshot(1) }); allocs != 0 {
		t.Errorf("same-epoch Snapshot allocates %.1f per op, want 0", allocs)
	}
	if e.Stats().EpochHits == 0 {
		t.Error("fast paths must be counted as epoch hits")
	}
}

// BenchmarkSyncOps measures the store against the reference on the three
// sync-side hot operations (same-epoch flavor: single-owner object).
func BenchmarkSyncOps(b *testing.B) {
	for name, mk := range engines() {
		b.Run(name, func(b *testing.B) {
			e := mk()
			e.Spawn(0, 1)
			e.Release(1, 100)
			b.Run("release", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e.Release(1, 100)
				}
			})
			b.Run("acquire", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e.Acquire(1, 100)
				}
			})
			b.Run("snapshot", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e.Snapshot(1)
				}
			})
		})
	}
}

// TestStatsCountTransitions sanity-checks the representation counters.
func TestStatsCountTransitions(t *testing.T) {
	e := New()
	e.Spawn(0, 1)
	e.Spawn(0, 2)
	e.Release(1, 100)
	e.Release(1, 100) // same owner, no foreign knowledge: epoch hit
	s := e.Stats()
	if s.EpochHits == 0 || s.Inflates != 0 {
		t.Fatalf("after same-owner releases: %+v", s)
	}
	e.Acquire(2, 100) // real import
	e.Release(2, 100) // cross-thread: inflate
	if got := e.Stats(); got.Inflates != 1 {
		t.Fatalf("cross-thread release must inflate once: %+v", got)
	}
	e.Acquire(1, 100)
	e.Release(1, 100) // inflated object: seed path, no new transitions
	if got := e.Stats(); got.Inflates != 1 {
		t.Fatalf("inflated object must stay inflated: %+v", got)
	}
	// A release after importing foreign knowledge re-bases.
	e.Release(1, 200) // fresh epoch-mode object owned by T1
	e.Release(2, 300) // T2 publishes new knowledge elsewhere
	e.Acquire(1, 300) // T1 imports it — a changing join
	e.Release(1, 200)
	if got := e.Stats(); got.Rebases == 0 {
		t.Fatalf("release after a foreign join must re-base: %+v", got)
	}
	if fmt.Sprint(e.Stats()) == "" {
		t.Error("stats must render")
	}
}
