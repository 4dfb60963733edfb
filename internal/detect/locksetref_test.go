package detect

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/lockset"
)

// refLockset is the map-keyed lockset tracker the shadow words' lockset
// state replaced, kept as a test oracle: held locks per thread, one
// variable per address in a map, and the Eraser state machine on
// lockset.Set values, probed per access. The GC forgot a hybrid variable
// when it retired the variable's word and never forgot an Eraser one.
type refLockset struct {
	held map[event.Tid][]int64
	ever map[event.Tid]bool
	vars map[int64]*refVar
}

type refVar struct {
	state lockset.State
	owner event.Tid
	cands lockset.Set
}

func newRefLockset() *refLockset {
	return &refLockset{held: map[event.Tid][]int64{}, ever: map[event.Tid]bool{}, vars: map[int64]*refVar{}}
}

func (r *refLockset) acquire(t event.Tid, lock int64) {
	r.ever[t] = true
	if !slices.Contains(r.held[t], lock) {
		r.held[t] = append(r.held[t], lock)
	}
}

func (r *refLockset) release(t event.Tid, lock int64) {
	if i := slices.Index(r.held[t], lock); i >= 0 {
		r.held[t] = slices.Delete(r.held[t], i, i+1)
	}
}

// access is the old Tracker.Access: it reports a lockset warning.
func (r *refLockset) access(t event.Tid, addr int64, isWrite bool) bool {
	held := lockset.FromSlice(r.held[t])
	v := r.vars[addr]
	if v == nil {
		v = &refVar{state: lockset.Virgin, cands: lockset.Universal()}
		r.vars[addr] = v
	}
	switch v.state {
	case lockset.Virgin:
		v.state = lockset.Exclusive
		v.owner = t
	case lockset.Exclusive:
		if t != v.owner {
			if isWrite {
				v.state = lockset.SharedModified
			} else {
				v.state = lockset.Shared
			}
			v.cands = v.cands.Intersect(held)
		}
	case lockset.Shared:
		v.cands = v.cands.Intersect(held)
		if isWrite && t != v.owner {
			v.state = lockset.SharedModified
		}
	case lockset.SharedModified:
		v.cands = v.cands.Intersect(held)
	}
	return v.state == lockset.SharedModified && v.cands.IsEmpty()
}

// bytes is the old Tracker.Bytes.
func (r *refLockset) bytes() int64 {
	var n int64
	for t := range r.ever {
		n += int64(len(r.held[t]))*8 + 32
	}
	for _, v := range r.vars {
		n += int64(len(v.cands.Slice()))*8 + 48
	}
	return n
}

// cellAddr is the byte address of word i of the page with the given key.
func cellAddr(key int64, i int) int64 {
	return (key<<pageWordShift | int64(i)) << addrWordShift
}

// liveCells returns the addresses of the detector's live shadow words.
func liveCells(d *Detector) map[int64]bool {
	live := map[int64]bool{}
	for key, pg := range d.shadow.pages {
		for i := range pg.words {
			if pg.words[i].live {
				live[cellAddr(key, i)] = true
			}
		}
	}
	return live
}

// sameVar compares a word's lockset state with the oracle's variable.
func sameVar(v *lockset.Var, r *refVar) error {
	got, want := v.Candidates(), r.cands
	if v.State() != r.state || v.Owner() != r.owner ||
		got.IsUniversal() != want.IsUniversal() || !slices.Equal(got.Slice(), want.Slice()) {
		return fmt.Errorf("state %v owner T%d cands %v (universal %v), reference %v T%d %v (universal %v)",
			v.State(), v.Owner(), got.Slice(), got.IsUniversal(), r.state, r.owner, want.Slice(), want.IsUniversal())
	}
	return nil
}

// checkLocksetState compares every cell's lockset state — live in its word
// or parked by the GC — and the memory figure with the oracle.
func checkLocksetState(d *Detector, ref *refLockset) error {
	seen := map[int64]bool{}
	for key, pg := range d.shadow.pages {
		for i := range pg.words {
			w := &pg.words[i]
			if !w.live || w.ls.State() == lockset.Virgin {
				continue
			}
			addr := cellAddr(key, i)
			r := ref.vars[addr]
			if r == nil {
				return fmt.Errorf("addr %#x: live lockset state %v the reference does not have", addr, w.ls.State())
			}
			if err := sameVar(&w.ls, r); err != nil {
				return fmt.Errorf("addr %#x (live): %v", addr, err)
			}
			seen[addr] = true
		}
	}
	for key, rf := range d.shadow.retired {
		if rf.locks == nil {
			continue
		}
		for i := range rf.locks {
			if rf.locks[i].State() == lockset.Virgin {
				continue
			}
			addr := cellAddr(key, i)
			r := ref.vars[addr]
			if r == nil || seen[addr] {
				return fmt.Errorf("addr %#x: parked lockset state that is live or unknown to the reference", addr)
			}
			if err := sameVar(&rf.locks[i], r); err != nil {
				return fmt.Errorf("addr %#x (parked): %v", addr, err)
			}
			seen[addr] = true
		}
	}
	for addr := range ref.vars {
		if !seen[addr] {
			return fmt.Errorf("addr %#x: reference variable %v lost", addr, ref.vars[addr].state)
		}
	}

	// ShadowBytes, as the map-keyed tracker charged it: the words' own
	// cost, the retired-flag bitmaps of pages where a flagged word retired,
	// the tracker (held locks and every variable), and the engines.
	want := ref.bytes() + d.hb.Bytes() + d.adhoc.Bytes()
	for _, pg := range d.shadow.pages {
		for i := range pg.words {
			if w := &pg.words[i]; w.live {
				_, mp := w.reads.readers()
				_, ma := w.readsAtomic.readers()
				want += 96 + flavorClockBytes(mp) + flavorClockBytes(ma) +
					int64(unionReaders(&w.reads, &w.readsAtomic))*24
			}
		}
	}
	for _, rf := range d.shadow.retired {
		var bits uint64
		for j := range rf.atomicEver {
			bits |= rf.atomicEver[j] | rf.reported[j]
		}
		if bits != 0 {
			want += 2*(pageWords/8) + 48
		}
	}
	if got := d.shadowBytes(); got != want {
		return fmt.Errorf("ShadowBytes = %d, map-keyed tracker charges %d", got, want)
	}
	return nil
}

// TestLocksetStateMatchesReference drives random streams — 2–6 threads
// taking and dropping 1–3 locks, plain and atomic accesses to cells on two
// pages, GC cycles, and a closing join that lets the GC retire everything
// before the words come back — through the detector and the map-keyed
// oracle under Eraser, lib and DRD. After every access the touched word's
// lockset state must equal the oracle's variable; at every GC cycle and at
// the end, every cell's state (live or parked), the Eraser warnings and
// ShadowBytes must.
func TestLocksetStateMatchesReference(t *testing.T) {
	streams := 300
	if testing.Short() {
		streams = 60
	}
	cells := []int64{0, 8, 16, 24, 32, 4096, 4104}
	for _, cfg := range []Config{Eraser(), HelgrindPlusLib(), DRD()} {
		for seed := int64(1); seed <= int64(streams); seed++ {
			if err := runLocksetStream(cfg, seed, cells); err != nil {
				t.Fatalf("%s, stream %d: %v", cfg.Name, seed, err)
			}
		}
	}
}

func runLocksetStream(cfg Config, seed int64, cells []int64) error {
	rng := rand.New(rand.NewSource(seed))
	nThreads := 2 + rng.Intn(5)
	nLocks := 1 + rng.Intn(3)
	d := New(cfg, nil, nil)
	defer d.Close()
	ref := newRefLockset()
	eraser := cfg.Tool == EraserTool
	tracked := cfg.Tool == EraserTool || cfg.Tool == HelgrindPlus
	reported := map[int64]bool{}
	var wantWarn []Warning
	owner := map[int64]event.Tid{} // lock -> holder

	handle := func(ev event.Event) { d.Handle(&ev) }
	lock := func(tid event.Tid, l int64) {
		handle(event.Event{Kind: event.KindSyncPost, Sync: ir.SyncMutexLock, Tid: tid, Addr: l})
		ref.acquire(tid, l)
		owner[l] = tid
	}
	unlock := func(tid event.Tid, l int64) {
		handle(event.Event{Kind: event.KindSyncPre, Sync: ir.SyncMutexUnlock, Tid: tid, Addr: l})
		ref.release(tid, l)
		delete(owner, l)
	}
	kinds := []event.Kind{event.KindRead, event.KindWrite, event.KindAtomicRead, event.KindAtomicWrite}
	access := func(tid event.Tid, addr int64) error {
		k := kinds[rng.Intn(len(kinds))]
		handle(event.Event{Kind: k, Tid: tid, Addr: addr, Loc: ir.LocID(rng.Intn(4))})
		if !tracked {
			return nil
		}
		if ref.access(tid, addr, k.IsWrite()) && eraser && !reported[addr] {
			reported[addr] = true
			wantWarn = append(wantWarn, Warning{Kind: WarnLockset, Addr: addr, Tid: tid, Write: k.IsWrite(), EventIdx: d.events})
		}
		if err := sameVar(&d.shadow.word(addr).ls, ref.vars[addr]); err != nil {
			return fmt.Errorf("event %d, addr %#x: %v", d.events, addr, err)
		}
		return nil
	}
	gc := func() error {
		before := liveCells(d)
		d.collectGarbage()
		if !eraser {
			// The old GC called ForgetVar on every retired hybrid word.
			after := liveCells(d)
			for addr := range before {
				if !after[addr] {
					delete(ref.vars, addr)
				}
			}
		}
		return checkLocksetState(d, ref)
	}

	for c := 1; c < nThreads; c++ {
		handle(event.Event{Kind: event.KindSpawn, Tid: 0, Child: event.Tid(c)})
		handle(event.Event{Kind: event.KindThreadStart, Tid: event.Tid(c)})
	}
	for step := 0; step < 200; step++ {
		tid := event.Tid(rng.Intn(nThreads))
		l := int64(1<<20 + 8*rng.Intn(nLocks))
		switch r := rng.Intn(20); {
		case r < 4:
			if h, held := owner[l]; !held {
				lock(tid, l)
			} else if h == tid {
				unlock(tid, l)
			}
		case r == 4:
			if err := gc(); err != nil {
				return fmt.Errorf("gc at event %d: %v", d.events, err)
			}
		default:
			if err := access(tid, cells[rng.Intn(len(cells))]); err != nil {
				return err
			}
		}
	}

	// Close: drop every lock, join and exit the children so thread 0's
	// clock dominates everything and the GC retires every word, then touch
	// the cells again so retired words come back.
	for l, h := range owner {
		unlock(h, l)
	}
	for c := 1; c < nThreads; c++ {
		handle(event.Event{Kind: event.KindThreadExit, Tid: event.Tid(c)})
		handle(event.Event{Kind: event.KindJoin, Tid: 0, Child: event.Tid(c)})
	}
	if err := gc(); err != nil {
		return fmt.Errorf("closing gc: %v", err)
	}
	for _, addr := range cells {
		if err := access(0, addr); err != nil {
			return err
		}
	}
	if err := checkLocksetState(d, ref); err != nil {
		return fmt.Errorf("end: %v", err)
	}

	var got []Warning
	for _, w := range d.warnings {
		if w.Kind == WarnLockset {
			got = append(got, Warning{Kind: w.Kind, Addr: w.Addr, Tid: w.Tid, Write: w.Write, EventIdx: w.EventIdx})
		}
	}
	if !slices.Equal(got, wantWarn) {
		return fmt.Errorf("lockset warnings %v, reference %v", got, wantWarn)
	}
	return nil
}
