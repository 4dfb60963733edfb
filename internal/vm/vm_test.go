package vm

import (
	"testing"

	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/spin"
)

func mustRun(t *testing.T, p *ir.Program, opts Options) Result {
	t.Helper()
	res, err := Run(p, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestArithmetic(t *testing.T) {
	b := ir.NewBuilder("t")
	out := b.Global("OUT")
	f := b.Func("main", 0)
	ten := f.Const(10)
	three := f.Const(3)
	sum := f.Add(ten, three)           // 13
	diff := f.Sub(sum, three)          // 10
	prod := f.Mul(diff, three)         // 30
	quot := f.Bin(ir.OpDiv, prod, ten) // 3
	rem := f.Bin(ir.OpMod, prod, ten)  // 0
	total := f.Add(quot, rem)          // 3
	f.StoreAddr(out, total)
	f.Ret(ir.NoReg)
	res := mustRun(t, b.MustBuild(), Options{Seed: 1})
	if got := res.Memory(0); got != 3 {
		t.Errorf("OUT = %d, want 3", got)
	}
}

func TestDivModByZeroAreTotal(t *testing.T) {
	b := ir.NewBuilder("t")
	out := b.Global("OUT")
	f := b.Func("main", 0)
	one := f.Const(1)
	zero := f.Const(0)
	d := f.Bin(ir.OpDiv, one, zero)
	m := f.Bin(ir.OpMod, one, zero)
	f.StoreAddr(out, f.Add(d, m))
	f.Ret(ir.NoReg)
	res := mustRun(t, b.MustBuild(), Options{Seed: 1})
	if got := res.Memory(0); got != 0 {
		t.Errorf("OUT = %d, want 0", got)
	}
}

func TestComparisonsAndBranch(t *testing.T) {
	b := ir.NewBuilder("t")
	out := b.Global("OUT")
	f := b.Func("main", 0)
	two := f.Const(2)
	three := f.Const(3)
	lt := f.CmpLT(two, three)
	thenB := f.NewBlock()
	elseB := f.NewBlock()
	f.Br(lt, thenB, elseB)
	f.SetBlock(thenB)
	seven := f.Const(7)
	f.StoreAddr(out, seven)
	f.Ret(ir.NoReg)
	f.SetBlock(elseB)
	nine := f.Const(9)
	f.StoreAddr(out, nine)
	f.Ret(ir.NoReg)
	res := mustRun(t, b.MustBuild(), Options{Seed: 1})
	if got := res.Memory(0); got != 7 {
		t.Errorf("OUT = %d, want 7 (branch taken)", got)
	}
}

func TestCallReturnValue(t *testing.T) {
	b := ir.NewBuilder("t")
	out := b.Global("OUT")
	add := b.Func("add2", 2)
	s := add.Add(0, 1)
	add.Ret(s)
	f := b.Func("main", 0)
	x := f.Const(20)
	y := f.Const(22)
	r := f.Call("add2", x, y)
	f.StoreAddr(out, r)
	f.Ret(ir.NoReg)
	res := mustRun(t, b.MustBuild(), Options{Seed: 1})
	if got := res.Memory(0); got != 42 {
		t.Errorf("OUT = %d, want 42", got)
	}
}

func TestIndirectCall(t *testing.T) {
	b := ir.NewBuilder("t")
	out := b.Global("OUT")
	cal := b.Func("callee", 1)
	one := cal.Const(1)
	cal.Ret(cal.Add(0, one))
	f := b.Func("main", 0)
	fp := f.FuncIndex("callee")
	arg := f.Const(41)
	r := f.CallIndirect(fp, arg)
	f.StoreAddr(out, r)
	f.Ret(ir.NoReg)
	res := mustRun(t, b.MustBuild(), Options{Seed: 1})
	if got := res.Memory(0); got != 42 {
		t.Errorf("OUT = %d, want 42", got)
	}
}

func TestCASSemantics(t *testing.T) {
	b := ir.NewBuilder("t")
	cell := b.Global("CELL")
	out := b.Global("OUT")
	f := b.Func("main", 0)
	zero := f.Const(0)
	one := f.Const(1)
	two := f.Const(2)
	a := f.Addr(cell, "CELL")
	ok1 := f.CAS(a, zero, one, "CELL") // succeeds: 0 -> 1
	ok2 := f.CAS(a, zero, two, "CELL") // fails: cell is 1
	sum := f.Add(ok1, ok2)
	f.StoreAddr(out, sum)
	f.Ret(ir.NoReg)
	res := mustRun(t, b.MustBuild(), Options{Seed: 1})
	if res.Memory(0) != 1 {
		t.Errorf("CELL = %d, want 1", res.Memory(0))
	}
	if res.Memory(8) != 1 {
		t.Errorf("OUT = %d, want 1 (one success, one failure)", res.Memory(8))
	}
}

func TestAtomicAddReturnsOld(t *testing.T) {
	b := ir.NewBuilder("t")
	cell := b.Global("CELL")
	out := b.Global("OUT")
	f := b.Func("main", 0)
	five := f.Const(5)
	a := f.Addr(cell, "CELL")
	old1 := f.AtomicAdd(a, five, "CELL")
	old2 := f.AtomicAdd(a, five, "CELL")
	f.StoreAddr(out, f.Add(old1, old2))
	f.Ret(ir.NoReg)
	res := mustRun(t, b.MustBuild(), Options{Seed: 1})
	if res.Memory(0) != 10 {
		t.Errorf("CELL = %d, want 10", res.Memory(0))
	}
	if res.Memory(8) != 5 { // 0 + 5
		t.Errorf("OUT = %d, want 5", res.Memory(8))
	}
}

func TestSpawnJoinOrder(t *testing.T) {
	b := ir.NewBuilder("t")
	cell := b.Global("CELL")
	child := b.Func("child", 1)
	a := child.Addr(cell, "CELL")
	child.Store(a, 0, "CELL")
	child.Ret(ir.NoReg)
	f := b.Func("main", 0)
	v := f.Const(99)
	tid := f.Spawn("child", v)
	f.Join(tid)
	f.Ret(ir.NoReg)
	res := mustRun(t, b.MustBuild(), Options{Seed: 7})
	if res.Memory(0) != 99 {
		t.Errorf("CELL = %d, want 99 (child arg)", res.Memory(0))
	}
	if res.Threads != 2 {
		t.Errorf("threads = %d, want 2", res.Threads)
	}
}

func TestDeterministicSameSeed(t *testing.T) {
	build := func() *ir.Program {
		b := ir.NewBuilder("t")
		cell := b.Global("CELL")
		for i := 0; i < 2; i++ {
			name := []string{"a", "b"}[i]
			f := b.Func(name, 0)
			val := f.Const(int64(i + 1))
			f.StoreAddr(cell, val)
			f.Ret(ir.NoReg)
		}
		m := b.Func("main", 0)
		t1 := m.Spawn("a")
		t2 := m.Spawn("b")
		m.Join(t1)
		m.Join(t2)
		m.Ret(ir.NoReg)
		return b.MustBuild()
	}
	var first []event.Event
	sink := event.SinkFunc(func(ev *event.Event) { first = append(first, *ev) })
	mustRun(t, build(), Options{Seed: 42, Sink: sink})
	var second []event.Event
	sink2 := event.SinkFunc(func(ev *event.Event) { second = append(second, *ev) })
	mustRun(t, build(), Options{Seed: 42, Sink: sink2})
	if len(first) != len(second) {
		t.Fatalf("event counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestDifferentSeedsDifferentInterleavings(t *testing.T) {
	// Two threads racing to set CELL last: across seeds both outcomes
	// should appear.
	build := func() *ir.Program {
		b := ir.NewBuilder("t")
		cell := b.Global("CELL")
		for i := 0; i < 2; i++ {
			f := b.Func([]string{"a", "b"}[i], 0)
			for k := 0; k < 8; k++ {
				val := f.Const(int64(i + 1))
				f.StoreAddr(cell, val)
			}
			f.Ret(ir.NoReg)
		}
		m := b.Func("main", 0)
		t1 := m.Spawn("a")
		t2 := m.Spawn("b")
		m.Join(t1)
		m.Join(t2)
		m.Ret(ir.NoReg)
		return b.MustBuild()
	}
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 30; seed++ {
		res := mustRun(t, build(), Options{Seed: seed})
		seen[res.Memory(0)] = true
	}
	if !seen[1] || !seen[2] {
		t.Errorf("only outcomes %v observed across seeds; scheduler too rigid", seen)
	}
}

func TestStepLimit(t *testing.T) {
	b := ir.NewBuilder("t")
	f := b.Func("main", 0)
	loop := f.NewBlock()
	f.Jmp(loop)
	f.SetBlock(loop)
	f.Nop()
	f.Jmp(loop)
	_, err := Run(b.MustBuild(), Options{Seed: 1, maxSteps: 1000})
	if err != ErrStepLimit {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Two threads joining each other... not expressible; instead main
	// joins a thread that joins main's id (0): child blocks forever on a
	// thread that is itself blocked.
	b := ir.NewBuilder("t")
	child := b.Func("child", 1)
	child.Join(0) // joins tid passed in arg0 (= main)
	child.Ret(ir.NoReg)
	f := b.Func("main", 0)
	zero := f.Const(0)
	tid := f.Spawn("child", zero)
	f.Join(tid)
	f.Ret(ir.NoReg)
	_, err := Run(b.MustBuild(), Options{Seed: 1})
	if err != ErrDeadlock {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestNoMainError(t *testing.T) {
	b := ir.NewBuilder("t")
	f := b.Func("notmain", 0)
	f.Ret(ir.NoReg)
	if _, err := Run(b.MustBuild(), Options{}); err == nil {
		t.Fatal("expected error for missing main")
	}
}

// eventsOf runs the program and collects its stream.
func eventsOf(t *testing.T, p *ir.Program, opts Options) []event.Event {
	t.Helper()
	var evs []event.Event
	opts.Sink = event.SinkFunc(func(ev *event.Event) { evs = append(evs, *ev) })
	if _, err := Run(p, opts); err != nil {
		t.Fatal(err)
	}
	return evs
}

func libSuppressionProgram() *ir.Program {
	b := ir.NewBuilder("t")
	mu := b.Global("MU")
	lock := b.LibFunc("pthread_mutex_lock", 1, ir.LibPthread, ir.SyncMutexLock)
	zero := lock.Const(0)
	one := lock.Const(1)
	_ = lock.CAS(0, zero, one, "")
	lock.Ret(ir.NoReg)
	unlock := b.LibFunc("pthread_mutex_unlock", 1, ir.LibPthread, ir.SyncMutexUnlock)
	z := unlock.Const(0)
	unlock.AtomicStore(0, z, "")
	unlock.Ret(ir.NoReg)

	f := b.Func("main", 0)
	a := f.Addr(mu, "MU")
	f.Call("pthread_mutex_lock", a)
	a2 := f.Addr(mu, "MU")
	f.Call("pthread_mutex_unlock", a2)
	f.Ret(ir.NoReg)
	return b.MustBuild()
}

func TestInterceptionHidesInternalsAndEmitsSyncEvents(t *testing.T) {
	p := libSuppressionProgram()
	evs := eventsOf(t, p, Options{Seed: 1, KnownLibs: map[ir.LibTag]bool{ir.LibPthread: true}})
	var syncs, accesses int
	for _, ev := range evs {
		switch {
		case ev.Kind == event.KindSyncPre || ev.Kind == event.KindSyncPost:
			syncs++
		case ev.Kind.IsAccess():
			accesses++
		}
	}
	if syncs != 4 { // pre+post for lock and unlock
		t.Errorf("sync events = %d, want 4", syncs)
	}
	if accesses != 0 {
		t.Errorf("library-internal accesses leaked: %d", accesses)
	}
}

func TestNoInterceptionExposesInternals(t *testing.T) {
	p := libSuppressionProgram()
	evs := eventsOf(t, p, Options{Seed: 1, KnownLibs: map[ir.LibTag]bool{}})
	var syncs, accesses int
	for _, ev := range evs {
		switch {
		case ev.Kind == event.KindSyncPre || ev.Kind == event.KindSyncPost:
			syncs++
		case ev.Kind.IsAccess():
			accesses++
		}
	}
	if syncs != 0 {
		t.Errorf("sync events = %d, want 0 without interception", syncs)
	}
	if accesses == 0 {
		t.Error("raw accesses should be visible without interception")
	}
}

func TestSpinMarksEmitted(t *testing.T) {
	b := ir.NewBuilder("t")
	flag := b.Global("FLAG")
	w := b.Func("writer", 0)
	one := w.Const(1)
	w.StoreAddr(flag, one)
	w.Ret(ir.NoReg)
	r := b.Func("spinner", 0)
	zero := r.Const(0)
	header := r.NewBlock()
	body := r.NewBlock()
	exit := r.NewBlock()
	r.Jmp(header)
	r.SetBlock(header)
	v := r.LoadAddr(flag)
	r.Br(r.CmpEQ(v, zero), body, exit)
	r.SetBlock(body)
	r.Yield()
	r.Jmp(header)
	r.SetBlock(exit)
	r.Ret(ir.NoReg)
	m := b.Func("main", 0)
	t1 := m.Spawn("writer")
	t2 := m.Spawn("spinner")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)
	p := b.MustBuild()
	ins := spin.Analyze(p, 7)
	if ins.NumLoops() != 1 {
		t.Fatalf("loops = %d", ins.NumLoops())
	}
	evs := eventsOf(t, p, Options{Seed: 1, Instr: ins})
	var reads, exits int
	sawReadBeforeAccess := false
	for i, ev := range evs {
		switch ev.Kind {
		case event.KindSpinRead:
			reads++
			if i+1 < len(evs) && evs[i+1].Kind == event.KindRead && evs[i+1].Addr == ev.Addr {
				sawReadBeforeAccess = true
			}
		case event.KindSpinExit:
			exits++
		}
	}
	if reads == 0 || exits != 1 {
		t.Errorf("spin reads=%d exits=%d, want >0 and 1", reads, exits)
	}
	if !sawReadBeforeAccess {
		t.Error("spin-read mark must precede its access event")
	}
}

func TestMemoryGrowth(t *testing.T) {
	b := ir.NewBuilder("t")
	f := b.Func("main", 0)
	addr := f.Const(1 << 16) // beyond initial allocation
	one := f.Const(1)
	f.Store(addr, one, "")
	v := f.Load(addr, "")
	out := f.Const(0)
	f.Store(out, v, "")
	f.Ret(ir.NoReg)
	res := mustRun(t, b.MustBuild(), Options{Seed: 1})
	if res.Memory(0) != 1 {
		t.Errorf("growth round-trip failed: %d", res.Memory(0))
	}
}

func TestNegativeAddressError(t *testing.T) {
	b := ir.NewBuilder("t")
	f := b.Func("main", 0)
	addr := f.Const(-8)
	one := f.Const(1)
	f.Store(addr, one, "")
	f.Ret(ir.NoReg)
	if _, err := Run(b.MustBuild(), Options{Seed: 1}); err == nil {
		t.Fatal("negative address store must error")
	}
}

func TestShiftMasking(t *testing.T) {
	b := ir.NewBuilder("t")
	out := b.Global("OUT")
	f := b.Func("main", 0)
	one := f.Const(1)
	big := f.Const(65) // 65 & 63 == 1
	v := f.Bin(ir.OpShl, one, big)
	f.StoreAddr(out, v)
	f.Ret(ir.NoReg)
	res := mustRun(t, b.MustBuild(), Options{Seed: 1})
	if res.Memory(0) != 2 {
		t.Errorf("1 << 65 = %d, want 2 (masked)", res.Memory(0))
	}
}

// TestSegmentedRunIdenticalStream runs the same program+seed with the
// synchronous sink and behind the segment pipeline, which overlaps every
// event handed to it, on a stream of several segments, and asserts the
// sink observes the identical event sequence once vm.Run has flushed the
// pipeline.
func TestSegmentedRunIdenticalStream(t *testing.T) {
	build := func() *ir.Program {
		b := ir.NewBuilder("t")
		cell := b.Global("CELL")
		other := b.Global("OTHER")
		// Two workers, three events per iteration each: about six
		// segments in all.
		w := b.Func("worker", 1)
		one := w.Const(1)
		lim := w.Const(event.DefaultSegmentEvents)
		i := w.Mov(w.Const(0))
		head, body, done := w.NewBlock(), w.NewBlock(), w.NewBlock()
		w.Jmp(head)
		w.SetBlock(head)
		w.Br(w.CmpLT(i, lim), body, done)
		w.SetBlock(body)
		w.StoreAddr(cell, i)
		w.StoreAddr(other, i)
		w.LoadAddr(cell)
		w.BinTo(ir.OpAdd, i, i, one)
		w.Jmp(head)
		w.SetBlock(done)
		w.Ret(ir.NoReg)
		m := b.Func("main", 0)
		arg := m.Const(0)
		t1 := m.Spawn("worker", arg)
		t2 := m.Spawn("worker", arg)
		m.Join(t1)
		m.Join(t2)
		m.Ret(ir.NoReg)
		return b.MustBuild()
	}
	record := func(segmented bool) []event.Event {
		var got []event.Event
		var sink event.Sink = event.SinkFunc(func(ev *event.Event) { got = append(got, *ev) })
		if segmented {
			seg := event.NewSegmented(sink)
			defer seg.Close()
			sink = seg
		}
		mustRun(t, build(), Options{Seed: 3, Sink: sink})
		return got
	}
	want := record(false)
	if len(want) <= 2*event.DefaultSegmentEvents {
		t.Fatalf("program emitted %d events, want more than two segments of %d", len(want), event.DefaultSegmentEvents)
	}
	got := record(true)
	if len(got) != len(want) {
		t.Fatalf("segmented: %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segmented: event %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}
