package detect

import (
	"testing"

	"adhocrace/internal/ir"
	"adhocrace/internal/synclib"
)

// barrierSharedProgram: shared cell written before and read after a pthread
// barrier — ordered for barrier-aware detectors only.
func barrierSharedProgram(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("barrier-shared")
	lib := synclib.Install(b, ir.LibPthread)
	bar := b.Global("BAR")
	x := b.Global("X")

	w := b.Func("writer", 0)
	w.SetLoc("writer.c", 10)
	one := w.Const(1)
	w.StoreAddr(x, one)
	lib.Barrier(w, bar, "BAR", 2)
	w.Ret(ir.NoReg)

	r := b.Func("reader", 0)
	r.SetLoc("reader.c", 10)
	lib.Barrier(r, bar, "BAR", 2)
	_ = r.LoadAddr(x)
	r.Ret(ir.NoReg)

	m := b.Func("main", 0)
	t1 := m.Spawn("writer")
	t2 := m.Spawn("reader")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDRDBarrierBlindness(t *testing.T) {
	p := barrierSharedProgram(t)
	hp := mustRun(t, p, HelgrindPlusLibSpin(7), 1)
	if hp.HasWarnings() {
		t.Errorf("barrier-aware Helgrind+ warned: %v", hp.Warnings)
	}
	drd := mustRun(t, p, DRD(), 1)
	if !drd.HasWarnings() {
		t.Error("DRD has no barrier model and must warn")
	}
}

func TestUniversalDetectorHandlesBarrier(t *testing.T) {
	p := barrierSharedProgram(t)
	rep := mustRun(t, p, HelgrindPlusNolibSpin(7), 1)
	if rep.HasWarnings() {
		t.Errorf("universal detector warned on barrier-ordered data: %v", rep.Warnings)
	}
	if rep.SpinEdges == 0 {
		t.Error("expected spin edges through the barrier internals")
	}
}

// atomicPairProgram: two threads fetch-add the same cell. Atomic-atomic
// conflicts are not data races.
func atomicPairProgram(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("atomic-pair")
	x := b.Global("X")
	for _, name := range []string{"a", "b"} {
		f := b.Func(name, 0)
		f.SetLoc(name+".c", 10)
		one := f.Const(1)
		a := f.Addr(x, "X")
		f.AtomicAdd(a, one, "X")
		f.Ret(ir.NoReg)
	}
	m := b.Func("main", 0)
	t1 := m.Spawn("a")
	t2 := m.Spawn("b")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAtomicAtomicIsNotARace(t *testing.T) {
	p := atomicPairProgram(t)
	for _, cfg := range PaperTools(7) {
		for seed := int64(1); seed <= 3; seed++ {
			rep := mustRun(t, p, cfg, seed)
			if rep.HasWarnings() {
				t.Errorf("%s seed %d: atomic-atomic pair reported: %v", cfg.Name, seed, rep.Warnings)
			}
		}
	}
}

func TestMixedAtomicPlainIsARace(t *testing.T) {
	b := ir.NewBuilder("mixed")
	x := b.Global("X")
	f := b.Func("a", 0)
	f.SetLoc("a.c", 10)
	one := f.Const(1)
	addr := f.Addr(x, "X")
	f.AtomicAdd(addr, one, "X")
	f.Ret(ir.NoReg)
	g := b.Func("b", 0)
	g.SetLoc("b.c", 10)
	two := g.Const(2)
	g.StoreAddr(x, two)
	g.Ret(ir.NoReg)
	m := b.Func("main", 0)
	t1 := m.Spawn("a")
	t2 := m.Spawn("b")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The spin-enabled hybrid must catch it; the lib-mode atomic
	// heuristic suppresses it (the paper's recovered false negative).
	if rep := mustRun(t, p, HelgrindPlusLibSpin(7), 1); !rep.HasWarnings() {
		t.Error("lib+spin missed the mixed atomic/plain race")
	}
	if rep := mustRun(t, p, HelgrindPlusLib(), 1); rep.HasWarnings() {
		t.Error("lib-mode atomic heuristic should have suppressed it")
	}
}

func TestDRDHistoryDropsFarPairs(t *testing.T) {
	// Writer touches X, grinds a long private delay; reader touches X
	// afterwards. Unlimited history catches it; a small window does not.
	b := ir.NewBuilder("window")
	x := b.Global("X")
	scratch := b.Global("S")

	w := b.Func("fast", 0)
	w.SetLoc("fast.c", 10)
	one := w.Const(1)
	w.StoreAddr(x, one)
	w.Ret(ir.NoReg)

	r := b.Func("slow", 0)
	r.SetLoc("slow.c", 10)
	zero := r.Const(0)
	one2 := r.Const(1)
	limit := r.Const(3000)
	i := r.Mov(zero)
	a := r.Addr(scratch, "S")
	header := r.NewBlock()
	body := r.NewBlock()
	exit := r.NewBlock()
	r.Jmp(header)
	r.SetBlock(header)
	c := r.CmpLT(i, limit)
	r.Br(c, body, exit)
	r.SetBlock(body)
	v := r.Load(a, "S")
	r.Store(a, r.Add(v, one2), "S")
	r.BinTo(ir.OpAdd, i, i, one2)
	r.Jmp(header)
	r.SetBlock(exit)
	_ = r.LoadAddr(x)
	r.Ret(ir.NoReg)

	m := b.Func("main", 0)
	t1 := m.Spawn("fast")
	t2 := m.Spawn("slow")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if rep := mustRun(t, p, HelgrindPlusLib(), 1); !rep.HasWarnings() {
		t.Error("unlimited history must catch the far pair")
	}
	if rep := mustRun(t, p, DRD(), 1); rep.HasWarnings() {
		t.Errorf("bounded history should have recycled the far pair: %v", rep.Warnings)
	}
}

func TestDedupModes(t *testing.T) {
	// One address racing at several distinct sites: per-address dedup
	// yields one context, per-site dedup several.
	b := ir.NewBuilder("dedup")
	x := b.Global("X")
	w := b.Func("writer", 0)
	one := w.Const(1)
	w.SetLoc("writer.c", 10)
	w.StoreAddr(x, one)
	w.Ret(ir.NoReg)
	r := b.Func("reader", 0)
	for k := 0; k < 4; k++ {
		r.SetLoc("reader.c", 10+k*10)
		_ = r.LoadAddr(x)
	}
	r.Ret(ir.NoReg)
	m := b.Func("main", 0)
	t2 := m.Spawn("reader")
	t1 := m.Spawn("writer")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for seed := int64(1); seed <= 10; seed++ {
		hp := mustRun(t, p, HelgrindPlusLibSpin(7), seed)
		drd := mustRun(t, p, DRD(), seed)
		if hp.RacyContexts() == 1 && drd.RacyContexts() > 1 {
			found = true
			break
		}
	}
	if !found {
		t.Error("expected per-address (1 context) vs per-site (>1) dedup difference in some schedule")
	}
}

func TestEraserDetectsScheduleHiddenRace(t *testing.T) {
	// Discipline violation ordered by a fortuitous semaphore: HB tools
	// miss it, the lockset reference catches it.
	b := ir.NewBuilder("hidden")
	lib := synclib.Install(b, ir.LibPthread)
	sem := b.Global("SEM")
	x := b.Global("X")
	f := b.Func("first", 0)
	f.SetLoc("first.c", 10)
	one := f.Const(1)
	f.StoreAddr(x, one)
	lib.SemPost(f, sem, "SEM")
	f.Ret(ir.NoReg)
	g := b.Func("second", 0)
	g.SetLoc("second.c", 10)
	lib.SemWait(g, sem, "SEM")
	two := g.Const(2)
	g.StoreAddr(x, two)
	g.Ret(ir.NoReg)
	m := b.Func("main", 0)
	t1 := m.Spawn("first")
	t2 := m.Spawn("second")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if rep := mustRun(t, p, HelgrindPlusLibSpin(7), 1); rep.HasWarnings() {
		t.Errorf("HB tool reported the ordered pair: %v", rep.Warnings)
	}
	if rep := mustRun(t, p, Eraser(), 1); !rep.HasWarnings() {
		t.Error("Eraser must flag the lock-discipline violation")
	}
}

func TestWarningString(t *testing.T) {
	w := Warning{Kind: WarnHBRace, Loc: ir.Loc{File: "a.c", Line: 3}, Sym: "X", Tid: 1, Other: 2, Write: true}
	s := w.String()
	for _, want := range []string{"hb-race", "write", "X", "a.c:3", "T1", "T2"} {
		if !containsStr(s, want) {
			t.Errorf("warning string %q missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestConfigPresetNames(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		name string
	}{
		{HelgrindPlusLib(), "Helgrind+ lib"},
		{HelgrindPlusLibSpin(7), "Helgrind+ lib+spin(7)"},
		{HelgrindPlusNolibSpin(3), "Helgrind+ nolib+spin(3)"},
		{DRD(), "DRD"},
		{Eraser(), "Eraser"},
	} {
		if c.cfg.Name != c.name {
			t.Errorf("preset name %q, want %q", c.cfg.Name, c.name)
		}
	}
	if HelgrindPlusLib().SpinWindow != 0 {
		t.Error("lib preset must disable the spin feature")
	}
	drd := DRD()
	if drd.supportsSync(ir.SyncBarrierWait) {
		t.Error("DRD must not support barriers")
	}
	if !drd.supportsSync(ir.SyncMutexLock) {
		t.Error("DRD must support mutexes")
	}
}

func TestReportContextList(t *testing.T) {
	p := racyProgram(t)
	rep := mustRun(t, p, HelgrindPlusLibSpin(7), 1)
	if !rep.HasWarnings() {
		t.Skip("race did not manifest under this seed")
	}
	list := rep.ContextList()
	if len(list) != rep.RacyContexts() {
		t.Errorf("ContextList len %d != RacyContexts %d", len(list), rep.RacyContexts())
	}
	if rep.ShadowBytes <= 0 {
		t.Error("shadow accounting must be positive")
	}
}
