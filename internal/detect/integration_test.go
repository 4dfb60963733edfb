package detect

import (
	"testing"

	"adhocrace/internal/ir"
	"adhocrace/internal/synclib"
)

// adhocFlagProgram is the paper's slide-15 example: thread 1 writes DATA and
// raises FLAG; thread 2 spins on FLAG and then writes DATA. Race-free, but
// only a detector that understands the spinning read loop can know that.
func adhocFlagProgram(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("adhoc-flag")
	flag := b.Global("FLAG")
	data := b.Global("DATA")

	w := b.Func("writer", 0)
	w.SetLoc("app.c", 10)
	one := w.Const(1)
	d := w.LoadAddr(data)
	d1 := w.Add(d, one)
	w.StoreAddr(data, d1)
	w.StoreAddr(flag, one)
	w.Ret(ir.NoReg)

	r := b.Func("reader", 0)
	r.SetLoc("app.c", 30)
	zero := r.Const(0)
	one2 := r.Const(1)
	header := r.NewBlock()
	body := r.NewBlock()
	exit := r.NewBlock()
	r.Jmp(header)
	r.SetBlock(header)
	v := r.LoadAddr(flag)
	waiting := r.CmpEQ(v, zero)
	r.Br(waiting, body, exit)
	r.SetBlock(body)
	r.Yield()
	r.Jmp(header)
	r.SetBlock(exit)
	d2 := r.LoadAddr(data)
	d3 := r.Sub(d2, one2)
	r.StoreAddr(data, d3)
	r.Ret(ir.NoReg)

	m := b.Func("main", 0)
	m.SetLoc("app.c", 50)
	t1 := m.Spawn("writer")
	t2 := m.Spawn("reader")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)

	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

// racyProgram has a genuine data race: two threads increment DATA with no
// synchronization at all.
func racyProgram(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("racy")
	data := b.Global("DATA")

	for _, name := range []string{"inc1", "inc2"} {
		f := b.Func(name, 0)
		f.SetLoc(name+".c", 10)
		one := f.Const(1)
		d := f.LoadAddr(data)
		d1 := f.Add(d, one)
		f.StoreAddr(data, d1)
		f.Ret(ir.NoReg)
	}

	m := b.Func("main", 0)
	t1 := m.Spawn("inc1")
	t2 := m.Spawn("inc2")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)

	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

// mutexProgram increments DATA under a pthread mutex from two threads:
// race-free through library synchronization.
func mutexProgram(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("mutex")
	lib := synclib.Install(b, ir.LibPthread)
	mu := b.Global("MU")
	data := b.Global("DATA")

	for _, name := range []string{"inc1", "inc2"} {
		f := b.Func(name, 0)
		f.SetLoc(name+".c", 10)
		lib.Lock(f, mu, "MU")
		one := f.Const(1)
		d := f.LoadAddr(data)
		d1 := f.Add(d, one)
		f.StoreAddr(data, d1)
		lib.Unlock(f, mu, "MU")
		f.Ret(ir.NoReg)
	}

	m := b.Func("main", 0)
	t1 := m.Spawn("inc1")
	t2 := m.Spawn("inc2")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)

	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func mustRun(t *testing.T, p *ir.Program, cfg Config, seed int64) *Report {
	t.Helper()
	rep, res, err := Prepare(p).Run(cfg, seed, RunOpts{})
	if err != nil {
		t.Fatalf("%s on %s (seed %d): %v", cfg.Name, p.Name, seed, err)
	}
	if res.Steps == 0 {
		t.Fatalf("%s on %s: no steps executed", cfg.Name, p.Name)
	}
	return rep
}

func TestAdhocFlagFalsePositiveElimination(t *testing.T) {
	p := adhocFlagProgram(t)
	for seed := int64(1); seed <= 5; seed++ {
		libRep := mustRun(t, p, HelgrindPlusLib(), seed)
		if !libRep.HasWarnings() {
			t.Errorf("seed %d: Helgrind+ lib should produce the false positive on ad-hoc sync", seed)
		}
		spinRep := mustRun(t, p, HelgrindPlusLibSpin(7), seed)
		if spinRep.HasWarnings() {
			t.Errorf("seed %d: Helgrind+ lib+spin(7) should suppress it, got %v", seed, spinRep.Warnings)
		}
		if spinRep.SpinLoops == 0 {
			t.Errorf("seed %d: expected at least one classified spin loop", seed)
		}
		noRep := mustRun(t, p, HelgrindPlusNolibSpin(7), seed)
		if noRep.HasWarnings() {
			t.Errorf("seed %d: universal detector should suppress it, got %v", seed, noRep.Warnings)
		}
	}
}

func TestRacyProgramDetected(t *testing.T) {
	p := racyProgram(t)
	for _, cfg := range PaperTools(7) {
		found := false
		for seed := int64(1); seed <= 5; seed++ {
			if mustRun(t, p, cfg, seed).HasWarnings() {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: real race never detected in 5 seeds", cfg.Name)
		}
	}
}

func TestMutexProgramCleanEverywhere(t *testing.T) {
	p := mutexProgram(t)
	for _, cfg := range PaperTools(7) {
		for seed := int64(1); seed <= 3; seed++ {
			rep := mustRun(t, p, cfg, seed)
			if rep.HasWarnings() {
				t.Errorf("%s seed %d: mutex-protected counter reported racy: %v",
					cfg.Name, seed, rep.Warnings)
			}
		}
	}
}

func TestMutexProgramResult(t *testing.T) {
	p := mutexProgram(t)
	_, res, err := Prepare(p).Run(HelgrindPlusNolibSpin(7), 3, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Memory(8); got != 2 { // DATA is the second global
		t.Errorf("DATA = %d, want 2", got)
	}
}
