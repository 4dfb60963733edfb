// Lock-inference tests live in the external test package: they import the
// accuracy suite (which, via the synthesis engine, imports detect — an
// import cycle for an in-package test) and reach the shared in-package
// helpers through the export_test.go bridge.
package detect_test

import (
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/ir"
	"adhocrace/internal/workloads/dataracetest"
)

// twoPhaseLockProgram builds a critical section protected by a two-phase
// lock: a fast-path CAS outside any loop, falling back to a CAS-acquire
// spin loop. When a thread wins the lock on the fast path, no spin-exit
// fires — the plain universal detector misses the acquire edge and reports
// a false positive on the protected data. Lock-operation identification
// (the paper's future work) recognizes LOCK as a lock word from the slow
// path's classified loop and imports the release history on every
// successful CAS.
func twoPhaseLockProgram(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("two-phase")
	lock := b.Global("LOCK")
	data := b.Global("DATA")

	for _, name := range []string{"w0", "w1"} {
		f := b.Func(name, 0)
		f.SetLoc(name+".c", 10)
		zero := f.Const(0)
		one := f.Const(1)
		la := f.Addr(lock, "LOCK")

		crit := f.NewBlock()
		slowHeader := f.NewBlock()
		slowBody := f.NewBlock()

		// Fast path: a single CAS attempt, not part of any loop.
		fast := f.CAS(la, zero, one, "LOCK")
		f.Br(fast, crit, slowHeader)

		// Slow path: the classic CAS-acquire spin loop.
		f.SetBlock(slowHeader)
		ok := f.CAS(la, zero, one, "LOCK")
		f.Br(ok, crit, slowBody)
		f.SetBlock(slowBody)
		f.Yield()
		f.Jmp(slowHeader)

		// Critical section and release.
		f.SetBlock(crit)
		v := f.LoadAddr(data)
		f.StoreAddr(data, f.Add(v, one))
		f.AtomicStore(f.Addr(lock, "LOCK"), zero, "LOCK")
		f.Ret(ir.NoReg)
	}

	m := b.Func("main", 0)
	t1 := m.Spawn("w0")
	t2 := m.Spawn("w1")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLockInferenceFixesFastPathAcquire(t *testing.T) {
	p := twoPhaseLockProgram(t)

	// Find a seed where the second locker wins on the fast path (the
	// first holder released before the second's first CAS): without lock
	// identification the universal detector produces the false positive.
	var fpSeed int64 = -1
	for seed := int64(1); seed <= 40; seed++ {
		rep := detect.MustRunForTest(t, p, detect.HelgrindPlusNolibSpin(7), seed)
		if rep.HasWarnings() {
			fpSeed = seed
			break
		}
	}
	if fpSeed < 0 {
		t.Fatal("no schedule exercised the fast path; test workload broken")
	}

	// The extension must be clean on that same schedule.
	rep := detect.MustRunForTest(t, p, detect.HelgrindPlusNolibSpinLocks(7), fpSeed)
	if rep.HasWarnings() {
		t.Errorf("lock inference still reported: %v", rep.Warnings)
	}
	if rep.InferredLockWords == 0 {
		t.Error("no lock words identified")
	}
}

func TestLockInferenceCleanOnAllSeeds(t *testing.T) {
	p := twoPhaseLockProgram(t)
	for seed := int64(1); seed <= 20; seed++ {
		rep := detect.MustRunForTest(t, p, detect.HelgrindPlusNolibSpinLocks(7), seed)
		if rep.HasWarnings() {
			t.Errorf("seed %d: %v", seed, rep.Warnings)
		}
	}
}

func TestLockInferenceDoesNotMaskRealRaces(t *testing.T) {
	// A genuine race next to a lock word must still be caught with the
	// extension on.
	p := detect.RacyProgramForTest(t)
	found := false
	for seed := int64(1); seed <= 5; seed++ {
		if detect.MustRunForTest(t, p, detect.HelgrindPlusNolibSpinLocks(7), seed).HasWarnings() {
			found = true
			break
		}
	}
	if !found {
		t.Error("extension masked a real race")
	}
}

func TestLockInferencePreservesTable1(t *testing.T) {
	// The extension must not change the accuracy suite results relative to
	// nolib+spin(7) — the suite has no two-phase locks, so the numbers
	// stay at the paper's 9/7.
	if testing.Short() {
		t.Skip("full-suite check skipped in -short mode")
	}
	fa, mr := 0, 0
	for _, c := range dataracetest.Suite() {
		rep, _, err := detect.Prepare(c.Build()).Run(detect.HelgrindPlusNolibSpinLocks(7), 1, detect.RunOpts{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		warned := rep.HasWarnings()
		if !c.Racy && warned {
			fa++
		}
		if c.Racy && !warned {
			mr++
		}
	}
	if fa != 9 || mr != 7 {
		t.Errorf("nolib+spin+locks: FA=%d MR=%d, want 9/7 (unchanged)", fa, mr)
	}
}
