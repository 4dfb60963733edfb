package detect

import (
	"testing"

	"adhocrace/internal/ir"
	"adhocrace/internal/synclib"
)

// buildChurnProgram builds a workload that uses many short-lived mutexes
// and condvars — two threads hand a counter through each — optionally
// destroying every primitive after its last use, the way a long-running
// service recycles locks.
func buildChurnProgram(destroy bool) *ir.Program {
	const objs = 32
	b := ir.NewBuilder("churn")
	lib := synclib.Install(b, ir.LibPthread)
	mutexes := make([]int64, objs)
	data := b.Global("DATA")
	for i := range mutexes {
		mutexes[i] = b.Global("m" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}

	worker := b.Func("worker", 0)
	for _, m := range mutexes {
		lib.Lock(worker, m, "")
		v := worker.LoadAddr(data)
		one := worker.Const(1)
		worker.StoreAddr(data, worker.Add(v, one))
		lib.Unlock(worker, m, "")
	}
	worker.Ret(ir.NoReg)

	m := b.Func("main", 0)
	tid := m.Spawn("worker")
	for _, mu := range mutexes {
		lib.Lock(m, mu, "")
		v := m.LoadAddr(data)
		one := m.Const(1)
		m.StoreAddr(data, m.Add(v, one))
		lib.Unlock(m, mu, "")
	}
	m.Join(tid)
	if destroy {
		for _, mu := range mutexes {
			lib.Destroy(m, "mutex", mu, "")
		}
	}
	m.Ret(ir.NoReg)
	return b.MustBuild()
}

// TestDestroyReleasesEngineState is the detector-level accounting test for
// sync-object destruction: a run that destroys its primitives must report
// the identical warnings but strictly less shadow memory, because the
// happens-before engine forgot the destroyed objects' clocks.
func TestDestroyReleasesEngineState(t *testing.T) {
	for _, cfg := range []Config{HelgrindPlusLib(), HelgrindPlusLibSpin(7)} {
		kept, _, err := Prepare(buildChurnProgram(false)).Run(cfg, 1, RunOpts{})
		if err != nil {
			t.Fatalf("%s without destroy: %v", cfg.Name, err)
		}
		freed, _, err := Prepare(buildChurnProgram(true)).Run(cfg, 1, RunOpts{})
		if err != nil {
			t.Fatalf("%s with destroy: %v", cfg.Name, err)
		}
		if len(kept.Warnings) != len(freed.Warnings) {
			t.Errorf("%s: destroy changed warnings: %d vs %d",
				cfg.Name, len(kept.Warnings), len(freed.Warnings))
		}
		if freed.ShadowBytes >= kept.ShadowBytes {
			t.Errorf("%s: destroy must shrink shadow bytes: kept %d, freed %d",
				cfg.Name, kept.ShadowBytes, freed.ShadowBytes)
		}
	}
}

// TestDestroyedObjectOrderingDropped pins the semantics: an acquire after
// destruction imports nothing (use-after-destroy is undefined behavior, so
// dropping the history is licensed), which the race report reflects.
func TestDestroyedObjectOrderingDropped(t *testing.T) {
	build := func(destroy bool) *ir.Program {
		b := ir.NewBuilder("uad")
		lib := synclib.Install(b, ir.LibPthread)
		mu := b.Global("MU")
		data := b.Global("D")

		w := b.Func("worker", 0)
		lib.Lock(w, mu, "MU")
		one := w.Const(1)
		w.StoreAddr(data, one)
		lib.Unlock(w, mu, "MU")
		if destroy {
			lib.Destroy(w, "mutex", mu, "MU")
		}
		w.Ret(ir.NoReg)

		m := b.Func("main", 0)
		tid := m.Spawn("worker")
		m.Join(tid)
		// Ordered through the join either way; the lock state is just gone.
		lib.Lock(m, mu, "MU")
		two := m.Const(2)
		m.StoreAddr(data, two)
		lib.Unlock(m, mu, "MU")
		m.Ret(ir.NoReg)
		return b.MustBuild()
	}
	cfg := HelgrindPlusLib()
	for _, destroy := range []bool{false, true} {
		rep, _, err := Prepare(build(destroy)).Run(cfg, 1, RunOpts{})
		if err != nil {
			t.Fatalf("destroy=%v: %v", destroy, err)
		}
		if rep.HasWarnings() {
			t.Errorf("destroy=%v: spurious warnings %v (join still orders the accesses)",
				destroy, rep.Warnings)
		}
	}
}
