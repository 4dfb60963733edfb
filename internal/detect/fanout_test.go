package detect_test

import (
	"fmt"
	"slices"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/harness"
	"adhocrace/internal/ir"
	"adhocrace/internal/synth"
	"adhocrace/internal/vm"
	"adhocrace/internal/workloads/dataracetest"
	"adhocrace/internal/workloads/parsec"
)

// sharedProgram is one program of the stream-equivalence grid.
type sharedProgram struct {
	name string
	prep *detect.Prepared
}

// nestedLibProgram nests libraries: OpenMP's lock calls GLIB's, which
// calls pthread's, whose CAS acquire spins. A consumer intercepting GLIB
// but not OpenMP must see GLIB's call as the sync event and nothing of
// the pthread call inside it, which a shared run intercepting pthread
// outright does emit. No generated or registered workload nests
// libraries.
func nestedLibProgram() *ir.Program {
	b := ir.NewBuilder("nested-libs")
	mu := b.Global("MU")
	data := b.Global("DATA")
	owner := b.Global("OWNER")
	lock := b.LibFunc("pthread_mutex_lock", 1, ir.LibPthread, ir.SyncMutexLock)
	zero, one := lock.Const(0), lock.Const(1)
	header, retry, done := lock.NewBlock(), lock.NewBlock(), lock.NewBlock()
	lock.Jmp(header)
	lock.SetBlock(header)
	lock.Br(lock.CAS(0, zero, one, ""), done, retry)
	lock.SetBlock(retry)
	lock.Yield()
	lock.Jmp(header)
	lock.SetBlock(done)
	lock.Ret(ir.NoReg)
	unlock := b.LibFunc("pthread_mutex_unlock", 1, ir.LibPthread, ir.SyncMutexUnlock)
	unlock.AtomicStore(0, unlock.Const(0), "")
	unlock.Ret(ir.NoReg)
	for _, l := range []struct {
		lib          ir.LibTag
		lock, unlock string
		inner        string
	}{
		{ir.LibGlib, "g_mutex_lock", "g_mutex_unlock", "pthread_mutex_"},
		{ir.LibOMP, "omp_set_lock", "omp_unset_lock", "g_mutex_"},
	} {
		f := b.LibFunc(l.lock, 1, l.lib, ir.SyncMutexLock)
		f.Call(l.inner+"lock", 0)
		f.StoreAddr(owner, f.Const(1))
		f.Ret(ir.NoReg)
		f = b.LibFunc(l.unlock, 1, l.lib, ir.SyncMutexUnlock)
		f.StoreAddr(owner, f.Const(0))
		f.Call(l.inner+"unlock", 0)
		f.Ret(ir.NoReg)
	}
	w := b.Func("worker", 0)
	for _, l := range [][2]string{{"omp_set_lock", "omp_unset_lock"}, {"g_mutex_lock", "g_mutex_unlock"}} {
		a := w.Addr(mu, "MU")
		w.Call(l[0], a)
		w.StoreAddr(data, w.Add(w.LoadAddr(data), w.Const(1)))
		w.Call(l[1], a)
	}
	w.Ret(ir.NoReg)
	m := b.Func("main", 0)
	t1, t2 := m.Spawn("worker"), m.Spawn("worker")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)
	return b.MustBuild()
}

// sharedPrograms is the grid: every accuracy-suite case, every PARSEC
// model, synth:1–32 and nestedLibProgram (with -short, every eighth suite
// case, four models, synth:1–4 and nestedLibProgram).
func sharedPrograms() []sharedProgram {
	out := []sharedProgram{{"nested-libs", detect.Prepare(nestedLibProgram())}}
	for i, c := range dataracetest.Suite() {
		if !testing.Short() || i%8 == 0 {
			out = append(out, sharedProgram{c.Name, detect.Prepare(c.Build())})
		}
	}
	for i, m := range parsec.Models() {
		if !testing.Short() || i%4 == 0 {
			out = append(out, sharedProgram{m.Name, detect.PrepareBuild(m.Build)})
		}
	}
	n := int64(32)
	if testing.Short() {
		n = 4
	}
	for _, w := range synth.GenerateSeeds(1, n) {
		out = append(out, sharedProgram{w.Name, detect.Prepare(w.Prog)})
	}
	return out
}

// ownStream is the old per-preset path, kept as the oracle: a vm run of
// its own under the consumer's libraries and window, exactly the options
// Prepared.Run gives the vm (window 0 is a view: no instrumentation).
func ownStream(t *testing.T, pr *detect.Prepared, libs map[ir.LibTag]bool, window int, seed int64) ([]event.Event, vm.Result) {
	t.Helper()
	cfg := detect.Config{KnownLibs: libs, SpinWindow: window}
	var tr event.Trace
	res, err := vm.Run(pr.Prog, vm.Options{
		Seed: seed, KnownLibs: libs, Instr: pr.Instrument(cfg), Decoded: pr.Decoded(cfg), Sink: &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Events, res
}

// TestSharedRunStreams is the shared run's equivalence bar: on every
// program of the grid at seeds 1–3, each consumer of a shared run —
// PaperTools(7), nolib+spin(7)+locks and Eraser, the Table 2 windows, the
// synth oracle's libraries — receives from its filter, event for event,
// the stream its own vm run emits, and the shared run executes the same
// steps. Each consumer list below is one shared run: all of them at once,
// and the lists the batches run (Table 1, Table 2, the synth corpus with
// its oracle).
func TestSharedRunStreams(t *testing.T) {
	all := append(detect.PaperTools(7), detect.HelgrindPlusNolibSpinLocks(7), detect.Eraser(),
		detect.HelgrindPlusLibSpin(3), detect.HelgrindPlusLibSpin(6), detect.HelgrindPlusLibSpin(8))
	var corpus []detect.Config
	for _, p := range synth.PresetNames {
		cfg, err := detect.Preset(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, cfg)
	}
	oracle := []map[ir.LibTag]bool{synth.OracleLibs()}
	runs := []struct {
		name  string
		cfgs  []detect.Config
		views []map[ir.LibTag]bool
	}{
		{"all", all, oracle},
		{"table1", harness.Table1Configs(), nil},
		{"table2", harness.Table2Configs(), nil},
		{"corpus", corpus, oracle},
	}
	type ownKey struct {
		libs   string
		window int
	}
	type ownRun struct {
		events []event.Event
		steps  int64
	}
	for _, p := range sharedPrograms() {
		for seed := int64(1); seed <= 3; seed++ {
			own := make(map[ownKey]ownRun)
			want := func(libs map[ir.LibTag]bool, window int) ownRun {
				k := ownKey{fmt.Sprint(libs), window}
				if r, ok := own[k]; ok {
					return r
				}
				evs, res := ownStream(t, p.prep, libs, window, seed)
				own[k] = ownRun{evs, res.Steps}
				return own[k]
			}
			for _, run := range runs {
				got, res, err := detect.SharedStreams(p.prep, run.cfgs, run.views, seed)
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", p.name, seed, run.name, err)
				}
				for i, evs := range got {
					name, libs, window := "oracle", synth.OracleLibs(), 0
					if i < len(run.cfgs) {
						cfg := run.cfgs[i]
						name, libs, window = cfg.Name, cfg.KnownLibs, cfg.SpinWindow
					}
					w := want(libs, window)
					if !slices.Equal(evs, w.events) {
						t.Fatalf("%s seed %d %s: %s: filtered stream differs from its own run at event %d (%d vs %d events)",
							p.name, seed, run.name, name, firstDiff(evs, w.events), len(evs), len(w.events))
					}
					if res.Steps != w.steps {
						t.Fatalf("%s seed %d %s: shared run took %d steps, %s's own run %d",
							p.name, seed, run.name, res.Steps, name, w.steps)
					}
				}
			}
		}
	}
}

func firstDiff(a, b []event.Event) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestRunAllReports: every report of a shared run equals, fingerprint for
// fingerprint, the report of that preset's own run.
func TestRunAllReports(t *testing.T) {
	cfgs := append(detect.PaperTools(7), detect.HelgrindPlusNolibSpinLocks(7), detect.Eraser())
	for _, p := range sharedPrograms() {
		reps, _, err := p.prep.RunAll(cfgs, nil, 2, detect.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			want, _, err := p.prep.Run(cfg, 2, detect.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if got, w := harness.ReportFingerprint(reps[i]), harness.ReportFingerprint(want); got != w {
				t.Errorf("%s %s: shared-run report differs from its own run's", p.name, cfg.Name)
			}
		}
	}
}
