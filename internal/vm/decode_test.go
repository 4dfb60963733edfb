package vm

import (
	"reflect"
	"testing"

	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/spin"
)

// buildSpinWait builds a spawn/spin-wait/store program exercising loads,
// stores, branches, calls, spawn/join, and — with instrumentation — spin
// marks on the flag loop.
func buildSpinWait() *ir.Program {
	b := ir.NewBuilder("decode-spinwait")
	flag := b.Global("FLAG")
	data := b.Global("DATA")
	w := b.Func("waiter", 0)
	zero := w.Const(0)
	header := w.NewBlock()
	body := w.NewBlock()
	exit := w.NewBlock()
	w.Jmp(header)
	w.SetBlock(header)
	v := w.LoadAddr(flag)
	w.Br(w.CmpEQ(v, zero), body, exit)
	w.SetBlock(body)
	w.Yield()
	w.Jmp(header)
	w.SetBlock(exit)
	w.StoreAddr(data, w.Const(7))
	w.Ret(ir.NoReg)
	m := b.Func("main", 0)
	tid := m.Spawn("waiter")
	m.StoreAddr(data, m.Const(3))
	m.StoreAddr(flag, m.Const(1))
	m.Join(tid)
	m.Ret(ir.NoReg)
	return b.MustBuild()
}

// buildCASLock builds a CAS-acquire lock program: atomic CAS loop, atomic
// add, plain data traffic under the inferred lock.
func buildCASLock() *ir.Program {
	b := ir.NewBuilder("decode-caslock")
	lock := b.Global("LOCK")
	count := b.Global("COUNT")
	w := b.Func("worker", 0)
	zero := w.Const(0)
	one := w.Const(1)
	lockReg := w.Addr(lock, "LOCK")
	header := w.NewBlock()
	body := w.NewBlock()
	crit := w.NewBlock()
	w.Jmp(header)
	w.SetBlock(header)
	ok := w.CAS(lockReg, zero, one, "LOCK")
	w.Br(ok, crit, body)
	w.SetBlock(body)
	w.Yield()
	w.Jmp(header)
	w.SetBlock(crit)
	w.StoreAddr(count, w.Add(w.LoadAddr(count), one))
	w.AtomicStore(lockReg, zero, "LOCK")
	w.Ret(ir.NoReg)
	m := b.Func("main", 0)
	t1 := m.Spawn("worker")
	t2 := m.Spawn("worker")
	m.Join(t1)
	m.Join(t2)
	m.AtomicAdd(m.Addr(count, "COUNT"), m.Const(0), "COUNT")
	m.Ret(ir.NoReg)
	return b.MustBuild()
}

// recordStream runs the program with run (Run or runReference) and returns
// every emitted event by value.
func recordStream(t *testing.T, p *ir.Program, opts Options, run func(*ir.Program, Options) (Result, error)) []event.Event {
	t.Helper()
	var out []event.Event
	opts.Sink = event.SinkFunc(func(ev *event.Event) { out = append(out, *ev) })
	if _, err := run(p, opts); err != nil {
		t.Fatalf("run: %v", err)
	}
	return out
}

// TestDecodedMatchesReferenceStream is the decoded interpreter's
// equivalence bar at the finest grain: the exact event stream — every
// field of every event, in order — must match the reference interpreter's
// (reference_test.go), across programs, seeds, instrumentation on/off, and
// library interception on/off.
func TestDecodedMatchesReferenceStream(t *testing.T) {
	progs := map[string]*ir.Program{
		"spinwait": buildSpinWait(),
		"caslock":  buildCASLock(),
		"libcalls": libSuppressionProgram(),
	}
	for name, p := range progs {
		for _, withSpin := range []bool{false, true} {
			var ins *spin.Instrumentation
			if withSpin {
				ins = spin.Analyze(p, 7)
			}
			for seed := int64(1); seed <= 20; seed++ {
				libs := map[ir.LibTag]bool{ir.LibPthread: seed%2 == 0}
				opts := Options{Seed: seed, Instr: ins, KnownLibs: libs}
				got := recordStream(t, p, opts, Run)
				want := recordStream(t, p, opts, runReference)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d spin=%v: decoded stream differs from reference (%d vs %d events)",
						name, seed, withSpin, len(got), len(want))
				}
			}
		}
	}
}

// TestDecodedMatchesReferenceResult checks the execution-side outcome too:
// step counts, thread counts, and final memory must be identical.
func TestDecodedMatchesReferenceResult(t *testing.T) {
	p := buildCASLock()
	for seed := int64(1); seed <= 10; seed++ {
		dec, err := Run(p, Options{Seed: seed})
		if err != nil {
			t.Fatalf("decoded run: %v", err)
		}
		ref, err := runReference(p, Options{Seed: seed})
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		if dec.Steps != ref.Steps || dec.Threads != ref.Threads {
			t.Fatalf("seed %d: result diverged: decoded steps=%d threads=%d, reference steps=%d threads=%d",
				seed, dec.Steps, dec.Threads, ref.Steps, ref.Threads)
		}
		for addr := int64(0); addr < 64; addr += 8 {
			if dec.Memory(addr) != ref.Memory(addr) {
				t.Fatalf("seed %d: memory[%d] = %d (decoded) vs %d (reference)",
					seed, addr, dec.Memory(addr), ref.Memory(addr))
			}
		}
	}
}

// TestDecodedReuse pins the Prepared sharing contract: a Decoded built
// once is accepted when it matches the (program, instrumentation) pair and
// silently re-decoded when it does not.
func TestDecodedReuse(t *testing.T) {
	p := buildSpinWait()
	ins := spin.Analyze(p, 7)
	d := Decode(p, ins)
	if !d.Matches(p, ins) {
		t.Fatal("Decoded must match its own inputs")
	}
	if d.Matches(p, nil) {
		t.Fatal("Decoded must not match a different instrumentation")
	}
	// A mismatched Decoded (built without instrumentation) handed to an
	// instrumented run must not suppress the spin marks.
	bare := Decode(p, nil)
	var spins int
	_, err := Run(p, Options{Seed: 3, Instr: ins, Decoded: bare,
		Sink: event.SinkFunc(func(ev *event.Event) {
			if ev.Kind == event.KindSpinRead || ev.Kind == event.KindSpinExit {
				spins++
			}
		})})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if spins == 0 {
		t.Fatal("mismatched Decoded must be re-decoded, not used without spin marks")
	}
}
