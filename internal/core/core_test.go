package core

import (
	"testing"

	"adhocrace/internal/event"
	"adhocrace/internal/hb"
	"adhocrace/internal/ir"
	"adhocrace/internal/spin"
	"adhocrace/internal/vc"
)

// orderedBelow reports whether a frozen snapshot happens-before-or-equals a
// live clock's current value.
func orderedBelow(f vc.Frozen, c *vc.Clock) bool { return f.LessOrEqual(c.Freeze()) }

// buildFlagProgram builds a spin-wait program and returns it with its
// instrumentation.
func buildFlagProgram(t *testing.T, window int) (*ir.Program, *spin.Instrumentation) {
	t.Helper()
	b := ir.NewBuilder("t")
	flag := b.Global("FLAG")
	f := b.Func("spinner", 0)
	zero := f.Const(0)
	header := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	f.Jmp(header)
	f.SetBlock(header)
	v := f.LoadAddr(flag)
	f.Br(f.CmpEQ(v, zero), body, exit)
	f.SetBlock(body)
	f.Yield()
	f.Jmp(header)
	f.SetBlock(exit)
	f.Ret(ir.NoReg)
	m := b.Func("main", 0)
	tid := m.Spawn("spinner")
	m.Join(tid)
	m.Ret(ir.NoReg)
	p := b.MustBuild()
	return p, spin.Analyze(p, window)
}

func TestDisabledWithoutInstrumentation(t *testing.T) {
	h := hb.New()
	e := New(h, nil, nil)
	if e.Enabled() {
		t.Error("engine must be disabled without instrumentation")
	}
	if e.IsSyncVar(0, ir.SymID(1)) {
		t.Error("no sync vars when disabled")
	}
	e.OnWrite(&event.Event{Kind: event.KindWrite, Addr: 0})
	e.OnSpinRead(&event.Event{Kind: event.KindSpinRead, Addr: 0})
	e.OnSpinExit(&event.Event{Kind: event.KindSpinExit})
	if e.Edges != 0 || e.SpinReads != 0 {
		t.Error("disabled engine must not count anything")
	}
}

func TestStaticSymResolution(t *testing.T) {
	p, ins := buildFlagProgram(t, 7)
	e := New(hb.New(), ins, p)
	flag := p.Interning().SymOf("FLAG")
	if flag == ir.NoSym {
		t.Fatal("FLAG must be interned by the program build")
	}
	if !e.IsSyncVar(0, ir.NoSym) {
		t.Error("FLAG's address must be a sync var statically (resolved from the symbol table)")
	}
	if !e.IsSyncVar(12345, flag) {
		t.Error("FLAG symbol must be a sync var regardless of address")
	}
	if e.IsSyncVar(8, ir.SymID(999)) {
		t.Error("unrelated symbol misclassified")
	}
}

func TestEdgeInjection(t *testing.T) {
	p, ins := buildFlagProgram(t, 7)
	h := hb.New()
	e := New(h, ins, p)

	// Writer (T1) ticks, writes FLAG; spinner (T2) reads and exits.
	h.ClockOf(1).Tick(1)
	writerSnap := h.Snapshot(1)
	e.OnWrite(&event.Event{Kind: event.KindWrite, Tid: 1, Addr: 0, Sym: p.Interning().SymOf("FLAG")})
	e.OnSpinRead(&event.Event{Kind: event.KindSpinRead, Tid: 2, Addr: 0, SpinLoop: 0, Value: 1})
	e.OnSpinExit(&event.Event{Kind: event.KindSpinExit, Tid: 2, SpinLoop: 0})
	if e.Edges != 1 {
		t.Fatalf("edges = %d, want 1", e.Edges)
	}
	if !orderedBelow(writerSnap, h.ClockOf(2)) {
		t.Error("spinner must be ordered after the counterpart write")
	}
}

func TestNoEdgeWithoutWrite(t *testing.T) {
	p, ins := buildFlagProgram(t, 7)
	h := hb.New()
	e := New(h, ins, p)
	// A spin exit for a loop with no recorded read is a no-op.
	e.OnSpinExit(&event.Event{Kind: event.KindSpinExit, Tid: 2, SpinLoop: 0})
	if e.Edges != 0 {
		t.Error("edge injected with no dependency information")
	}
}

func TestRMWReleaseSequenceAccumulates(t *testing.T) {
	p, ins := buildFlagProgram(t, 7)
	h := hb.New()
	e := New(h, ins, p)

	// T1 and T3 both RMW the flag word (a fetch-add chain); the reader
	// must be ordered after both.
	h.ClockOf(1).Tick(1)
	snap1 := h.Snapshot(1)
	e.OnWrite(&event.Event{Kind: event.KindAtomicWrite, RMW: true, Tid: 1, Addr: 0, Sym: p.Interning().SymOf("FLAG")})
	h.ClockOf(3).Tick(3)
	snap3 := h.Snapshot(3)
	e.OnWrite(&event.Event{Kind: event.KindAtomicWrite, RMW: true, Tid: 3, Addr: 0, Sym: p.Interning().SymOf("FLAG")})

	e.OnSpinRead(&event.Event{Kind: event.KindSpinRead, Tid: 2, Addr: 0, SpinLoop: 0})
	e.OnSpinExit(&event.Event{Kind: event.KindSpinExit, Tid: 2, SpinLoop: 0})
	c2 := h.ClockOf(2)
	if !orderedBelow(snap1, c2) || !orderedBelow(snap3, c2) {
		t.Error("RMW chain must accumulate all writers' clocks")
	}
}

func TestPlainWriteReplacesHistory(t *testing.T) {
	p, ins := buildFlagProgram(t, 7)
	h := hb.New()
	e := New(h, ins, p)

	h.ClockOf(1).Tick(1)
	snap1 := h.Snapshot(1)
	e.OnWrite(&event.Event{Kind: event.KindWrite, Tid: 1, Addr: 0, Sym: p.Interning().SymOf("FLAG")})
	// T3's plain write replaces T1's snapshot (last-write semantics).
	e.OnWrite(&event.Event{Kind: event.KindWrite, Tid: 3, Addr: 0, Sym: p.Interning().SymOf("FLAG")})

	e.OnSpinRead(&event.Event{Kind: event.KindSpinRead, Tid: 2, Addr: 0, SpinLoop: 0})
	e.OnSpinExit(&event.Event{Kind: event.KindSpinExit, Tid: 2, SpinLoop: 0})
	if orderedBelow(snap1, h.ClockOf(2)) {
		t.Error("plain overwrite must not leak the previous writer's clock")
	}
}

func TestAtomicWriteAlwaysSnapshots(t *testing.T) {
	p, ins := buildFlagProgram(t, 7)
	h := hb.New()
	e := New(h, ins, p)
	// An atomic write to an address never seen by a spin read (and with no
	// known symbol) still records a release snapshot.
	h.ClockOf(1).Tick(1)
	snap := h.Snapshot(1)
	e.OnWrite(&event.Event{Kind: event.KindAtomicWrite, Tid: 1, Addr: 4096, Sym: ir.NoSym})
	e.OnSpinRead(&event.Event{Kind: event.KindSpinRead, Tid: 2, Addr: 4096, SpinLoop: 0})
	e.OnSpinExit(&event.Event{Kind: event.KindSpinExit, Tid: 2, SpinLoop: 0})
	if !orderedBelow(snap, h.ClockOf(2)) {
		t.Error("fast-path waiter missed the atomic counterpart write")
	}
}

func TestDynamicDiscovery(t *testing.T) {
	p, ins := buildFlagProgram(t, 7)
	e := New(hb.New(), ins, p)
	const addr = int64(8192)
	if e.IsSyncVar(addr, ir.NoSym) {
		t.Fatal("address should not be known yet")
	}
	e.OnSpinRead(&event.Event{Kind: event.KindSpinRead, Tid: 2, Addr: addr, SpinLoop: 0})
	if !e.IsSyncVar(addr, ir.NoSym) {
		t.Error("spin-read must mark the address dynamically")
	}
}

func TestBytesAccounting(t *testing.T) {
	p, ins := buildFlagProgram(t, 7)
	e := New(hb.New(), ins, p)
	before := e.Bytes()
	e.OnSpinRead(&event.Event{Kind: event.KindSpinRead, Tid: 2, Addr: 0, SpinLoop: 0})
	e.OnWrite(&event.Event{Kind: event.KindWrite, Tid: 1, Addr: 0, Sym: p.Interning().SymOf("FLAG")})
	if e.Bytes() <= before {
		t.Error("Bytes must grow with tracked state")
	}
}

// TestSpinExitPairsPerThreadAndLoop: an exit pairs only with the exiting
// thread's last read in the same loop, the memory figure charges one entry
// per (thread, loop) with a read, and a loop id the instrumentation never
// assigned pairs with nothing.
func TestSpinExitPairsPerThreadAndLoop(t *testing.T) {
	ins := &spin.Instrumentation{Window: 7, Loops: []*spin.Loop{{}, {}}}
	h := hb.New()
	e := New(h, ins, nil)
	h.ClockOf(1).Tick(1)
	e.OnWrite(&event.Event{Kind: event.KindAtomicWrite, Tid: 1, Addr: 64})

	e.OnSpinRead(&event.Event{Kind: event.KindSpinRead, Tid: 2, Addr: 64, SpinLoop: 1})
	base := e.Bytes()
	e.OnSpinRead(&event.Event{Kind: event.KindSpinRead, Tid: 2, Addr: 64, SpinLoop: 1})
	if got := e.Bytes(); got != base {
		t.Errorf("re-reading in the same loop changed Bytes %d -> %d", base, got)
	}
	e.OnSpinExit(&event.Event{Kind: event.KindSpinExit, Tid: 2, SpinLoop: 0})
	e.OnSpinExit(&event.Event{Kind: event.KindSpinExit, Tid: 3, SpinLoop: 1})
	if e.Edges != 0 {
		t.Fatalf("exit paired with another loop's or thread's read: %d edges", e.Edges)
	}
	e.OnSpinExit(&event.Event{Kind: event.KindSpinExit, Tid: 2, SpinLoop: 1})
	if e.Edges != 1 {
		t.Fatalf("exit after a read in its loop: %d edges, want 1", e.Edges)
	}

	e.OnSpinRead(&event.Event{Kind: event.KindSpinRead, Tid: 2, Addr: 64, SpinLoop: 0})
	if got := e.Bytes(); got != base+24 {
		t.Errorf("a read in a second loop: Bytes %d, want %d (one 24-byte entry)", got, base+24)
	}
	e.OnSpinRead(&event.Event{Kind: event.KindSpinRead, Tid: 4, Addr: 64, SpinLoop: 1})
	if got := e.Bytes(); got != base+24+24+16 {
		t.Errorf("a second reading thread: Bytes %d, want %d (entry plus thread header)", got, base+24+24+16)
	}

	e.OnSpinRead(&event.Event{Kind: event.KindSpinRead, Tid: 5, Addr: 64, SpinLoop: 2})
	e.OnSpinExit(&event.Event{Kind: event.KindSpinExit, Tid: 5, SpinLoop: 2})
	if e.Edges != 1 {
		t.Errorf("unassigned loop id paired: %d edges, want 1", e.Edges)
	}
}
