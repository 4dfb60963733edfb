package dataracetest

import "adhocrace/internal/ir"

// chainBreakRounds is the private work T1 does before its atomic store:
// enough rounds that, under every scheduler seed, the store comes after
// T0's read and T2's store.
const chainBreakRounds = 16

// BuildAtomicChainBreak builds a racy program whose race hides behind two
// unordered atomic writes. T0 spawns T1, plainly reads X, then spawns T2;
// T2 atomically writes X, ordered after the read by its spawn; T1 does
// private work on its own cell, then atomically writes X, unordered with
// T0's read — the race. Two atomic writes never race with each other, so
// T1's store is checked only against the recorded reads: a detector that
// retired T0's read when T2's ordered store came by (FastTrack-style read
// demotion) misses it. Not part of Suite(), so the paper's Table 1 keeps
// its 120 cases.
func BuildAtomicChainBreak() *ir.Program {
	c := newCB("atomic_chain_break")
	x := c.b.Global("X")
	priv := c.b.Global("PRIV")

	t1 := c.b.Func("late_writer", 0)
	t1.SetLoc("late.c", 10)
	filler(t1, priv, "PRIV", 2*chainBreakRounds)
	setFlag(t1, x, "X", true)
	t1.Ret(ir.NoReg)

	t2 := c.b.Func("ordered_writer", 0)
	t2.SetLoc("ordered.c", 10)
	setFlag(t2, x, "X", true)
	t2.Ret(ir.NoReg)

	m := c.b.Func("main", 0)
	m.SetLoc("main.c", 1)
	late := m.Spawn("late_writer")
	_ = m.LoadAddr(x)
	ordered := m.Spawn("ordered_writer")
	m.Join(late)
	m.Join(ordered)
	m.Ret(ir.NoReg)
	return c.build()
}
