// Package core implements the paper's primary contribution: the runtime
// phase of ad-hoc synchronization detection.
//
// The instrumentation phase (package spin) marks spinning read loops, their
// condition loads, and their exit branches. At run time this engine:
//
//   - tracks the release history of every location that can serve as a spin
//     condition (statically: the condition symbols of classified loops;
//     dynamically: every address observed by a spin-read mark) — each write
//     to such a location snapshots the writer's vector clock;
//   - on a spin-exit mark, establishes a happens-before edge from the
//     counterpart write to the spinning thread — the write/read dependency
//     between the loop condition and the write that satisfied it;
//   - classifies those condition locations as synchronization variables so
//     detectors can suppress "synchronization races" on them (the flag
//     itself), while the injected edge removes the "apparent races" on the
//     data the flag protects.
//
// Read-modify-write atomics extend the release history instead of replacing
// it (a release sequence): the CAS chain of a lock word or the fetch-add
// chain of a barrier counter accumulates every participant's clock, which is
// what makes library primitives of unknown libraries — ultimately spinning
// read loops themselves — synchronize correctly under the universal
// detector.
package core

import (
	"adhocrace/internal/event"
	"adhocrace/internal/hb"
	"adhocrace/internal/ir"
	"adhocrace/internal/spin"
	"adhocrace/internal/vc"
)

// releaseState is the accumulated release history of one condition
// location. A plain write replaces the history with the writer's frozen
// snapshot — no copy, the handle is the happens-before engine's interned
// view. A read-modify-write extends the history (a release sequence);
// the first extension thaws the frozen handle into owned, an accumulator
// this engine exclusively owns and joins in place from then on — the seed
// implementation paid one clock copy per RMW in the chain (every CAS lock
// acquisition, every barrier fetch-add), this pays one per chain.
type releaseState struct {
	frozen vc.Frozen
	owned  *vc.Clock
}

// joinInto imports the history into a thread clock.
func (r *releaseState) joinInto(c *vc.Clock) {
	if r.owned != nil {
		c.Join(r.owned)
	} else {
		c.JoinFrozen(r.frozen)
	}
}

// bytes charges the history under the seed cost model.
func (r *releaseState) bytes() int64 {
	if r.owned != nil {
		return r.owned.Bytes()
	}
	return r.frozen.Bytes()
}

// Engine is the runtime ad-hoc synchronization detector for one execution.
//
// Every entry point runs on the goroutine that drives detection; the
// mutating ones (OnWrite, OnSpinRead, OnSpinExit) in stream order.
type Engine struct {
	hb  hb.Engine
	ins *spin.Instrumentation
	// tab resolves interned symbol ids; the instrumentation's condition
	// symbols (strings, from the static phase) are translated through it
	// once at construction so the per-event checks are integer map hits.
	tab *ir.Interning

	// InferLocks enables the paper's future-work extension: condition
	// words of read-modify-write spin loops (CAS-acquire loops) are
	// classified as lock words, and every successful RMW on them — even a
	// fast-path acquire outside any loop — imports the word's release
	// history. Without this, a two-phase lock acquired on its fast path
	// produces no spin-exit and the universal detector misses the edge.
	InferLocks bool

	// condSyms holds the static condition symbols of all classified loops.
	condSyms map[ir.SymID]bool
	// syncAddrs holds addresses confirmed as spin conditions at run time.
	syncAddrs map[int64]bool
	// lockWords holds addresses classified as lock words (conditions of
	// RMW spin loops), statically and dynamically.
	lockWords map[int64]bool
	// lockSyms holds the static condition symbols of RMW loops.
	lockSyms map[ir.SymID]bool
	// release holds the accumulated release history per condition location.
	release map[int64]*releaseState
	// lastRead tracks, per thread and loop, the last condition address the
	// thread observed, so the exit edge knows its counterpart location.
	lastRead map[event.Tid]map[int]int64

	// Edges counts injected happens-before edges (diagnostics/figures).
	Edges int64
	// SpinReads counts observed spin-read marks.
	SpinReads int64
	// SpinExits counts observed spin-exit marks.
	SpinExits int64
}

// New returns an engine feeding edges into the given happens-before engine,
// configured by the given instrumentation (nil disables everything, the
// "lib" tool configurations). The program provides the static symbol table:
// condition symbols of classified loops are resolved to their global
// addresses up front, so sync-variable suppression and release tracking are
// in force from the very first access — even when the first contention
// precedes the first spin-read mark (fast-path arrivals at barriers, once
// guards, trylocks).
func New(h hb.Engine, ins *spin.Instrumentation, prog *ir.Program) *Engine {
	e := &Engine{hb: h, ins: ins}
	if prog != nil {
		e.tab = prog.Interning()
	} else {
		e.tab = ir.NewInterning()
	}
	if ins != nil {
		// The classification and history maps exist only when the spin
		// feature can populate them; the lib/DRD configurations (ins == nil)
		// never touch them, so they skip the six map allocations per run.
		e.condSyms = make(map[ir.SymID]bool)
		e.syncAddrs = make(map[int64]bool)
		e.lockWords = make(map[int64]bool)
		e.lockSyms = make(map[ir.SymID]bool)
		e.release = make(map[int64]*releaseState)
		e.lastRead = make(map[event.Tid]map[int]int64)
		// The static phase works in strings; translate through the program's
		// interning table. A condition symbol never loaded by an instruction
		// resolves to NoSym, which is fine: an event can only ever carry a
		// SymID the table handed out.
		for _, s := range ins.CondSyms() {
			if id := e.tab.SymOf(s); id != ir.NoSym {
				e.condSyms[id] = true
			}
		}
		for _, l := range ins.Loops {
			if !l.HasRMW {
				continue
			}
			for _, s := range l.CondSyms {
				if id := e.tab.SymOf(s); id != ir.NoSym {
					e.lockSyms[id] = true
				}
			}
		}
		if prog != nil {
			for _, g := range prog.Globals {
				gid := e.tab.SymOf(g.Name)
				if gid == ir.NoSym || !e.condSyms[gid] {
					continue
				}
				for i := 0; i < g.Words; i++ {
					e.syncAddrs[g.Addr+int64(i)*8] = true
					if e.lockSyms[gid] {
						e.lockWords[g.Addr+int64(i)*8] = true
					}
				}
			}
		}
	}
	return e
}

// Table returns the interning table events in this run resolve against.
// Warning formatting uses it to materialize symbol and location strings.
func (e *Engine) Table() *ir.Interning { return e.tab }

// InferredLockWords returns the number of classified lock words.
func (e *Engine) InferredLockWords() int { return len(e.lockWords) }

// Enabled reports whether spin detection is active.
func (e *Engine) Enabled() bool { return e.ins != nil && e.ins.NumLoops() >= 0 && e.ins.Window > 0 }

// IsSyncVar reports whether an access to addr (with interned static symbol
// sym, if any) belongs to a spin-loop condition — a synchronization variable
// whose races are synchronization races, not data races.
func (e *Engine) IsSyncVar(addr int64, sym ir.SymID) bool {
	if !e.Enabled() {
		return false
	}
	return e.syncAddrs[addr] || (sym != ir.NoSym && e.condSyms[sym])
}

// writeActs reports whether OnWrite would mutate engine or clock state for
// this write: writes for which it is false are pure shadow-memory traffic;
// writes for which it is true tick the writer's clock and extend release
// histories.
func (e *Engine) writeActs(ev *event.Event) bool {
	if !e.Enabled() {
		return false
	}
	return ev.Kind == event.KindAtomicWrite || e.syncAddrs[ev.Addr] ||
		(ev.Sym != ir.NoSym && e.condSyms[ev.Sym])
}

// OnWrite records a write's release snapshot when the target can serve as a
// spin condition: statically (its symbol is a condition symbol of some
// classified loop), dynamically (a spin-read mark has observed the address),
// or — conservatively — when the write is atomic, because atomics are how
// library primitives publish their state and the counterpart write may
// precede the first spin read of a fast-path waiter. Must be called for
// every write event, in stream order.
func (e *Engine) OnWrite(ev *event.Event) {
	if !e.writeActs(ev) {
		return
	}
	cur := e.release[ev.Addr]
	if e.InferLocks && ev.RMW && cur != nil &&
		(e.lockWords[ev.Addr] || (ev.Sym != ir.NoSym && e.lockSyms[ev.Sym])) {
		// Lock-operation identification (the paper's future work): a
		// successful RMW on a lock word is an acquire even when it
		// happened on a fast path outside the spin loop — import the
		// word's release history into the acquiring thread.
		cur.joinInto(e.hb.ClockOf(ev.Tid))
		e.Edges++
	}
	snap := e.hb.Snapshot(ev.Tid)
	if ev.RMW && cur != nil {
		// Release sequence: the RMW extends the history in place. The
		// accumulator is exclusively this engine's (readers join out of it
		// synchronously and retain nothing), so no copy is needed — only
		// the first extension materializes the frozen handle.
		if cur.owned == nil {
			cur.owned = cur.frozen.Thaw()
			cur.frozen = vc.Frozen{}
		}
		cur.owned.JoinFrozen(snap)
	} else if cur != nil {
		// A plain write (or the first write) replaces the history with the
		// writer's snapshot handle — the seed copied here.
		cur.frozen = snap
		cur.owned = nil
	} else {
		e.release[ev.Addr] = &releaseState{frozen: snap}
	}
	// A write is also a release point for the writer.
	e.hb.ClockOf(ev.Tid).Tick(int(ev.Tid))
}

// OnSpinRead records a condition observation by a spinning thread.
func (e *Engine) OnSpinRead(ev *event.Event) {
	if !e.Enabled() {
		return
	}
	e.SpinReads++
	e.syncAddrs[ev.Addr] = true
	if ev.SpinLoop >= 0 && int(ev.SpinLoop) < len(e.ins.Loops) && e.ins.Loops[ev.SpinLoop].HasRMW {
		e.lockWords[ev.Addr] = true
	}
	m := e.lastRead[ev.Tid]
	if m == nil {
		m = make(map[int]int64)
		e.lastRead[ev.Tid] = m
	}
	m[int(ev.SpinLoop)] = ev.Addr
}

// OnSpinExit injects the happens-before edge from the counterpart write to
// the exiting thread.
func (e *Engine) OnSpinExit(ev *event.Event) {
	if !e.Enabled() {
		return
	}
	e.SpinExits++
	m := e.lastRead[ev.Tid]
	if m == nil {
		return
	}
	addr, ok := m[int(ev.SpinLoop)]
	if !ok {
		return
	}
	if rel := e.release[addr]; rel != nil {
		rel.joinInto(e.hb.ClockOf(ev.Tid))
		e.Edges++
	}
}

// Quiesce bounds the release histories: a history dominated by the
// quiescence watermark is emptied in place (the entry itself is kept as a
// tombstone — OnSpinExit counts an edge whenever the entry exists, so
// deleting it would change the reported edge counts, while joining an
// emptied history into a live thread's clock is a no-op exactly like
// joining the dominated history it replaced). Returns the number of
// histories emptied. Called in stream order, like every other mutating
// entry point.
func (e *Engine) Quiesce(wm vc.Frozen) int64 {
	var dropped int64
	for _, r := range e.release {
		if r.owned != nil {
			if r.owned.LessOrEqualFrozen(wm) {
				r.owned = nil
				r.frozen = vc.Frozen{}
				dropped++
			}
		} else if r.frozen.Len() > 0 && r.frozen.LessOrEqual(wm) {
			r.frozen = vc.Frozen{}
			dropped++
		}
	}
	return dropped
}

// Bytes approximates the engine's shadow footprint for the memory figure.
func (e *Engine) Bytes() int64 {
	var n int64
	for s := range e.condSyms {
		n += int64(len(e.tab.SymName(s))) + 16
	}
	n += int64(len(e.syncAddrs)) * 16
	for _, r := range e.release {
		n += r.bytes() + 16
	}
	for _, m := range e.lastRead {
		n += int64(len(m))*24 + 16
	}
	if e.ins != nil {
		n += e.ins.MarkBytes()
	}
	return n
}
