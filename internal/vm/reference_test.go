package vm

import (
	"fmt"
	"sort"

	"adhocrace/internal/event"
	"adhocrace/internal/ir"
)

// Reference interpreter: the legacy switch interpreter the vm ran before
// pre-decoded dispatch (decode.go), kept as the oracle that
// TestDecodedMatchesReference{Stream,Result} compare the production path
// against. Per executed instruction it re-derives what Decode bakes once:
// it fetches Blocks[block].Instrs[ip], switches on the opcode, and looks up
// the spin instrumentation and the interned symbol/location ids. It drives
// the production scheduler through VM.run and shares the vm's memory,
// emission, call and thread plumbing; only instruction execution is its
// own. Frames keep the production flat pc; the interpreter maps it back to
// (block, index) from block starts computed from the ir.Func itself.

// refInterp executes a VM's threads with the switch interpreter.
type refInterp struct {
	v   *VM
	tab *ir.Interning
	// starts[fn][b] is the flat pc of block b's first instruction.
	starts [][]int
}

func newRefInterp(v *VM) *refInterp {
	r := &refInterp{v: v, tab: v.prog.Interning(), starts: make([][]int, len(v.prog.Funcs))}
	for fi, fn := range v.prog.Funcs {
		pc := 0
		for _, b := range fn.Blocks {
			r.starts[fi] = append(r.starts[fi], pc)
			pc += len(b.Instrs)
		}
	}
	return r
}

// runReference runs p to completion under the reference interpreter.
func runReference(p *ir.Program, opts Options) (Result, error) {
	v := New(p, opts)
	return v.run(newRefInterp(v).runThread)
}

// locate maps the frame's flat pc to its block and index within the block.
func (r *refInterp) locate(f *frame) (block, ip int) {
	starts := r.starts[f.fn.Index]
	block = sort.Search(len(starts), func(i int) bool { return starts[i] > f.ip }) - 1
	return block, f.ip - starts[block]
}

// runThread executes up to quantum instructions of t. It returns early when
// the thread blocks, yields, or finishes.
func (r *refInterp) runThread(t *thread, quantum int) error {
	v := r.v
	for i := 0; i < quantum; i++ {
		if t.state != stateRunnable {
			return nil
		}
		v.steps++
		if v.steps > v.opts.maxSteps {
			return ErrStepLimit
		}
		yielded, err := r.step(t)
		if err != nil {
			return err
		}
		if yielded {
			return nil
		}
	}
	return nil
}

// step executes one instruction of t. It reports whether the thread
// voluntarily yielded the processor.
func (r *refInterp) step(t *thread) (bool, error) {
	v := r.v
	f := t.frames[len(t.frames)-1]
	block, ip := r.locate(f)
	in := f.fn.Blocks[block].Instrs[ip]
	advance := true

	switch in.Op {
	case ir.OpNop:
	case ir.OpYield:
		f.ip++
		return true, nil
	case ir.OpConst:
		f.regs[in.Dst] = in.Imm
	case ir.OpMov:
		f.regs[in.Dst] = f.regs[in.A]
	case ir.OpAdd:
		f.regs[in.Dst] = f.regs[in.A] + f.regs[in.B]
	case ir.OpSub:
		f.regs[in.Dst] = f.regs[in.A] - f.regs[in.B]
	case ir.OpMul:
		f.regs[in.Dst] = f.regs[in.A] * f.regs[in.B]
	case ir.OpDiv:
		if f.regs[in.B] == 0 {
			f.regs[in.Dst] = 0
		} else {
			f.regs[in.Dst] = f.regs[in.A] / f.regs[in.B]
		}
	case ir.OpMod:
		if f.regs[in.B] == 0 {
			f.regs[in.Dst] = 0
		} else {
			f.regs[in.Dst] = f.regs[in.A] % f.regs[in.B]
		}
	case ir.OpAnd:
		f.regs[in.Dst] = f.regs[in.A] & f.regs[in.B]
	case ir.OpOr:
		f.regs[in.Dst] = f.regs[in.A] | f.regs[in.B]
	case ir.OpXor:
		f.regs[in.Dst] = f.regs[in.A] ^ f.regs[in.B]
	case ir.OpShl:
		f.regs[in.Dst] = f.regs[in.A] << (uint64(f.regs[in.B]) & 63)
	case ir.OpShr:
		f.regs[in.Dst] = int64(uint64(f.regs[in.A]) >> (uint64(f.regs[in.B]) & 63))
	case ir.OpCmpEQ:
		f.regs[in.Dst] = b2i(f.regs[in.A] == f.regs[in.B])
	case ir.OpCmpNE:
		f.regs[in.Dst] = b2i(f.regs[in.A] != f.regs[in.B])
	case ir.OpCmpLT:
		f.regs[in.Dst] = b2i(f.regs[in.A] < f.regs[in.B])
	case ir.OpCmpLE:
		f.regs[in.Dst] = b2i(f.regs[in.A] <= f.regs[in.B])
	case ir.OpCmpGT:
		f.regs[in.Dst] = b2i(f.regs[in.A] > f.regs[in.B])
	case ir.OpCmpGE:
		f.regs[in.Dst] = b2i(f.regs[in.A] >= f.regs[in.B])
	case ir.OpNot:
		f.regs[in.Dst] = b2i(f.regs[in.A] == 0)

	case ir.OpLoad, ir.OpAtomicLoad:
		addr := f.regs[in.A]
		val, err := v.load(addr)
		if err != nil {
			return false, err
		}
		f.regs[in.Dst] = val
		kind := event.KindRead
		if in.Op == ir.OpAtomicLoad {
			kind = event.KindAtomicRead
		}
		loc := r.tab.LocOf(in.Loc)
		// The spin-read mark precedes the access event so detectors can
		// classify the address as a synchronization variable before they
		// race-check the access itself.
		r.markSpinRead(t, f, block, ip, addr, val, loc)
		v.emitAccess(t, kind, addr, val, r.tab.SymOf(in.Sym), loc)

	case ir.OpStore, ir.OpAtomicStore:
		addr := f.regs[in.A]
		val := f.regs[in.B]
		if err := v.store(addr, val); err != nil {
			return false, err
		}
		kind := event.KindWrite
		if in.Op == ir.OpAtomicStore {
			kind = event.KindAtomicWrite
		}
		v.emitAccess(t, kind, addr, val, r.tab.SymOf(in.Sym), r.tab.LocOf(in.Loc))

	case ir.OpAtomicCAS:
		addr := f.regs[in.A]
		old, err := v.load(addr)
		if err != nil {
			return false, err
		}
		sym, loc := r.tab.SymOf(in.Sym), r.tab.LocOf(in.Loc)
		r.markSpinRead(t, f, block, ip, addr, old, loc)
		v.emitAccess(t, event.KindAtomicRead, addr, old, sym, loc)
		if old == f.regs[in.B] {
			if err := v.store(addr, f.regs[in.C]); err != nil {
				return false, err
			}
			v.emitRMWWrite(t, addr, f.regs[in.C], sym, loc)
			f.regs[in.Dst] = 1
		} else {
			f.regs[in.Dst] = 0
		}

	case ir.OpAtomicAdd:
		addr := f.regs[in.A]
		old, err := v.load(addr)
		if err != nil {
			return false, err
		}
		sym, loc := r.tab.SymOf(in.Sym), r.tab.LocOf(in.Loc)
		r.markSpinRead(t, f, block, ip, addr, old, loc)
		v.emitAccess(t, event.KindAtomicRead, addr, old, sym, loc)
		if err := v.store(addr, old+f.regs[in.B]); err != nil {
			return false, err
		}
		v.emitRMWWrite(t, addr, old+f.regs[in.B], sym, loc)
		f.regs[in.Dst] = old

	case ir.OpJmp:
		f.ip = r.starts[f.fn.Index][in.Imm]
		advance = false

	case ir.OpBr:
		taken := int(in.Imm)
		if f.regs[in.A] == 0 {
			taken = int(in.Imm2)
		}
		r.markSpinExit(t, f, block, taken)
		f.ip = r.starts[f.fn.Index][taken]
		advance = false

	case ir.OpRet:
		var val int64
		if in.A != ir.NoReg {
			val = f.regs[in.A]
		}
		return v.returnFrom(t, val)

	case ir.OpCall, ir.OpCallIndirect:
		var callee *ir.Func
		if in.Op == ir.OpCall {
			callee = v.prog.Funcs[in.Imm]
		} else {
			fi := f.regs[in.A]
			if fi < 0 || int(fi) >= len(v.prog.Funcs) {
				return false, fmt.Errorf("vm: indirect call to invalid function %d", fi)
			}
			callee = v.prog.Funcs[fi]
			if len(in.Args) != callee.NParams {
				return false, fmt.Errorf("vm: indirect call to %q: want %d args, got %d",
					callee.Name, callee.NParams, len(in.Args))
			}
		}
		nf := v.newFrame(callee, in.Dst)
		for i, r := range in.Args {
			nf.regs[i] = f.regs[r]
		}
		f.ip++ // resume after the call upon return
		advance = false
		v.pushCall(t, nf, callee, r.tab.LocOf(in.Loc))

	case ir.OpSpawn:
		callee := v.prog.Funcs[in.Imm]
		// argScratch: the values are copied into the child's frame registers
		// inside spawnThread, so a reused scratch buffer carries them.
		v.argScratch = v.argScratch[:0]
		for _, r := range in.Args {
			v.argScratch = append(v.argScratch, f.regs[r])
		}
		child := v.spawnThread(callee, v.argScratch)
		if in.Dst != ir.NoReg {
			f.regs[in.Dst] = int64(child)
		}
		v.emitThread(event.KindSpawn, t.id, child)
		v.emitThread(event.KindThreadStart, child, 0)

	case ir.OpJoin:
		target := event.Tid(f.regs[in.A])
		if target < 0 || int(target) >= len(v.threads) {
			return false, fmt.Errorf("vm: join on invalid thread %d", target)
		}
		if v.threads[target].state != stateDone {
			t.state = stateBlockedJoin
			t.joinWait = target
			v.removeRunnable(t.id)
			// Do not advance: re-execute the join when woken so the
			// event fires after the child is really done.
			return true, nil
		}
		v.emitThread(event.KindJoin, t.id, target)

	default:
		return false, fmt.Errorf("vm: unknown opcode %v", in.Op)
	}

	if advance {
		f.ip++
	}
	return false, nil
}

// markSpinRead fires the spin-read mark when the just-executed memory read
// sits at an instrumented condition-load site.
func (r *refInterp) markSpinRead(t *thread, f *frame, block, ip int, addr, val int64, loc ir.LocID) {
	v := r.v
	if v.opts.Instr == nil {
		return
	}
	id := v.opts.Instr.SpinReadLoop(f.fn.Index, block, ip)
	if id < 0 {
		return
	}
	v.emitSpin(t, event.KindSpinRead, int32(id), addr, val, loc)
}

// markSpinExit fires the spin-exit mark when an instrumented exit branch
// leaves its loop.
func (r *refInterp) markSpinExit(t *thread, f *frame, block, taken int) {
	v := r.v
	if v.opts.Instr == nil {
		return
	}
	id := v.opts.Instr.ExitBranchLoop(f.fn.Index, block)
	if id < 0 {
		return
	}
	if !v.opts.Instr.LoopContains(id, taken) {
		v.emitSpin(t, event.KindSpinExit, int32(id), 0, 0, ir.NoLoc)
	}
}
