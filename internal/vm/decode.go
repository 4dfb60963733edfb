package vm

// Pre-decoded program form: the vm's only dispatch.
//
// The legacy switch interpreter it replaced re-did three kinds of work on
// every executed instruction: it double-dereffed Blocks[block].Instrs[ip] to
// fetch the instruction, re-switched on the opcode, and — on every memory
// access — re-resolved the spin instrumentation (two nested map lookups in
// spin.Instrumentation.SpinReadLoop) and the interned symbol/location ids
// (two map lookups in ir.Interning). Decode does all of that exactly once
// per (program, instrumentation) pair: each function's blocks are
// flattened into one dense code array, jump targets become flat pcs,
// operands become pre-narrowed indices, the per-op behavior becomes a
// pre-bound exec function pointer from a per-op table, and the spin-read
// loop ids, spin-exit booleans, and interned Sym/Loc ids are baked into
// the instruction. The decoded step is then one slice index plus one
// indirect call, with zero map traffic.
//
// That interpreter lives on in this package's tests (reference_test.go),
// driving the production scheduler through VM.run: decode_test.go asserts
// the decoded dispatch emits its exact event stream and reaches its exact
// result. Corpus-wide, the golden report fingerprints in package detect
// (first generated under the legacy interpreter) hold every report byte
// for byte.

import (
	"fmt"

	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/spin"
)

// Decoded is the dense executable form of a program under one
// instrumentation (Decode), or under several at once (DecodeShared). It is
// immutable once built and safe to share across concurrent runs
// (detect.Prepared memoizes one per spin window, and one per shared plan).
type Decoded struct {
	prog  *ir.Program
	ins   *spin.Instrumentation
	funcs []*dfunc
	// loops is set on a shared form only: loops[i][site] is the loop id +
	// 1 the site's mark carries under the i-th instrumentation, 0 where
	// that instrumentation marks nothing there.
	loops [][]int32
}

// Matches reports whether this decoded form was built from exactly the
// given program and instrumentation (pointer identity — both are treated
// as immutable once prepared).
func (d *Decoded) Matches(p *ir.Program, ins *spin.Instrumentation) bool {
	return d != nil && d.prog == p && d.ins == ins
}

// SiteLoops returns, for a shared form, the spin-site table of its i-th
// instrumentation: entry s is the loop id + 1 that a mark carrying site s
// has under it, 0 where it marks nothing there. Nil on a Decode form.
func (d *Decoded) SiteLoops(i int) []int32 {
	if d.loops == nil {
		return nil
	}
	return d.loops[i]
}

// dfunc is one decoded function: its blocks concatenated into a flat code
// array (block b starts at entry[b]; block 0, the entry block, at pc 0).
type dfunc struct {
	fn   *ir.Func
	code []dinstr
	// marked is set, on a shared form, when calls into fn emit lib-call
	// and lib-return markers (DecodeShared).
	marked bool
}

// dinstr is one decoded instruction. Everything the exec function needs is
// resolved at decode time; nothing in here is looked up per step.
type dinstr struct {
	// exec runs the instruction; bound from execTab at decode time.
	exec func(v *VM, t *thread, f *frame, in *dinstr) (bool, error)
	// dst/a/b/c are the register operands (NoReg stays -1).
	dst, a, b, c int32
	// next is the flat pc after this instruction (fallthrough); t1/t2 are
	// resolved branch targets (Jmp uses t1, Br uses t1 for the then block
	// and t2 for the else block).
	next, t1, t2 int32
	imm          int64
	// sym/loc are the interned symbol and location the emitted event
	// carries (already resolved through the program's ir.Interning).
	sym ir.SymID
	loc ir.LocID
	// spin is the spin-read mark id + 1 for condition-load sites (0 = not
	// a condition load) — spin.Instrumentation's per-load nested map
	// lookup, baked. The mark id is the loop id, or on a shared form the
	// site id.
	spin int32
	// exit1/exit2 are the spin-exit mark id + 1 when taking this Br's
	// then/else target leaves an instrumented loop through one of its exit
	// branches (the ExitBranchLoop and LoopContains lookups, baked per
	// target); 0 when that target stays inside.
	exit1, exit2 int32
	// callee is the static call/spawn target.
	callee *ir.Func
	// args are the caller registers feeding the callee's parameters.
	args []int32
	op   ir.Op
}

// Decode builds the dense executable form of p under ins (nil ins means no
// spin marks). The result is immutable and reusable across runs; VM.New
// decodes on demand when no pre-built form is supplied.
func Decode(p *ir.Program, ins *spin.Instrumentation) *Decoded {
	sites := spinSites{}
	if ins != nil {
		sites.ins = []*spin.Instrumentation{ins}
	}
	d := decode(p, &sites, nil)
	d.ins = ins
	return d
}

// DecodeShared builds the executable form of one run that feeds several
// consumers, each filtering its own stream out of it
// (detect.Prepared.RunAll). Calls into every sync function of a marked
// library emit lib-call and lib-return markers (event.KindLibCall) at any
// depth outside an intercepted call, and every site any of ins marks
// emits its spin mark with a site id in SpinLoop; SiteLoops(i) maps site
// ids to ins[i]'s loop ids. A run uses the form with Options.Instr nil
// and Options.KnownLibs the libraries it intercepts outright, disjoint
// from marked.
func DecodeShared(p *ir.Program, marked map[ir.LibTag]bool, ins []*spin.Instrumentation) *Decoded {
	sites := spinSites{ins: ins, loops: make([][]int32, len(ins))}
	d := decode(p, &sites, marked)
	d.loops = sites.loops
	return d
}

// spinSites resolves the spin marks of a decode. Under one
// instrumentation (loops nil) a mark carries its loop id; on a shared
// form each site any of ins marks gets the next site id, and loops[i]
// records the loop id + 1 the site has under ins[i].
type spinSites struct {
	ins   []*spin.Instrumentation
	loops [][]int32
	ids   []int32 // scratch: a site's loop id + 1 per instrumentation
}

// mark returns the mark id + 1 of a site, 0 when no instrumentation marks
// it. loopOf gives the site's loop id under one instrumentation, or -1.
func (s *spinSites) mark(loopOf func(ins *spin.Instrumentation) int) int32 {
	if s.loops == nil {
		if len(s.ins) == 0 {
			return 0
		}
		return int32(loopOf(s.ins[0]) + 1)
	}
	hit := false
	s.ids = s.ids[:0]
	for _, ins := range s.ins {
		id := int32(loopOf(ins) + 1)
		s.ids = append(s.ids, id)
		hit = hit || id != 0
	}
	if !hit {
		return 0
	}
	for i := range s.loops {
		s.loops[i] = append(s.loops[i], s.ids[i])
	}
	return int32(len(s.loops[0]))
}

// exit returns the mark id + 1 of taking target from the Br ending block
// of fn: the branch exits an instrumented loop and the target lies
// outside it.
func (s *spinSites) exit(fn, block, target int) int32 {
	return s.mark(func(ins *spin.Instrumentation) int {
		id := ins.ExitBranchLoop(fn, block)
		if id < 0 || ins.LoopContains(id, target) {
			return -1
		}
		return id
	})
}

// decode flattens p, resolving spin marks through sites; calls into the
// sync functions of marked libraries emit markers.
func decode(p *ir.Program, sites *spinSites, marked map[ir.LibTag]bool) *Decoded {
	tab := p.Interning()
	d := &Decoded{prog: p, funcs: make([]*dfunc, len(p.Funcs))}
	for fi, fn := range p.Funcs {
		df := &dfunc{fn: fn, marked: fn.Lib != ir.LibNone && fn.Sync != ir.SyncNone && marked[fn.Lib]}
		starts := make([]int32, len(fn.Blocks))
		total := 0
		for bi, b := range fn.Blocks {
			starts[bi] = int32(total)
			total += len(b.Instrs)
		}
		df.code = make([]dinstr, 0, total)
		for bi, b := range fn.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				di := dinstr{
					op:   in.Op,
					dst:  int32(in.Dst),
					a:    int32(in.A),
					b:    int32(in.B),
					c:    int32(in.C),
					imm:  in.Imm,
					next: int32(len(df.code)) + 1,
					sym:  tab.SymOf(in.Sym),
					loc:  tab.LocOf(in.Loc),
				}
				if int(in.Op) < len(execTab) {
					di.exec = execTab[in.Op]
				}
				if di.exec == nil {
					di.exec = execUnknown
				}
				switch in.Op {
				case ir.OpLoad, ir.OpAtomicLoad, ir.OpAtomicCAS, ir.OpAtomicAdd:
					di.spin = sites.mark(func(ins *spin.Instrumentation) int {
						return ins.SpinReadLoop(fn.Index, bi, ii)
					})
				case ir.OpJmp:
					di.t1 = starts[in.Imm]
				case ir.OpBr:
					di.t1 = starts[in.Imm]
					di.t2 = starts[in.Imm2]
					di.exit1 = sites.exit(fn.Index, bi, int(in.Imm))
					di.exit2 = sites.exit(fn.Index, bi, int(in.Imm2))
				case ir.OpCall, ir.OpSpawn:
					di.callee = p.Funcs[in.Imm]
					di.args = decodeArgs(in.Args)
				case ir.OpCallIndirect:
					di.args = decodeArgs(in.Args)
				}
				df.code = append(df.code, di)
			}
		}
		d.funcs[fi] = df
	}
	return d
}

func decodeArgs(args []int) []int32 {
	if len(args) == 0 {
		return nil
	}
	out := make([]int32, len(args))
	for i, r := range args {
		out[i] = int32(r)
	}
	return out
}

// execTab maps each opcode to its exec function — the "decode the switch
// once" table. Indexed by ir.Op at decode time, never at run time.
var execTab = [...]func(*VM, *thread, *frame, *dinstr) (bool, error){
	ir.OpNop:          execNop,
	ir.OpYield:        execYield,
	ir.OpConst:        execConst,
	ir.OpMov:          execMov,
	ir.OpAdd:          execAdd,
	ir.OpSub:          execSub,
	ir.OpMul:          execMul,
	ir.OpDiv:          execDiv,
	ir.OpMod:          execMod,
	ir.OpAnd:          execAnd,
	ir.OpOr:           execOr,
	ir.OpXor:          execXor,
	ir.OpShl:          execShl,
	ir.OpShr:          execShr,
	ir.OpCmpEQ:        execCmpEQ,
	ir.OpCmpNE:        execCmpNE,
	ir.OpCmpLT:        execCmpLT,
	ir.OpCmpLE:        execCmpLE,
	ir.OpCmpGT:        execCmpGT,
	ir.OpCmpGE:        execCmpGE,
	ir.OpNot:          execNot,
	ir.OpLoad:         execLoad,
	ir.OpStore:        execStore,
	ir.OpAtomicLoad:   execAtomicLoad,
	ir.OpAtomicStore:  execAtomicStore,
	ir.OpAtomicCAS:    execAtomicCAS,
	ir.OpAtomicAdd:    execAtomicAdd,
	ir.OpJmp:          execJmp,
	ir.OpBr:           execBr,
	ir.OpRet:          execRet,
	ir.OpCall:         execCall,
	ir.OpCallIndirect: execCallIndirect,
	ir.OpSpawn:        execSpawn,
	ir.OpJoin:         execJoin,
}

// runThread executes up to quantum instructions of t: fetch the frame's
// current flat instruction and tail into its pre-bound exec function. It
// returns early when the thread blocks, yields, or finishes. The frame is
// re-fetched per step because calls and returns change the stack.
func (v *VM) runThread(t *thread, quantum int) error {
	for i := 0; i < quantum; i++ {
		if t.state != stateRunnable {
			return nil
		}
		v.steps++
		if v.steps > v.opts.maxSteps {
			return ErrStepLimit
		}
		f := t.frames[len(t.frames)-1]
		in := &f.dfn.code[f.ip]
		yielded, err := in.exec(v, t, f, in)
		if err != nil {
			return err
		}
		if yielded {
			return nil
		}
	}
	return nil
}

func execNop(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.ip = int(in.next)
	return false, nil
}

func execYield(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.ip = int(in.next)
	return true, nil
}

func execConst(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = in.imm
	f.ip = int(in.next)
	return false, nil
}

func execMov(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a]
	f.ip = int(in.next)
	return false, nil
}

func execAdd(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a] + f.regs[in.b]
	f.ip = int(in.next)
	return false, nil
}

func execSub(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a] - f.regs[in.b]
	f.ip = int(in.next)
	return false, nil
}

func execMul(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a] * f.regs[in.b]
	f.ip = int(in.next)
	return false, nil
}

func execDiv(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	if f.regs[in.b] == 0 {
		f.regs[in.dst] = 0
	} else {
		f.regs[in.dst] = f.regs[in.a] / f.regs[in.b]
	}
	f.ip = int(in.next)
	return false, nil
}

func execMod(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	if f.regs[in.b] == 0 {
		f.regs[in.dst] = 0
	} else {
		f.regs[in.dst] = f.regs[in.a] % f.regs[in.b]
	}
	f.ip = int(in.next)
	return false, nil
}

func execAnd(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a] & f.regs[in.b]
	f.ip = int(in.next)
	return false, nil
}

func execOr(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a] | f.regs[in.b]
	f.ip = int(in.next)
	return false, nil
}

func execXor(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a] ^ f.regs[in.b]
	f.ip = int(in.next)
	return false, nil
}

func execShl(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a] << (uint64(f.regs[in.b]) & 63)
	f.ip = int(in.next)
	return false, nil
}

func execShr(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = int64(uint64(f.regs[in.a]) >> (uint64(f.regs[in.b]) & 63))
	f.ip = int(in.next)
	return false, nil
}

func execCmpEQ(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = b2i(f.regs[in.a] == f.regs[in.b])
	f.ip = int(in.next)
	return false, nil
}

func execCmpNE(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = b2i(f.regs[in.a] != f.regs[in.b])
	f.ip = int(in.next)
	return false, nil
}

func execCmpLT(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = b2i(f.regs[in.a] < f.regs[in.b])
	f.ip = int(in.next)
	return false, nil
}

func execCmpLE(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = b2i(f.regs[in.a] <= f.regs[in.b])
	f.ip = int(in.next)
	return false, nil
}

func execCmpGT(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = b2i(f.regs[in.a] > f.regs[in.b])
	f.ip = int(in.next)
	return false, nil
}

func execCmpGE(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = b2i(f.regs[in.a] >= f.regs[in.b])
	f.ip = int(in.next)
	return false, nil
}

func execNot(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = b2i(f.regs[in.a] == 0)
	f.ip = int(in.next)
	return false, nil
}

func execLoad(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	addr := f.regs[in.a]
	val, err := v.load(addr)
	if err != nil {
		return false, err
	}
	f.regs[in.dst] = val
	// The spin-read mark precedes the access event so detectors classify
	// the address before race-checking the access.
	if in.spin != 0 {
		v.emitSpin(t, event.KindSpinRead, in.spin-1, addr, val, in.loc)
	}
	v.emitAccess(t, event.KindRead, addr, val, in.sym, in.loc)
	f.ip = int(in.next)
	return false, nil
}

func execAtomicLoad(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	addr := f.regs[in.a]
	val, err := v.load(addr)
	if err != nil {
		return false, err
	}
	f.regs[in.dst] = val
	if in.spin != 0 {
		v.emitSpin(t, event.KindSpinRead, in.spin-1, addr, val, in.loc)
	}
	v.emitAccess(t, event.KindAtomicRead, addr, val, in.sym, in.loc)
	f.ip = int(in.next)
	return false, nil
}

func execStore(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	addr := f.regs[in.a]
	val := f.regs[in.b]
	if err := v.store(addr, val); err != nil {
		return false, err
	}
	v.emitAccess(t, event.KindWrite, addr, val, in.sym, in.loc)
	f.ip = int(in.next)
	return false, nil
}

func execAtomicStore(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	addr := f.regs[in.a]
	val := f.regs[in.b]
	if err := v.store(addr, val); err != nil {
		return false, err
	}
	v.emitAccess(t, event.KindAtomicWrite, addr, val, in.sym, in.loc)
	f.ip = int(in.next)
	return false, nil
}

func execAtomicCAS(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	addr := f.regs[in.a]
	old, err := v.load(addr)
	if err != nil {
		return false, err
	}
	if in.spin != 0 {
		v.emitSpin(t, event.KindSpinRead, in.spin-1, addr, old, in.loc)
	}
	v.emitAccess(t, event.KindAtomicRead, addr, old, in.sym, in.loc)
	if old == f.regs[in.b] {
		if err := v.store(addr, f.regs[in.c]); err != nil {
			return false, err
		}
		v.emitRMWWrite(t, addr, f.regs[in.c], in.sym, in.loc)
		f.regs[in.dst] = 1
	} else {
		f.regs[in.dst] = 0
	}
	f.ip = int(in.next)
	return false, nil
}

func execAtomicAdd(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	addr := f.regs[in.a]
	old, err := v.load(addr)
	if err != nil {
		return false, err
	}
	if in.spin != 0 {
		v.emitSpin(t, event.KindSpinRead, in.spin-1, addr, old, in.loc)
	}
	v.emitAccess(t, event.KindAtomicRead, addr, old, in.sym, in.loc)
	if err := v.store(addr, old+f.regs[in.b]); err != nil {
		return false, err
	}
	v.emitRMWWrite(t, addr, old+f.regs[in.b], in.sym, in.loc)
	f.regs[in.dst] = old
	f.ip = int(in.next)
	return false, nil
}

func execJmp(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.ip = int(in.t1)
	return false, nil
}

func execBr(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	if f.regs[in.a] != 0 {
		if in.exit1 != 0 {
			v.emitSpin(t, event.KindSpinExit, in.exit1-1, 0, 0, ir.NoLoc)
		}
		f.ip = int(in.t1)
	} else {
		if in.exit2 != 0 {
			v.emitSpin(t, event.KindSpinExit, in.exit2-1, 0, 0, ir.NoLoc)
		}
		f.ip = int(in.t2)
	}
	return false, nil
}

func execRet(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	var val int64
	if in.a != ir.NoReg {
		val = f.regs[in.a]
	}
	return v.returnFrom(t, val)
}

func execCall(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	callee := in.callee
	nf := v.newFrame(callee, int(in.dst))
	for i, r := range in.args {
		nf.regs[i] = f.regs[r]
	}
	f.ip = int(in.next) // resume after the call upon return
	v.pushCall(t, nf, callee, in.loc)
	return false, nil
}

func execCallIndirect(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	fi := f.regs[in.a]
	if fi < 0 || int(fi) >= len(v.prog.Funcs) {
		return false, fmt.Errorf("vm: indirect call to invalid function %d", fi)
	}
	callee := v.prog.Funcs[fi]
	if len(in.args) != callee.NParams {
		return false, fmt.Errorf("vm: indirect call to %q: want %d args, got %d",
			callee.Name, callee.NParams, len(in.args))
	}
	nf := v.newFrame(callee, int(in.dst))
	for i, r := range in.args {
		nf.regs[i] = f.regs[r]
	}
	f.ip = int(in.next)
	v.pushCall(t, nf, callee, in.loc)
	return false, nil
}

func execSpawn(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	v.argScratch = v.argScratch[:0]
	for _, r := range in.args {
		v.argScratch = append(v.argScratch, f.regs[r])
	}
	child := v.spawnThread(in.callee, v.argScratch)
	if in.dst != ir.NoReg {
		f.regs[in.dst] = int64(child)
	}
	v.emitThread(event.KindSpawn, t.id, child)
	v.emitThread(event.KindThreadStart, child, 0)
	f.ip = int(in.next)
	return false, nil
}

func execJoin(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	target := event.Tid(f.regs[in.a])
	if target < 0 || int(target) >= len(v.threads) {
		return false, fmt.Errorf("vm: join on invalid thread %d", target)
	}
	if v.threads[target].state != stateDone {
		t.state = stateBlockedJoin
		t.joinWait = target
		v.removeRunnable(t.id)
		// Do not advance: re-execute the join when woken so the event
		// fires after the child is really done.
		return true, nil
	}
	v.emitThread(event.KindJoin, t.id, target)
	f.ip = int(in.next)
	return false, nil
}

func execUnknown(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	return false, fmt.Errorf("vm: unknown opcode %v", in.op)
}
