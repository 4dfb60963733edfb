package ir

import "fmt"

// Builder assembles a Program. It hands out global addresses, resolves
// name-based call fixups, and owns the function builders.
//
// Typical use:
//
//	b := ir.NewBuilder("demo")
//	flag := b.Global("FLAG")
//	f := b.Func("main", 0)
//	r0 := f.Const(1)
//	f.StoreAddr(flag, r0)
//	f.Ret(NoReg)
//	prog, err := b.Build()
type Builder struct {
	prog     *Program
	nextAddr int64
	fixups   []fixup
	fbs      []*FuncBuilder
}

type fixup struct {
	fn    *Func
	block int
	instr int
	name  string
}

// NewBuilder returns an empty program builder.
func NewBuilder(name string) *Builder {
	return &Builder{prog: &Program{Name: name}}
}

// Global allocates one named word of global memory and returns its address.
func (b *Builder) Global(name string) int64 {
	return b.GlobalArray(name, 1)
}

// GlobalArray allocates a named array of words and returns its base address.
func (b *Builder) GlobalArray(name string, words int) int64 {
	if words < 1 {
		panic(fmt.Sprintf("ir: GlobalArray %q with %d words", name, words))
	}
	addr := b.nextAddr
	b.prog.Globals = append(b.prog.Globals, Global{Name: name, Addr: addr, Words: words})
	b.nextAddr += int64(words) * 8
	return addr
}

// GlobalDesc returns the Global descriptor for an address returned by
// Global/GlobalArray. It panics if the address is not a global base.
func (b *Builder) GlobalDesc(addr int64) Global {
	for _, g := range b.prog.Globals {
		if g.Addr == addr {
			return g
		}
	}
	panic(fmt.Sprintf("ir: no global at address %d", addr))
}

// Func starts a new function with the given number of parameters and returns
// its builder. Parameters occupy registers 0..nparams-1.
func (b *Builder) Func(name string, nparams int) *FuncBuilder {
	f := &Func{
		Name:    name,
		Index:   len(b.prog.Funcs),
		NParams: nparams,
		NRegs:   nparams,
	}
	b.prog.Funcs = append(b.prog.Funcs, f)
	fb := &FuncBuilder{b: b, fn: f, file: name, line: 1}
	fb.NewBlock() // entry block
	b.fbs = append(b.fbs, fb)
	return fb
}

// LibFunc starts a new library function carrying a library tag and a
// semantic sync annotation.
func (b *Builder) LibFunc(name string, nparams int, lib LibTag, kind SyncKind) *FuncBuilder {
	fb := b.Func(name, nparams)
	fb.fn.Lib = lib
	fb.fn.Sync = kind
	return fb
}

// Build resolves call fixups, validates, and returns the program.
func (b *Builder) Build() (*Program, error) {
	for _, fx := range b.fixups {
		callee := b.prog.FuncByName(fx.name)
		if callee == nil {
			return nil, fmt.Errorf("ir: unresolved call to %q in %q", fx.name, fx.fn.Name)
		}
		b.prog.Funcs[fx.fn.Index].Blocks[fx.block].Instrs[fx.instr].Imm = int64(callee.Index)
	}
	b.fixups = nil
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// MustBuild is Build that panics on error; for tests and generators whose
// programs are constructed from trusted templates.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// FuncBuilder emits instructions into one function. It maintains a current
// block and a current synthetic source location; every emitted instruction
// consumes the current line and advances it by one, so distinct emissions
// get distinct racy contexts unless the caller pins the location.
type FuncBuilder struct {
	b    *Builder
	fn   *Func
	cur  int // current block index
	file string
	line int
	pin  bool // when true, the line does not auto-advance
}

// Fn returns the function under construction.
func (f *FuncBuilder) Fn() *Func { return f.fn }

// Index returns the function's index in the program.
func (f *FuncBuilder) Index() int { return f.fn.Index }

// NewBlock appends a new empty block and returns its index. The current
// block is left unchanged except for the very first block of the function.
func (f *FuncBuilder) NewBlock() int {
	idx := len(f.fn.Blocks)
	f.fn.Blocks = append(f.fn.Blocks, &Block{Index: idx})
	if idx == 0 {
		f.cur = 0
	}
	return idx
}

// SetBlock makes the given block current for subsequent emissions.
func (f *FuncBuilder) SetBlock(idx int) { f.cur = idx }

// SetLoc sets the synthetic source location for subsequent instructions.
func (f *FuncBuilder) SetLoc(file string, line int) {
	f.file, f.line, f.pin = file, line, false
}

// PinLoc sets the location and disables auto-advance, so every following
// instruction shares one racy context until SetLoc is called.
func (f *FuncBuilder) PinLoc(file string, line int) {
	f.file, f.line, f.pin = file, line, true
}

// NewReg allocates a fresh register.
func (f *FuncBuilder) NewReg() int {
	r := f.fn.NRegs
	f.fn.NRegs++
	return r
}

func (f *FuncBuilder) emit(in Instr) {
	in.Loc = Loc{File: f.file, Line: f.line}
	if !f.pin {
		f.line++
	}
	blk := f.fn.Blocks[f.cur]
	blk.Instrs = append(blk.Instrs, in)
}

// Nop emits a no-op.
func (f *FuncBuilder) Nop() { f.emit(Instr{Op: OpNop, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg}) }

// Yield emits a scheduling-hint yield.
func (f *FuncBuilder) Yield() {
	f.emit(Instr{Op: OpYield, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg})
}

// Const emits Dst = v into a fresh register and returns it.
func (f *FuncBuilder) Const(v int64) int {
	r := f.NewReg()
	f.emit(Instr{Op: OpConst, Dst: r, A: NoReg, B: NoReg, C: NoReg, Imm: v})
	return r
}

// Mov emits Dst = src into a fresh register.
func (f *FuncBuilder) Mov(src int) int {
	r := f.NewReg()
	f.emit(Instr{Op: OpMov, Dst: r, A: src, B: NoReg, C: NoReg})
	return r
}

// Bin emits a binary operation into a fresh register.
func (f *FuncBuilder) Bin(op Op, a, b int) int {
	r := f.NewReg()
	f.emit(Instr{Op: op, Dst: r, A: a, B: b, C: NoReg})
	return r
}

// MovTo re-assigns an existing register: dst = src. Used to build
// loop-carried values (induction variables), which the spin classifier must
// reject.
func (f *FuncBuilder) MovTo(dst, src int) {
	f.emit(Instr{Op: OpMov, Dst: dst, A: src, B: NoReg, C: NoReg})
}

// BinTo emits a binary operation into an existing register (dst = a op b).
func (f *FuncBuilder) BinTo(op Op, dst, a, b int) {
	f.emit(Instr{Op: op, Dst: dst, A: a, B: b, C: NoReg})
}

// Add emits a+b. Sub, Mul, CmpEQ etc. are thin wrappers over Bin.
func (f *FuncBuilder) Add(a, b int) int { return f.Bin(OpAdd, a, b) }

// Sub emits a-b.
func (f *FuncBuilder) Sub(a, b int) int { return f.Bin(OpSub, a, b) }

// Mul emits a*b.
func (f *FuncBuilder) Mul(a, b int) int { return f.Bin(OpMul, a, b) }

// CmpEQ emits a==b.
func (f *FuncBuilder) CmpEQ(a, b int) int { return f.Bin(OpCmpEQ, a, b) }

// CmpNE emits a!=b.
func (f *FuncBuilder) CmpNE(a, b int) int { return f.Bin(OpCmpNE, a, b) }

// CmpLT emits a<b.
func (f *FuncBuilder) CmpLT(a, b int) int { return f.Bin(OpCmpLT, a, b) }

// CmpGT emits a>b.
func (f *FuncBuilder) CmpGT(a, b int) int { return f.Bin(OpCmpGT, a, b) }

// CmpGE emits a>=b.
func (f *FuncBuilder) CmpGE(a, b int) int { return f.Bin(OpCmpGE, a, b) }

// Load emits Dst = mem[addrReg] with an optional static symbol.
func (f *FuncBuilder) Load(addrReg int, sym string) int {
	r := f.NewReg()
	f.emit(Instr{Op: OpLoad, Dst: r, A: addrReg, B: NoReg, C: NoReg, Sym: sym})
	return r
}

// Store emits mem[addrReg] = val with an optional static symbol.
func (f *FuncBuilder) Store(addrReg, val int, sym string) {
	f.emit(Instr{Op: OpStore, Dst: NoReg, A: addrReg, B: val, C: NoReg, Sym: sym})
}

// Addr emits a constant register holding a global address, carrying its
// symbol for static analysis.
func (f *FuncBuilder) Addr(addr int64, sym string) int {
	r := f.NewReg()
	f.emit(Instr{Op: OpConst, Dst: r, A: NoReg, B: NoReg, C: NoReg, Imm: addr, Sym: sym})
	return r
}

// sym returns the program-level symbol for a global base address.
func (f *FuncBuilder) sym(addr int64) string {
	return f.b.prog.SymbolAt(addr)
}

// LoadAddr loads from a fixed global address.
func (f *FuncBuilder) LoadAddr(addr int64) int {
	s := f.sym(addr)
	a := f.Addr(addr, s)
	return f.Load(a, s)
}

// StoreAddr stores to a fixed global address.
func (f *FuncBuilder) StoreAddr(addr int64, val int) {
	s := f.sym(addr)
	a := f.Addr(addr, s)
	f.Store(a, val, s)
}

// Index computes base + idx*8 and returns the address register. The symbol
// is the array's base symbol: aliasing is array-granular.
func (f *FuncBuilder) IndexAddr(base int64, idxReg int, arraySym string) int {
	b := f.Addr(base, arraySym)
	eight := f.Const(8)
	off := f.Mul(idxReg, eight)
	return f.Bin(OpAdd, b, off)
}

// LoadIdx loads array[idx] for a global array.
func (f *FuncBuilder) LoadIdx(base int64, idxReg int, arraySym string) int {
	a := f.IndexAddr(base, idxReg, arraySym)
	return f.Load(a, arraySym)
}

// StoreIdx stores array[idx] = val for a global array.
func (f *FuncBuilder) StoreIdx(base int64, idxReg, val int, arraySym string) {
	a := f.IndexAddr(base, idxReg, arraySym)
	f.Store(a, val, arraySym)
}

// AtomicLoad emits an atomic load.
func (f *FuncBuilder) AtomicLoad(addrReg int, sym string) int {
	r := f.NewReg()
	f.emit(Instr{Op: OpAtomicLoad, Dst: r, A: addrReg, B: NoReg, C: NoReg, Sym: sym})
	return r
}

// AtomicStore emits an atomic store.
func (f *FuncBuilder) AtomicStore(addrReg, val int, sym string) {
	f.emit(Instr{Op: OpAtomicStore, Dst: NoReg, A: addrReg, B: val, C: NoReg, Sym: sym})
}

// CAS emits Dst = compare-and-swap(mem[addrReg], old, new).
func (f *FuncBuilder) CAS(addrReg, old, new int, sym string) int {
	r := f.NewReg()
	f.emit(Instr{Op: OpAtomicCAS, Dst: r, A: addrReg, B: old, C: new, Sym: sym})
	return r
}

// AtomicAdd emits Dst = fetch-and-add(mem[addrReg], delta).
func (f *FuncBuilder) AtomicAdd(addrReg, delta int, sym string) int {
	r := f.NewReg()
	f.emit(Instr{Op: OpAtomicAdd, Dst: r, A: addrReg, B: delta, C: NoReg, Sym: sym})
	return r
}

// Jmp terminates the current block with an unconditional jump.
func (f *FuncBuilder) Jmp(block int) {
	f.emit(Instr{Op: OpJmp, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg, Imm: int64(block)})
}

// Br terminates the current block with a conditional branch.
func (f *FuncBuilder) Br(cond, then, els int) {
	f.emit(Instr{Op: OpBr, Dst: NoReg, A: cond, B: NoReg, C: NoReg, Imm: int64(then), Imm2: int64(els)})
}

// Ret terminates the current block with a return. Pass NoReg to return 0.
func (f *FuncBuilder) Ret(val int) {
	f.emit(Instr{Op: OpRet, Dst: NoReg, A: val, B: NoReg, C: NoReg})
}

// Call emits a direct call by callee name (resolved at Build time) and
// returns the result register.
func (f *FuncBuilder) Call(name string, args ...int) int {
	r := f.NewReg()
	f.emit(Instr{Op: OpCall, Dst: r, A: NoReg, B: NoReg, C: NoReg, Args: args})
	blk := f.fn.Blocks[f.cur]
	f.b.fixups = append(f.b.fixups, fixup{fn: f.fn, block: f.cur, instr: len(blk.Instrs) - 1, name: name})
	return r
}

// CallIndirect emits a call through a register holding a function index.
func (f *FuncBuilder) CallIndirect(fnReg int, args ...int) int {
	r := f.NewReg()
	f.emit(Instr{Op: OpCallIndirect, Dst: r, A: fnReg, B: NoReg, C: NoReg, Args: args})
	return r
}

// FuncIndex returns a register holding the index of the named function,
// resolved at Build time — a "function pointer".
func (f *FuncBuilder) FuncIndex(name string) int {
	r := f.NewReg()
	f.emit(Instr{Op: OpConst, Dst: r, A: NoReg, B: NoReg, C: NoReg})
	blk := f.fn.Blocks[f.cur]
	f.b.fixups = append(f.b.fixups, fixup{fn: f.fn, block: f.cur, instr: len(blk.Instrs) - 1, name: name})
	return r
}

// Spawn emits a thread spawn of the named function and returns the register
// holding the new thread id.
func (f *FuncBuilder) Spawn(name string, args ...int) int {
	r := f.NewReg()
	f.emit(Instr{Op: OpSpawn, Dst: r, A: NoReg, B: NoReg, C: NoReg, Args: args})
	blk := f.fn.Blocks[f.cur]
	f.b.fixups = append(f.b.fixups, fixup{fn: f.fn, block: f.cur, instr: len(blk.Instrs) - 1, name: name})
	return r
}

// Join emits a join on the thread id held in reg.
func (f *FuncBuilder) Join(reg int) {
	f.emit(Instr{Op: OpJoin, Dst: NoReg, A: reg, B: NoReg, C: NoReg})
}
