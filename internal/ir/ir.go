// Package ir defines the register-machine intermediate representation used
// throughout the repository as the stand-in for binary code.
//
// The paper's technique (Jannesari & Tichy, IPDPS 2010) operates on binaries
// instrumented with Valgrind: it recovers loops from machine code, classifies
// small loops as spinning read loops, and watches the resulting memory
// accesses at run time. This package provides the equivalent substrate: a
// small, explicit instruction set organised into basic blocks and functions,
// with enough static information (symbols, source locations, library tags)
// for the instrumentation phase in package spin and the runtime phase in
// package vm to do the same analyses.
//
// Programs are built with a Builder (see builder.go) and executed by
// internal/vm. Every instruction carries a source location so detectors can
// report "racy contexts" (distinct source locations with warnings), the
// metric used by the paper's evaluation.
package ir

import (
	"fmt"
	"strings"
	"sync"
)

// Op enumerates the operations of the mini-ISA.
type Op uint8

// Instruction opcodes. The set is deliberately small: arithmetic and
// comparisons over 64-bit words, loads/stores, a handful of atomics
// (enough to build every synchronization primitive from scratch), control
// flow, calls, and thread spawn/join.
const (
	// OpNop does nothing. Used as a padding/annotation point.
	OpNop Op = iota

	// OpConst: Dst = Imm.
	OpConst
	// OpMov: Dst = A.
	OpMov

	// Arithmetic: Dst = A op B.
	OpAdd
	OpSub
	OpMul
	OpDiv // division by zero yields 0 (the VM is total)
	OpMod // modulo by zero yields 0
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	// Comparisons: Dst = 1 if the relation holds, else 0.
	OpCmpEQ
	OpCmpNE
	OpCmpLT
	OpCmpLE
	OpCmpGT
	OpCmpGE
	// OpNot: Dst = 1 if A == 0 else 0.
	OpNot

	// Memory. Addresses are byte addresses into the VM's flat memory; all
	// accesses are word-sized (8 bytes). A is the address register.
	// OpLoad: Dst = mem[A].
	OpLoad
	// OpStore: mem[A] = B.
	OpStore

	// Atomics. These are the building blocks of the synclib primitives.
	// OpAtomicLoad: Dst = mem[A], sequentially consistent.
	OpAtomicLoad
	// OpAtomicStore: mem[A] = B, sequentially consistent.
	OpAtomicStore
	// OpAtomicCAS: if mem[A] == B { mem[A] = C; Dst = 1 } else { Dst = 0 }.
	OpAtomicCAS
	// OpAtomicAdd: Dst = mem[A]; mem[A] += B (fetch-and-add).
	OpAtomicAdd

	// Control flow. Terminators must be the last instruction of a block.
	// OpJmp: unconditional jump to block Imm.
	OpJmp
	// OpBr: if A != 0 jump to block Imm, else to block Imm2.
	OpBr
	// OpRet: return A (or 0 if A < 0) from the current function.
	OpRet

	// OpCall: Dst = call Funcs[Imm](args...). Args are registers listed in
	// Args. Direct call: the callee is known statically.
	OpCall
	// OpCallIndirect: Dst = call Funcs[reg A](args...). The callee is a
	// function index held in a register; the static analyses cannot see
	// through it. Used to model function-pointer pathologies (bodytrack).
	OpCallIndirect

	// Threading. These are VM-level operations (the OS/clone layer), visible
	// to detectors in every configuration, like system calls under Valgrind.
	// OpSpawn: Dst = new thread running Funcs[Imm](args...).
	OpSpawn
	// OpJoin: block until thread A terminates.
	OpJoin
	// OpYield: scheduling hint; body of polite spin loops.
	OpYield
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpCmpEQ: "cmpeq", OpCmpNE: "cmpne", OpCmpLT: "cmplt", OpCmpLE: "cmple",
	OpCmpGT: "cmpgt", OpCmpGE: "cmpge", OpNot: "not",
	OpLoad: "load", OpStore: "store",
	OpAtomicLoad: "aload", OpAtomicStore: "astore",
	OpAtomicCAS: "cas", OpAtomicAdd: "xadd",
	OpJmp: "jmp", OpBr: "br", OpRet: "ret",
	OpCall: "call", OpCallIndirect: "calli",
	OpSpawn: "spawn", OpJoin: "join", OpYield: "yield",
}

// String returns the mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsTerminator reports whether the opcode ends a basic block.
func (o Op) IsTerminator() bool {
	return o == OpJmp || o == OpBr || o == OpRet
}

// IsMemRead reports whether the opcode reads memory.
func (o Op) IsMemRead() bool {
	switch o {
	case OpLoad, OpAtomicLoad, OpAtomicCAS, OpAtomicAdd:
		return true
	}
	return false
}

// IsMemWrite reports whether the opcode may write memory. OpAtomicCAS only
// writes when it succeeds, but for static analysis it must be treated as a
// potential write.
func (o Op) IsMemWrite() bool {
	switch o {
	case OpStore, OpAtomicStore, OpAtomicCAS, OpAtomicAdd:
		return true
	}
	return false
}

// IsAtomic reports whether the opcode is one of the atomic memory ops.
func (o Op) IsAtomic() bool {
	switch o {
	case OpAtomicLoad, OpAtomicStore, OpAtomicCAS, OpAtomicAdd:
		return true
	}
	return false
}

// Loc is a synthetic source location. Workload generators assign locations;
// detectors aggregate warnings by location ("racy contexts").
type Loc struct {
	File string
	Line int
}

// IsZero reports whether the location is unset.
func (l Loc) IsZero() bool { return l.File == "" && l.Line == 0 }

// String formats the location as file:line.
func (l Loc) String() string {
	if l.IsZero() {
		return "?"
	}
	return fmt.Sprintf("%s:%d", l.File, l.Line)
}

// NoReg marks an unused register operand.
const NoReg = -1

// Instr is a single instruction. Operand meaning depends on Op; unused
// operands are NoReg/0.
type Instr struct {
	Op   Op
	Dst  int   // destination register, or NoReg
	A    int   // first source register, or NoReg
	B    int   // second source register, or NoReg
	C    int   // third source register (CAS new value), or NoReg
	Imm  int64 // immediate: constant, block target, or function index
	Imm2 int64 // second immediate: OpBr else-target
	Args []int // OpCall/OpCallIndirect/OpSpawn argument registers

	// Sym is the static symbol this instruction's address operand is known
	// to refer to, when the builder can prove it (global variables and
	// fixed array elements). Empty when the address is computed. The spin
	// classifier uses Sym for its alias reasoning.
	Sym string

	// Loc is the synthetic source location of the instruction.
	Loc Loc
}

// String renders the instruction in a readable assembly-like syntax.
func (in Instr) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", in.Op)
	switch in.Op {
	case OpNop, OpYield:
	case OpConst:
		fmt.Fprintf(&b, "r%d <- %d", in.Dst, in.Imm)
	case OpMov, OpNot:
		fmt.Fprintf(&b, "r%d <- r%d", in.Dst, in.A)
	case OpLoad, OpAtomicLoad:
		fmt.Fprintf(&b, "r%d <- [r%d]", in.Dst, in.A)
	case OpStore, OpAtomicStore:
		fmt.Fprintf(&b, "[r%d] <- r%d", in.A, in.B)
	case OpAtomicCAS:
		fmt.Fprintf(&b, "r%d <- cas([r%d], r%d, r%d)", in.Dst, in.A, in.B, in.C)
	case OpAtomicAdd:
		fmt.Fprintf(&b, "r%d <- xadd([r%d], r%d)", in.Dst, in.A, in.B)
	case OpJmp:
		fmt.Fprintf(&b, "b%d", in.Imm)
	case OpBr:
		fmt.Fprintf(&b, "r%d ? b%d : b%d", in.A, in.Imm, in.Imm2)
	case OpRet:
		if in.A != NoReg {
			fmt.Fprintf(&b, "r%d", in.A)
		}
	case OpCall:
		fmt.Fprintf(&b, "r%d <- f%d%v", in.Dst, in.Imm, in.Args)
	case OpCallIndirect:
		fmt.Fprintf(&b, "r%d <- *r%d%v", in.Dst, in.A, in.Args)
	case OpSpawn:
		fmt.Fprintf(&b, "r%d <- f%d%v", in.Dst, in.Imm, in.Args)
	case OpJoin:
		fmt.Fprintf(&b, "r%d", in.A)
	default:
		fmt.Fprintf(&b, "r%d <- r%d, r%d", in.Dst, in.A, in.B)
	}
	if in.Sym != "" {
		fmt.Fprintf(&b, "  ; %s", in.Sym)
	}
	return b.String()
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator.
type Block struct {
	Index  int
	Instrs []Instr
}

// Terminator returns the block's final instruction. It panics on an empty
// block; Program.Validate rejects those.
func (b *Block) Terminator() Instr {
	return b.Instrs[len(b.Instrs)-1]
}

// Succs returns the indices of the blocks this block may branch to.
func (b *Block) Succs() []int {
	t := b.Terminator()
	switch t.Op {
	case OpJmp:
		return []int{int(t.Imm)}
	case OpBr:
		if t.Imm == t.Imm2 {
			return []int{int(t.Imm)}
		}
		return []int{int(t.Imm), int(t.Imm2)}
	default: // OpRet
		return nil
	}
}

// LibTag identifies the synchronization library a function belongs to. The
// detector's event pipeline suppresses memory events inside functions whose
// tag is in the detector's known-library set and synthesizes high-level sync
// events instead — modelling Valgrind's pthread interceptors.
type LibTag string

// Library tags used by synclib and the workloads.
const (
	LibNone    LibTag = ""        // ordinary application code
	LibPthread LibTag = "pthread" // POSIX threads
	LibGlib    LibTag = "glib"    // GLIB threading
	LibOMP     LibTag = "omp"     // OpenMP runtime
)

// SyncKind is the semantic annotation of a library function: what high-level
// synchronization event it performs on its first argument. Used only when
// the library is known to the detector.
type SyncKind uint8

// Sync kinds. Arg0 of the annotated function is the primitive's address.
const (
	SyncNone SyncKind = iota
	SyncMutexLock
	SyncMutexUnlock
	SyncCondSignal  // signal/broadcast: release on the condvar
	SyncCondWait    // arg0 condvar, arg1 mutex: release mutex, acquire signal, reacquire mutex
	SyncBarrierWait // release+acquire among all arrivals
	SyncSemPost     // release
	SyncSemWait     // acquire
	SyncRWLockRd    // reader acquire
	SyncRWLockWr    // writer acquire
	SyncRWUnlock    // release
	SyncOnceEnter   // once-guard begin (acquire)
	SyncQueuePut    // task queue put (release on slot)
	SyncQueueGet    // task queue get (acquire on slot)
	SyncDestroy     // primitive destruction: no ordering edge, releases detector state
)

var syncKindNames = [...]string{
	SyncNone: "none", SyncMutexLock: "mutex-lock", SyncMutexUnlock: "mutex-unlock",
	SyncCondSignal: "cond-signal", SyncCondWait: "cond-wait",
	SyncBarrierWait: "barrier-wait", SyncSemPost: "sem-post", SyncSemWait: "sem-wait",
	SyncRWLockRd: "rwlock-rd", SyncRWLockWr: "rwlock-wr", SyncRWUnlock: "rw-unlock",
	SyncOnceEnter: "once-enter", SyncQueuePut: "queue-put", SyncQueueGet: "queue-get",
	SyncDestroy: "destroy",
}

// String returns the name of the sync kind.
func (k SyncKind) String() string {
	if int(k) < len(syncKindNames) && syncKindNames[k] != "" {
		return syncKindNames[k]
	}
	return fmt.Sprintf("sync(%d)", uint8(k))
}

// Func is a function: parameters arrive in registers 0..NParams-1.
type Func struct {
	Name    string
	Index   int // index in Program.Funcs
	NParams int
	NRegs   int // total registers used (>= NParams)
	Blocks  []*Block

	// Lib tags the function as belonging to a synchronization library.
	Lib LibTag
	// Sync annotates the function's library semantics (valid iff Lib != LibNone).
	Sync SyncKind
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Global is a named memory cell (or array) with a fixed address.
type Global struct {
	Name  string
	Addr  int64
	Words int // number of 8-byte words (1 for scalars)
}

// Program is a complete translation unit: functions plus global layout.
type Program struct {
	Name    string
	Funcs   []*Func
	Globals []Global

	byName map[string]*Func
	symtab map[int64]string // word address -> symbol for diagnostics

	// interned is the symbol/location table built once by Interning()
	// (see intern.go); internOnce makes the build safe under the
	// concurrent runs that share a prepared program.
	internOnce sync.Once
	interned   *Interning

	// derived holds the values memoized by Derived, each a *derivedEntry.
	derived sync.Map
}

// derivedEntry is one memoized value; once makes its build run exactly
// once however many goroutines ask for it together.
type derivedEntry struct {
	once sync.Once
	v    any
}

// Derived returns the value memoized under key, calling build to compute it
// on first use. It is for artifacts computed purely from the program (the
// spin analysis per window, the vm's pre-decoded form): a program is
// immutable once built, so every holder of it can share one copy, and a
// program analyzed once is never analyzed again. Keys must be comparable;
// a package keys its values with its own unexported types so keys of
// different packages never collide. Safe for concurrent use: builds of
// different keys run in parallel, concurrent asks for one key wait for its
// single build, and build may itself call Derived for another key.
func (p *Program) Derived(key any, build func() any) any {
	e, ok := p.derived.Load(key)
	if !ok {
		e, _ = p.derived.LoadOrStore(key, new(derivedEntry))
	}
	de := e.(*derivedEntry)
	de.once.Do(func() { de.v = build() })
	return de.v
}

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Func {
	if p.byName == nil {
		p.byName = make(map[string]*Func, len(p.Funcs))
		for _, f := range p.Funcs {
			p.byName[f.Name] = f
		}
	}
	return p.byName[name]
}

// SymbolAt returns the global symbol covering the given address, if any.
// Array elements are reported as "name[i]".
func (p *Program) SymbolAt(addr int64) string {
	if p.symtab == nil {
		p.symtab = make(map[int64]string)
		for _, g := range p.Globals {
			for i := 0; i < g.Words; i++ {
				name := g.Name
				if g.Words > 1 {
					name = fmt.Sprintf("%s[%d]", g.Name, i)
				}
				p.symtab[g.Addr+int64(i)*8] = name
			}
		}
	}
	return p.symtab[addr]
}

// MemoryWords returns the number of words of global memory the program
// needs (the high-water mark of its global layout).
func (p *Program) MemoryWords() int64 {
	var hi int64
	for _, g := range p.Globals {
		end := g.Addr/8 + int64(g.Words)
		if end > hi {
			hi = end
		}
	}
	return hi
}

// Validate checks structural invariants: non-empty blocks, terminators only
// at block ends, in-range branch targets, register bounds, and call targets.
func (p *Program) Validate() error {
	for _, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			return fmt.Errorf("ir: func %q has no blocks", f.Name)
		}
		if f.NParams > f.NRegs {
			return fmt.Errorf("ir: func %q has %d params but %d regs", f.Name, f.NParams, f.NRegs)
		}
		for bi, b := range f.Blocks {
			if b.Index != bi {
				return fmt.Errorf("ir: func %q block %d has index %d", f.Name, bi, b.Index)
			}
			if len(b.Instrs) == 0 {
				return fmt.Errorf("ir: func %q block %d is empty", f.Name, bi)
			}
			for ii, in := range b.Instrs {
				last := ii == len(b.Instrs)-1
				if in.Op.IsTerminator() != last {
					return fmt.Errorf("ir: func %q block %d instr %d: terminator placement", f.Name, bi, ii)
				}
				if err := p.validateInstr(f, in); err != nil {
					return fmt.Errorf("ir: func %q block %d instr %d (%s): %w", f.Name, bi, ii, in, err)
				}
			}
		}
	}
	return nil
}

func (p *Program) validateInstr(f *Func, in Instr) error {
	checkReg := func(r int, needed bool) error {
		if r == NoReg {
			if needed {
				return fmt.Errorf("missing register operand")
			}
			return nil
		}
		if r < 0 || r >= f.NRegs {
			return fmt.Errorf("register r%d out of range [0,%d)", r, f.NRegs)
		}
		return nil
	}
	checkBlock := func(t int64) error {
		if t < 0 || int(t) >= len(f.Blocks) {
			return fmt.Errorf("branch target b%d out of range", t)
		}
		return nil
	}
	checkFunc := func(t int64) error {
		if t < 0 || int(t) >= len(p.Funcs) {
			return fmt.Errorf("callee f%d out of range", t)
		}
		return nil
	}
	switch in.Op {
	case OpNop, OpYield:
		return nil
	case OpConst:
		return checkReg(in.Dst, true)
	case OpMov, OpNot:
		if err := checkReg(in.Dst, true); err != nil {
			return err
		}
		return checkReg(in.A, true)
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE:
		for _, r := range []int{in.Dst, in.A, in.B} {
			if err := checkReg(r, true); err != nil {
				return err
			}
		}
		return nil
	case OpLoad, OpAtomicLoad:
		if err := checkReg(in.Dst, true); err != nil {
			return err
		}
		return checkReg(in.A, true)
	case OpStore, OpAtomicStore:
		if err := checkReg(in.A, true); err != nil {
			return err
		}
		return checkReg(in.B, true)
	case OpAtomicCAS:
		for _, r := range []int{in.Dst, in.A, in.B, in.C} {
			if err := checkReg(r, true); err != nil {
				return err
			}
		}
		return nil
	case OpAtomicAdd:
		for _, r := range []int{in.Dst, in.A, in.B} {
			if err := checkReg(r, true); err != nil {
				return err
			}
		}
		return nil
	case OpJmp:
		return checkBlock(in.Imm)
	case OpBr:
		if err := checkReg(in.A, true); err != nil {
			return err
		}
		if err := checkBlock(in.Imm); err != nil {
			return err
		}
		return checkBlock(in.Imm2)
	case OpRet:
		return checkReg(in.A, false)
	case OpCall, OpSpawn:
		if err := checkFunc(in.Imm); err != nil {
			return err
		}
		callee := p.Funcs[in.Imm]
		if len(in.Args) != callee.NParams {
			return fmt.Errorf("callee %q wants %d args, got %d", callee.Name, callee.NParams, len(in.Args))
		}
		for _, r := range in.Args {
			if err := checkReg(r, true); err != nil {
				return err
			}
		}
		return checkReg(in.Dst, false)
	case OpCallIndirect:
		if err := checkReg(in.A, true); err != nil {
			return err
		}
		for _, r := range in.Args {
			if err := checkReg(r, true); err != nil {
				return err
			}
		}
		return checkReg(in.Dst, false)
	case OpJoin:
		return checkReg(in.A, true)
	default:
		return fmt.Errorf("unknown opcode %d", in.Op)
	}
}

// Disassemble renders the whole program for debugging.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	for _, g := range p.Globals {
		fmt.Fprintf(&b, "  global %-20s @%d words=%d\n", g.Name, g.Addr, g.Words)
	}
	for _, f := range p.Funcs {
		tag := ""
		if f.Lib != LibNone {
			tag = fmt.Sprintf(" [%s/%s]", f.Lib, f.Sync)
		}
		fmt.Fprintf(&b, "func f%d %s(params=%d regs=%d)%s\n", f.Index, f.Name, f.NParams, f.NRegs, tag)
		for _, blk := range f.Blocks {
			fmt.Fprintf(&b, "  b%d:\n", blk.Index)
			for _, in := range blk.Instrs {
				fmt.Fprintf(&b, "    %s\n", in)
			}
		}
	}
	return b.String()
}
