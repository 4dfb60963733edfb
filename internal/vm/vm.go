// Package vm executes ir programs on a deterministic multithreaded
// interpreter and emits the runtime event stream race detectors consume.
//
// The VM stands in for the native execution under Valgrind: it interleaves
// threads preemptively under a seeded scheduler (identical program+seed ⇒
// identical interleaving), synthesizes high-level synchronization events for
// calls into libraries the detector knows (Valgrind's interceptors), hides
// memory traffic inside those known-library frames, and fires the spin-read
// and spin-exit marks placed by the instrumentation phase (package spin).
// What it emits never changes the interleaving, so one run can feed
// several detectors: a DecodeShared form adds lib-call/lib-return markers
// and site-numbered spin marks from which each consumer's filter (package
// detect) rebuilds its own stream.
package vm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/obs"
	"adhocrace/internal/spin"
)

// Options configures a run.
type Options struct {
	// Seed drives the scheduler. Runs with equal seeds are identical.
	Seed int64
	// maxSteps aborts runaway executions (livelock/deadlock guard); 0
	// means maxStepsDefault. Only tests lower it.
	maxSteps int64
	// KnownLibs is the set of library tags the run intercepts. Calls into
	// functions tagged with a known library emit sync events and hide
	// their internal memory traffic. A one-preset run sets its preset's
	// libraries: detect.Prepared.Run and RecordTrace, synth.LongTrace,
	// and perfbench's vm layers. A shared run (detect.Prepared.RunAll)
	// sets the libraries every one of its consumers intercepts and leaves
	// the rest to its DecodeShared form's markers.
	KnownLibs map[ir.LibTag]bool
	// Instr is the spin-loop instrumentation to honor; nil disables marks.
	// The one-preset runs above set their preset's; a shared run leaves it
	// nil and takes its spin sites from its DecodeShared form.
	Instr *spin.Instrumentation
	// Sink receives the event stream; nil discards it. A buffering sink
	// (event.Flusher — the overlap pipeline's event.Segmented, a trace
	// writer) is flushed whenever Run returns.
	Sink event.Sink
	// Interrupt, when non-nil, is polled at every scheduling point: once it
	// reads true the run stops with ErrInterrupted. This is the server's
	// session-cancellation hook (client disconnect, eviction, shutdown) —
	// the flag may be set from any goroutine, and the vm notices within one
	// scheduler quantum.
	Interrupt *atomic.Bool
	// Deadline, when non-zero, aborts the run with ErrDeadline once the
	// wall clock passes it. Polled every deadlinePollQuanta scheduler
	// quanta — the scheduler loop stays clock-free between polls — so the
	// vm notices within a few thousand instructions, microseconds against
	// any useful timeout. The server's per-run timeout hook.
	Deadline time.Time
	// Obs, when non-nil, records execution-side observability: step and
	// quantum counters and per-quantum spans (trace mode only — the
	// scheduler loop stays clock-free otherwise). Nil (the default)
	// compiles every probe down to a nil-check.
	Obs *obs.Pipeline
	// Decoded, when non-nil, supplies a pre-decoded form of the program
	// (vm.Decode) so the run skips the decode pass. It must have been built
	// from exactly this program and Instr; anything else is re-decoded.
	// detect.Prepared memoizes one per spin window. A DecodeShared form
	// (built with no Instr) also carries the run's markers and spin sites.
	Decoded *Decoded
}

const (
	// maxStepsDefault is the step bound of every run (ErrStepLimit).
	maxStepsDefault = 4 << 20
	// maxQuantum bounds the number of instructions a thread runs between
	// scheduling points; each quantum is drawn from 1..maxQuantum.
	maxQuantum     = 12
	maxMemoryWords = 1 << 22
	// deadlinePollQuanta spaces Options.Deadline clock reads: one
	// time.Now() per this many scheduler quanta (a few thousand
	// instructions), so the deadline costs nothing measurable between
	// polls yet still triggers at microsecond granularity.
	deadlinePollQuanta = 256
)

// ErrStepLimit is returned when a run exceeds its step bound (4M steps),
// the vm's livelock guard.
var ErrStepLimit = errors.New("vm: step limit exceeded (livelock?)")

// ErrDeadlock is returned when no thread is runnable but some are blocked.
var ErrDeadlock = errors.New("vm: deadlock: all live threads blocked")

// ErrInterrupted is returned when Options.Interrupt stopped the run.
var ErrInterrupted = errors.New("vm: run interrupted")

// ErrDeadline is returned when Options.Deadline expired mid-run.
var ErrDeadline = errors.New("vm: run deadline exceeded")

// Result summarizes a completed run.
type Result struct {
	// Steps is the number of instructions executed.
	Steps int64
	// Threads is the number of threads ever created (including main).
	Threads int
	// Memory exposes final memory for workload self-checks: word values
	// by address.
	Memory func(addr int64) int64
}

type threadState uint8

const (
	stateRunnable threadState = iota
	stateBlockedJoin
	stateDone
)

type frame struct {
	fn   *ir.Func
	regs []int64
	// dfn is the decoded form of fn; ip indexes its flat code.
	dfn *dfunc
	ip  int
	// retDst is the register in the caller frame receiving the return
	// value (NoReg to discard).
	retDst int
	// intercepted marks this frame as the outermost frame of a known-lib
	// call; sync Post fires when it returns. marked marks a call into a
	// marked library's sync function (DecodeShared); its lib-return marker
	// fires when it returns. Both carry the call's sync fields below.
	intercepted bool
	marked      bool
	syncKind    ir.SyncKind
	syncAddr    int64
	syncAddr2   int64
	callLoc     ir.LocID
}

type thread struct {
	id       event.Tid
	frames   []*frame
	state    threadState
	joinWait event.Tid // valid when stateBlockedJoin
	// libDepth counts enclosing known-library frames; memory and spin
	// events are suppressed while > 0.
	libDepth int
	// lastSpinAddr tracks, per spin loop, the last condition address this
	// thread read; exposed to detectors through SpinRead events.
	retValue int64
}

// VM is a single run in progress.
type VM struct {
	prog *ir.Program
	opts Options
	mem  []int64
	// dec is the pre-decoded program.
	dec *Decoded
	// interceptedBits/interceptedFn cache, per function index, whether a
	// call into the function is intercepted under this run's KnownLibs —
	// one bit test (or slice index, for programs with more than 64
	// functions) on the call path instead of a map lookup, and no per-run
	// allocation in the common small-program case.
	interceptedBits uint64
	interceptedFn   []bool

	threads  []*thread
	runnable []event.Tid
	rng      uint64
	steps    int64
	// frameFree recycles popped call frames (and their register arrays):
	// call-heavy workloads — every intercepted library primitive is a
	// call — would otherwise allocate two objects per call.
	frameFree []*frame
	// argScratch carries spawn arguments to the child frame without a
	// per-spawn allocation.
	argScratch []int64
	sink       event.Sink
	ev         event.Event // scratch, reused across emissions
	// deadlineTick counts quanta until the next Options.Deadline poll;
	// primed so the first quantum checks, making an already-expired
	// deadline abort deterministically before any real work.
	deadlineTick int
}

// New prepares a run of the program.
func New(p *ir.Program, opts Options) *VM {
	if opts.maxSteps == 0 {
		opts.maxSteps = maxStepsDefault
	}
	seed := uint64(opts.Seed)
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	words := p.MemoryWords() + 64
	v := &VM{
		prog: p,
		opts: opts,
		mem:  make([]int64, words),
		rng:  seed,
		sink: opts.Sink,
	}
	if len(p.Funcs) > 64 {
		v.interceptedFn = make([]bool, len(p.Funcs))
	}
	for i, fn := range p.Funcs {
		hit := fn.Lib != ir.LibNone && fn.Sync != ir.SyncNone && opts.KnownLibs[fn.Lib]
		if v.interceptedFn != nil {
			v.interceptedFn[i] = hit
		} else if hit {
			v.interceptedBits |= 1 << uint(i)
		}
	}
	if opts.Decoded.Matches(p, opts.Instr) {
		v.dec = opts.Decoded
	} else {
		v.dec = Decode(p, opts.Instr)
	}
	v.deadlineTick = deadlinePollQuanta - 1
	return v
}

// Run executes the program's "main" function to completion of all threads.
// If the sink buffers events (event.Flusher), it is flushed before Run
// returns — error returns included — so callers never observe a result
// with detection still in flight, and the sink has seen exactly the
// emitted prefix. Shutting a pipelined sink down is the caller's job.
func (v *VM) Run() (Result, error) {
	res, err := v.run(v.runThread)
	if f, ok := v.sink.(event.Flusher); ok {
		f.Flush()
	}
	return res, err
}

// run drives the scheduler, handing each quantum to exec: the decoded
// dispatch (runThread) in every production run. The parameter is the seam
// that lets package tests drive this same scheduler with the legacy
// switch interpreter they keep as an oracle.
func (v *VM) run(exec func(t *thread, quantum int) error) (Result, error) {
	main := v.prog.FuncByName("main")
	if main == nil {
		return Result{}, errors.New("vm: program has no main function")
	}
	if main.NParams != 0 {
		return Result{}, fmt.Errorf("vm: main must take 0 params, has %d", main.NParams)
	}
	v.spawnThread(main, nil)
	v.emitThread(event.KindThreadStart, 0, 0)

	for {
		if v.opts.Interrupt != nil && v.opts.Interrupt.Load() {
			return v.result(), ErrInterrupted
		}
		if !v.opts.Deadline.IsZero() {
			if v.deadlineTick++; v.deadlineTick >= deadlinePollQuanta {
				v.deadlineTick = 0
				if time.Now().After(v.opts.Deadline) {
					return v.result(), ErrDeadline
				}
			}
		}
		if len(v.runnable) == 0 {
			if v.allDone() {
				break
			}
			return v.result(), ErrDeadlock
		}
		ti := int(v.next() % uint64(len(v.runnable)))
		tid := v.runnable[ti]
		quantum := 1 + int(v.next()%maxQuantum)
		before := v.steps
		span := v.opts.Obs.BeginSpan() // 0 (no clock read) unless tracing
		err := exec(v.threads[tid], quantum)
		v.opts.Obs.EndSpan(obs.TrackVM, obs.HistQuantumNs, span, int64(tid))
		v.opts.Obs.Add(obs.CtrVMQuanta, 1)
		v.opts.Obs.Add(obs.CtrVMSteps, v.steps-before)
		if err != nil {
			return v.result(), err
		}
	}
	return v.result(), nil
}

func (v *VM) result() Result {
	return Result{
		Steps:   v.steps,
		Threads: len(v.threads),
		Memory: func(addr int64) int64 {
			w := addr >> 3
			if w < 0 || w >= int64(len(v.mem)) {
				return 0
			}
			return v.mem[w]
		},
	}
}

func (v *VM) allDone() bool {
	for _, t := range v.threads {
		if t.state != stateDone {
			return false
		}
	}
	return true
}

// next is a xorshift64* step.
func (v *VM) next() uint64 {
	x := v.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	v.rng = x
	return x * 0x2545f4914f6cdd1d
}

func (v *VM) spawnThread(fn *ir.Func, args []int64) event.Tid {
	tid := event.Tid(len(v.threads))
	t := &thread{id: tid}
	f := v.newFrame(fn, ir.NoReg)
	copy(f.regs, args)
	t.frames = append(t.frames, f)
	v.threads = append(v.threads, t)
	v.runnable = append(v.runnable, tid)
	return tid
}

// newFrame takes a frame off the free list (zeroing the recycled register
// window — callees may read registers they never wrote) or allocates one.
// The frame carries the callee's decoded code; pc 0 is the entry block's
// first instruction.
func (v *VM) newFrame(fn *ir.Func, retDst int) *frame {
	dfn := v.dec.funcs[fn.Index]
	n := len(v.frameFree)
	if n == 0 {
		return &frame{fn: fn, dfn: dfn, regs: make([]int64, fn.NRegs), retDst: retDst}
	}
	f := v.frameFree[n-1]
	v.frameFree = v.frameFree[:n-1]
	regs := f.regs
	if cap(regs) < fn.NRegs {
		regs = make([]int64, fn.NRegs)
	} else {
		regs = regs[:fn.NRegs]
		for i := range regs {
			regs[i] = 0
		}
	}
	*f = frame{fn: fn, dfn: dfn, regs: regs, retDst: retDst}
	return f
}

// freeFrame returns a popped frame to the free list.
func (v *VM) freeFrame(f *frame) {
	v.frameFree = append(v.frameFree, f)
}

func (v *VM) removeRunnable(tid event.Tid) {
	for i, r := range v.runnable {
		if r == tid {
			v.runnable = append(v.runnable[:i], v.runnable[i+1:]...)
			return
		}
	}
}

// emit routes an event to the sink, honoring library suppression for
// memory and spin events.
func (v *VM) emitAccess(t *thread, kind event.Kind, addr, value int64, sym ir.SymID, loc ir.LocID) {
	if v.sink == nil || t.libDepth > 0 {
		return
	}
	v.ev = event.Event{Kind: kind, Tid: t.id, Addr: addr, Value: value, Sym: sym, Loc: loc}
	v.sink.Handle(&v.ev)
}

func (v *VM) emitRMWWrite(t *thread, addr, value int64, sym ir.SymID, loc ir.LocID) {
	if v.sink == nil || t.libDepth > 0 {
		return
	}
	v.ev = event.Event{Kind: event.KindAtomicWrite, Tid: t.id, Addr: addr, Value: value, RMW: true, Sym: sym, Loc: loc}
	v.sink.Handle(&v.ev)
}

func (v *VM) emitSpin(t *thread, kind event.Kind, loopID int32, addr, value int64, loc ir.LocID) {
	if v.sink == nil || t.libDepth > 0 {
		return
	}
	v.ev = event.Event{Kind: kind, Tid: t.id, SpinLoop: loopID, Addr: addr, Value: value, Loc: loc}
	v.sink.Handle(&v.ev)
}

func (v *VM) emitSync(t *thread, kind event.Kind, sk ir.SyncKind, addr, addr2 int64, loc ir.LocID) {
	if v.sink == nil {
		return
	}
	v.ev = event.Event{Kind: kind, Tid: t.id, Sync: sk, Addr: addr, Addr2: addr2, Loc: loc}
	v.sink.Handle(&v.ev)
}

// emitMark emits a lib-call or lib-return marker of a marked call: the
// frame's sync fields, and the callee's function index in Value.
func (v *VM) emitMark(t *thread, kind event.Kind, f *frame) {
	if v.sink == nil {
		return
	}
	v.ev = event.Event{Kind: kind, Tid: t.id, Sync: f.syncKind, Addr: f.syncAddr, Addr2: f.syncAddr2,
		Value: int64(f.fn.Index), Loc: f.callLoc}
	v.sink.Handle(&v.ev)
}

func (v *VM) emitThread(kind event.Kind, tid, child event.Tid) {
	if v.sink == nil {
		return
	}
	v.ev = event.Event{Kind: kind, Tid: tid, Child: child}
	v.sink.Handle(&v.ev)
}

func (v *VM) load(addr int64) (int64, error) {
	w := addr >> 3
	if w < 0 {
		return 0, fmt.Errorf("vm: load from negative address %d", addr)
	}
	if w >= int64(len(v.mem)) {
		if w >= maxMemoryWords {
			return 0, fmt.Errorf("vm: load address %d out of range", addr)
		}
		v.growMem(w)
	}
	return v.mem[w], nil
}

func (v *VM) store(addr, val int64) error {
	w := addr >> 3
	if w < 0 {
		return fmt.Errorf("vm: store to negative address %d", addr)
	}
	if w >= int64(len(v.mem)) {
		if w >= maxMemoryWords {
			return fmt.Errorf("vm: store address %d out of range", addr)
		}
		v.growMem(w)
	}
	v.mem[w] = val
	return nil
}

func (v *VM) growMem(w int64) {
	n := int64(len(v.mem))
	for n <= w {
		n *= 2
	}
	if n > maxMemoryWords {
		n = maxMemoryWords
	}
	bigger := make([]int64, n)
	copy(bigger, v.mem)
	v.mem = bigger
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// intercepted reports whether calls into the function are intercepted
// under this run's KnownLibs, from the cache VM.New resolved.
func (v *VM) intercepted(idx int) bool {
	if v.interceptedFn != nil {
		return v.interceptedFn[idx]
	}
	return v.interceptedBits&(1<<uint(idx)) != 0
}

// pushCall enters a prepared callee frame, firing the interception
// bookkeeping (sync Pre, library suppression) of a call.
func (v *VM) pushCall(t *thread, nf *frame, callee *ir.Func, loc ir.LocID) {
	switch {
	case t.libDepth > 0:
		t.libDepth++
	case v.intercepted(callee.Index):
		nf.intercepted = true
		syncFields(nf, callee, loc)
		v.emitSync(t, event.KindSyncPre, nf.syncKind, nf.syncAddr, nf.syncAddr2, loc)
		t.libDepth++
	case nf.dfn.marked:
		nf.marked = true
		syncFields(nf, callee, loc)
		v.emitMark(t, event.KindLibCall, nf)
	}
	t.frames = append(t.frames, nf)
}

// syncFields records on a library call's frame the sync fields its events
// carry: the callee's sync kind, its first two arguments as the primitive
// addresses, and the call's location.
func syncFields(nf *frame, callee *ir.Func, loc ir.LocID) {
	nf.syncKind = callee.Sync
	if callee.NParams > 0 {
		nf.syncAddr = nf.regs[0]
	}
	if callee.NParams > 1 {
		nf.syncAddr2 = nf.regs[1]
	}
	nf.callLoc = loc
}

// returnFrom pops the current frame. When the thread's last frame returns,
// the thread is done and joiners are woken.
func (v *VM) returnFrom(t *thread, val int64) (bool, error) {
	f := t.frames[len(t.frames)-1]
	switch {
	case f.intercepted:
		t.libDepth--
		v.emitSync(t, event.KindSyncPost, f.syncKind, f.syncAddr, f.syncAddr2, f.callLoc)
	case f.marked:
		v.emitMark(t, event.KindLibReturn, f)
	case t.libDepth > 0:
		t.libDepth--
	}
	t.frames = t.frames[:len(t.frames)-1]
	if len(t.frames) == 0 {
		v.freeFrame(f)
		t.retValue = val
		t.state = stateDone
		v.removeRunnable(t.id)
		v.emitThread(event.KindThreadExit, t.id, 0)
		v.wakeJoiners(t.id)
		return true, nil
	}
	caller := t.frames[len(t.frames)-1]
	if f.retDst != ir.NoReg {
		caller.regs[f.retDst] = val
	}
	v.freeFrame(f)
	return false, nil
}

func (v *VM) wakeJoiners(done event.Tid) {
	for _, t := range v.threads {
		if t.state == stateBlockedJoin && t.joinWait == done {
			t.state = stateRunnable
			v.runnable = append(v.runnable, t.id)
		}
	}
}

// Run is a convenience wrapper: build a VM and run it.
func Run(p *ir.Program, opts Options) (Result, error) {
	return New(p, opts).Run()
}
