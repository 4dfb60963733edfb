package synth

import (
	"fmt"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/synclib"
	"adhocrace/internal/vm"
)

// Long-trace streaming mode: one detector kept alive across many replayed
// windows of a seeded churn workload. A window is one vm.Run of the same
// phased program; the windows are totally ordered through the main
// thread's continuing clock (the vm restarts child tids per run, main is
// tid 0 in every window), so the concatenated stream is a single long
// trace the detector sees as hundreds of millions of events — the scale
// at which unbounded shadow state is fatal and the quiescence GC
// (detect/gc.go) has to hold the footprint flat.
//
// Each window runs Phases sequential spawn-join rounds. Round p spawns
// Workers threads that make Passes mutex-protected passes over the
// phase's private Span-word slice of DATA, plus one deliberately
// unprotected store to RACY[p] each — so every window churns the whole
// shadow table and the warning machinery, and every join renders the
// round's state dominated, GC bait by construction.

// LongTraceOpts shapes the windowed replay. The zero value of any field
// picks the default noted on it.
type LongTraceOpts struct {
	// Phases is the number of sequential spawn-join churn rounds per
	// window (default 32).
	Phases int
	// Span is the number of DATA words each phase touches (default 48).
	Span int
	// Workers is the number of threads spawned per phase (default 2).
	Workers int
	// Passes is how many locked passes each worker makes over the phase's
	// slice (default 4).
	Passes int
	// Windows is the number of vm.Run replays fed to the one detector
	// (default 1).
	Windows int
	// MaxSteps bounds each window's execution (vm.Options.MaxSteps;
	// 0 means the vm default).
	MaxSteps int64
	// Cfg is the tool configuration (zero Name means HelgrindPlusLib).
	Cfg detect.Config
	// Opts is the pipeline shape, including the GC knobs. OnWarning, Tap,
	// and Interrupt are ignored in long-trace mode.
	Opts detect.RunOpts
	// OnWindow, when set, observes the cumulative report after each
	// window — the soak tests' sampling hook.
	OnWindow func(window int, rep *detect.Report)
}

func (o LongTraceOpts) withDefaults() LongTraceOpts {
	if o.Phases <= 0 {
		o.Phases = 32
	}
	if o.Span <= 0 {
		o.Span = 48
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Passes <= 0 {
		o.Passes = 4
	}
	if o.Windows <= 0 {
		o.Windows = 1
	}
	if o.Cfg.Name == "" {
		o.Cfg = detect.HelgrindPlusLib()
	}
	return o
}

// buildLongTraceProgram builds the phased churn workload: per phase, a
// worker function making Passes locked passes over the phase's DATA slice
// and one unprotected RACY store, and a main that spawns and joins the
// phase's workers in sequence.
func buildLongTraceProgram(o LongTraceOpts) *ir.Program {
	b := ir.NewBuilder("longtrace")
	lib := synclib.Install(b, ir.LibPthread)
	data := b.GlobalArray("DATA", o.Phases*o.Span)
	racy := b.GlobalArray("RACY", o.Phases)
	mus := make([]int64, o.Phases)
	for p := range mus {
		mus[p] = b.Global(fmt.Sprintf("mu%d", p))
	}

	for p := 0; p < o.Phases; p++ {
		f := b.Func(fmt.Sprintf("phase%d", p), 0)
		lo := f.Const(int64(p * o.Span))
		hi := f.Const(int64((p + 1) * o.Span))
		one := f.Const(1)
		for pass := 0; pass < o.Passes; pass++ {
			lib.Lock(f, mus[p], "")
			idx := f.Mov(lo)
			head, body, done := f.NewBlock(), f.NewBlock(), f.NewBlock()
			f.Jmp(head)
			f.SetBlock(head)
			f.Br(f.CmpLT(idx, hi), body, done)
			f.SetBlock(body)
			v := f.LoadIdx(data, idx, "DATA")
			f.StoreIdx(data, idx, f.Add(v, one), "DATA")
			f.BinTo(ir.OpAdd, idx, idx, one)
			f.Jmp(head)
			f.SetBlock(done)
			lib.Unlock(f, mus[p], "")
		}
		f.StoreAddr(racy+int64(p)*8, one)
		f.Ret(ir.NoReg)
	}

	m := b.Func("main", 0)
	for p := 0; p < o.Phases; p++ {
		tids := make([]int, o.Workers)
		for w := range tids {
			tids[w] = m.Spawn(fmt.Sprintf("phase%d", p))
		}
		for _, tid := range tids {
			m.Join(tid)
		}
	}
	m.Ret(ir.NoReg)
	return b.MustBuild()
}

// LongTrace streams Windows replays of the seeded churn workload through
// one persistent detector and returns the cumulative report. The window
// scheduling seeds derive from seed deterministically, so two LongTrace
// calls differing only in GC knobs see byte-identical event streams.
func LongTrace(seed int64, o LongTraceOpts) (*detect.Report, error) {
	o = o.withDefaults()
	prog := buildLongTraceProgram(o)
	ins := o.Cfg.Instrument(prog)
	d := detect.New(o.Cfg, ins, prog)
	defer d.Close()
	if o.Opts.GCShadow {
		d.EnableShadowGC(o.Opts.GCEvents)
	}
	var sink event.Sink = d
	if o.Opts.SegmentEvents != 0 {
		// One overlap pipeline for every window; each vm.Run flushes it,
		// so the per-window report is complete.
		seg := event.NewSegmented(d, o.Opts.SegmentEvents)
		defer seg.Close()
		sink = seg
	}
	for w := 0; w < o.Windows; w++ {
		_, err := vm.Run(prog, vm.Options{
			Seed:      seed + int64(w),
			KnownLibs: o.Cfg.KnownLibs,
			Instr:     ins,
			Sink:      sink,
			MaxSteps:  o.MaxSteps,
		})
		if err != nil {
			return nil, fmt.Errorf("longtrace window %d: %w", w, err)
		}
		if o.OnWindow != nil {
			o.OnWindow(w, d.Report())
		}
	}
	return d.Report(), nil
}
