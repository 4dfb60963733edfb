package synth

import (
	"fmt"

	"adhocrace/internal/detect"
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
// ltWorkers threads that make ltPasses mutex-protected passes over the
// phase's private ltSpan-word slice of DATA, plus one deliberately
// unprotected store to RACY[p] each — so every window churns the whole
// shadow table and the warning machinery, and every join renders the
// round's state dominated, GC bait by construction. At the default shape
// a window is about 26k events, so from the third window on the stream
// has passed event.OverlapThreshold and overlaps with detection, as any
// long run does.

// One phase's churn shape (above).
const (
	ltSpan    = 48
	ltWorkers = 2
	ltPasses  = 4
)

// LongTraceOpts shapes the windowed replay. The zero value of any field
// picks the default noted on it.
type LongTraceOpts struct {
	// Phases is the number of sequential spawn-join churn rounds per
	// window (default 32).
	Phases int
	// Windows is the number of vm.Run replays fed to the one detector
	// (default 1).
	Windows int
	// Cfg is the tool configuration (zero Name means HelgrindPlusLib).
	Cfg detect.Config
	// Opts are the run options of the one detector every window feeds, as
	// in detect.Prepared.Run. Like every detector it runs a shadow-GC
	// cycle every detect.GCPeriod events, about every two and a half
	// windows at the default shape.
	Opts detect.RunOpts
	// OnWindow, when set, observes the cumulative report after each
	// window — the soak tests' sampling hook.
	OnWindow func(window int, rep *detect.Report)
}

func (o LongTraceOpts) withDefaults() LongTraceOpts {
	if o.Phases <= 0 {
		o.Phases = 32
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
// worker function making ltPasses locked passes over the phase's DATA slice
// and one unprotected RACY store, and a main that spawns and joins the
// phase's workers in sequence.
func buildLongTraceProgram(o LongTraceOpts) *ir.Program {
	b := ir.NewBuilder("longtrace")
	lib := synclib.Install(b, ir.LibPthread)
	data := b.GlobalArray("DATA", o.Phases*ltSpan)
	racy := b.GlobalArray("RACY", o.Phases)
	mus := make([]int64, o.Phases)
	for p := range mus {
		mus[p] = b.Global(fmt.Sprintf("mu%d", p))
	}

	for p := 0; p < o.Phases; p++ {
		f := b.Func(fmt.Sprintf("phase%d", p), 0)
		lo := f.Const(int64(p * ltSpan))
		hi := f.Const(int64((p + 1) * ltSpan))
		one := f.Const(1)
		for pass := 0; pass < ltPasses; pass++ {
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
		tids := make([]int, ltWorkers)
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
// calls differing only in Opts see byte-identical event streams.
// The detector and its pipeline come from detect.Prepared.NewRun, as for
// any other run, so the stream overlaps with detection once it is long.
func LongTrace(seed int64, o LongTraceOpts) (*detect.Report, error) {
	o = o.withDefaults()
	pr := detect.Prepare(buildLongTraceProgram(o))
	ins, dec := pr.Instrument(o.Cfg), pr.Decoded(o.Cfg)
	d, sink := pr.NewRun(o.Cfg, o.Opts)
	defer d.Close()
	for w := 0; w < o.Windows; w++ {
		// Each vm.Run flushes the pipeline, so the per-window report is
		// complete.
		_, err := vm.Run(pr.Prog, vm.Options{
			Seed:      seed + int64(w),
			KnownLibs: o.Cfg.KnownLibs,
			Instr:     ins,
			Decoded:   dec,
			Sink:      sink,
			Interrupt: o.Opts.Interrupt,
			Deadline:  o.Opts.Deadline,
			Obs:       o.Opts.Obs,
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
