package main

import (
	"fmt"
	"os"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/harness"
	"adhocrace/internal/ir"
	"adhocrace/internal/synclib"
	"adhocrace/internal/synth"
	"adhocrace/internal/vm"
)

// longtraceWorkload streams a lock-churn program through one detector for
// many windows (synth.LongTrace, lib preset, shadow GC on): millions of
// events, so vm dispatch, per-access detection, lockset/hb acquire-release
// and the shadow GC dominate and per-run costs amortize to nothing. One
// operation is one window.
type longtraceWorkload struct {
	windows int
	seed    int64
	// want is the fingerprint of the first call; every later call, and
	// the traced form, must reproduce it.
	want string
	prog *ir.Program
}

// Defaults of synth.LongTraceOpts: 32 phases, each spawning two workers.
const (
	ltPhases  = 32
	ltSpan    = 48
	ltWorkers = 2
	ltPasses  = 4
)

func (w *longtraceWorkload) tail() float64 { return 99 }

func (w *longtraceWorkload) opts(windows int, onWindow func(int, *detect.Report)) synth.LongTraceOpts {
	return synth.LongTraceOpts{
		Cfg:      detect.HelgrindPlusLib(),
		Opts:     detect.RunOpts{GCShadow: true},
		Windows:  windows,
		OnWindow: onWindow,
	}
}

// setup is the stream's fixed cost: building and instrumenting the
// program and the first windows of a fresh detector.
func (w *longtraceWorkload) setup(seed int64) error {
	w.seed = seed
	w.want = ""
	w.prog = buildLongTrace()
	_, err := synth.LongTrace(seed, w.opts(2, nil))
	return err
}

// check is the oracle: exactly one racy context per phase (the RACY[p]
// store), and the same fingerprint on every call.
func (w *longtraceWorkload) check(rep *detect.Report) error {
	if n := rep.RacyContexts(); n != ltPhases {
		return fmt.Errorf("%d racy contexts, want %d", n, ltPhases)
	}
	fp := harness.ReportFingerprint(rep)
	if w.want == "" {
		w.want = fp
	} else if fp != w.want {
		return fmt.Errorf("report fingerprint differs from the first call's")
	}
	return nil
}

func (w *longtraceWorkload) run(until time.Time, tr *tracer) (opStats, error) {
	var st opStats
	start := time.Now()
	for time.Now().Before(until) {
		var call opStats
		var rep *detect.Report
		var err error
		if tr != nil {
			rep, call, err = w.tracedCall(tr)
		} else {
			rep, call, err = w.call()
		}
		if err == nil {
			err = w.check(rep)
		}
		if err != nil {
			call.failed = call.attempted
			fmt.Fprintf(os.Stderr, "longtrace: %v\n", err)
		}
		st.add(call)
	}
	st.elapsed = time.Since(start)
	return st, nil
}

// call is one synth.LongTrace over w.windows windows. Window 0 also pays
// the program build and detector construction, so its time is not a
// sample; its events still count.
func (w *longtraceWorkload) call() (*detect.Report, opStats, error) {
	var st opStats
	last := time.Now()
	var events int64
	rep, err := synth.LongTrace(w.seed, w.opts(w.windows, func(i int, rep *detect.Report) {
		now := time.Now()
		if i > 0 {
			st.lat = append(st.lat, ms(now.Sub(last)))
		}
		last, events = now, rep.Events
	}))
	st.attempted = len(st.lat)
	st.events = events
	if rep != nil {
		st.counts.observe(rep)
	}
	return rep, st, err
}

// tracedCall is call with each window's vm run and detection made one
// after the other: the vm records the window into memory, the detector
// then consumes it. It rebuilds the stream from buildLongTrace and the
// same window seeds, so its report must equal synth.LongTrace's.
func (w *longtraceWorkload) tracedCall(tr *tracer) (*detect.Report, opStats, error) {
	var st opStats
	cfg := detect.HelgrindPlusLib()
	ins := cfg.Instrument(w.prog)
	d := detect.NewSharded(cfg, ins, w.prog, 1)
	defer d.Close()
	d.EnableShadowGC(0)
	buf := &event.Trace{}
	var rep *detect.Report
	for i := 0; i < w.windows; i++ {
		op := tr.beginOp()
		t0 := time.Now()
		var err error
		tr.call(op, "vm", func() {
			buf.Events = buf.Events[:0]
			_, err = vm.Run(w.prog, vm.Options{Seed: w.seed + int64(i), KnownLibs: cfg.KnownLibs, Instr: ins, Sink: buf})
		})
		if err != nil {
			tr.end(op)
			return nil, st, fmt.Errorf("window %d: %w", i, err)
		}
		tr.call(op, "detect", func() {
			buf.Replay(d)
			rep = d.Report()
		})
		tr.end(op)
		st.lat = append(st.lat, ms(time.Since(t0)))
	}
	st.attempted = len(st.lat)
	st.events = rep.Events
	st.counts.observe(rep)
	return rep, st, nil
}

func (w *longtraceWorkload) layers(m map[string]float64, base, traced opStats) error {
	var err error
	if m["ir.build_ms"], err = timeBuilds([]func() *ir.Program{buildLongTrace}); err != nil {
		return err
	}
	cfg := detect.HelgrindPlusLib()
	if m["spin.instrument_ms"], err = timeInstrument([]instrumentCall{{w.prog, cfg}}); err != nil {
		return err
	}
	// Eight consecutive windows through one GC'd detector.
	seeds := make([]int64, 8)
	for i := range seeds {
		seeds[i] = w.seed + int64(i)
	}
	own := []detRun{{prep: detect.Prepare(w.prog), cfg: cfg, seeds: seeds, gc: true}}
	if err := fillLayerRates(m, own); err != nil {
		return err
	}
	// The counters are levels of one long stream, not sums: report those
	// of a single call.
	traced.counts.fill(m, int(traced.counts.reports))
	return nil
}

func (w *longtraceWorkload) close() {}

// buildLongTrace builds the program synth.LongTrace streams, with its
// default shape: per phase, a worker making locked passes over the phase's
// DATA slice plus one unprotected RACY[p] store, and a main that spawns
// and joins each phase's workers in turn. The traced form needs the
// program itself; the fingerprint check ties the two together.
func buildLongTrace() *ir.Program {
	b := ir.NewBuilder("longtrace")
	lib := synclib.Install(b, ir.LibPthread)
	data := b.GlobalArray("DATA", ltPhases*ltSpan)
	racy := b.GlobalArray("RACY", ltPhases)
	mus := make([]int64, ltPhases)
	for p := range mus {
		mus[p] = b.Global(fmt.Sprintf("mu%d", p))
	}
	for p := 0; p < ltPhases; p++ {
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
	for p := 0; p < ltPhases; p++ {
		tids := make([]int, ltWorkers)
		for i := range tids {
			tids[i] = m.Spawn(fmt.Sprintf("phase%d", p))
		}
		for _, tid := range tids {
			m.Join(tid)
		}
	}
	m.Ret(ir.NoReg)
	return b.MustBuild()
}
