package detect

import (
	"sync/atomic"
	"time"

	"adhocrace/internal/event"
	"adhocrace/internal/fault"
	"adhocrace/internal/ir"
	"adhocrace/internal/obs"
	"adhocrace/internal/spin"
	"adhocrace/internal/vm"
)

// RunOpts selects the pipeline shape of one detector run. The zero value
// is the plain synchronous pipeline. Every combination produces
// byte-identical reports; the knobs trade wall-clock time only.
type RunOpts struct {
	// SegmentEvents > 0 overlaps event production (the vm, or a trace
	// decoder in replay) with detection through double-buffered segments
	// of this many events (event.Segmented); negative uses
	// event.DefaultSegmentEvents.
	SegmentEvents int

	// GCShadow enables the quiescence shadow-state GC (see gc.go): shadow
	// words, read-sets, sync objects, and release histories dominated by
	// every live thread's clock are retired during the run. Warnings stay
	// byte-identical to the unbounded detector (the equivalence suite's
	// bar); ShadowBytes and the representation counters reflect the
	// retirement — that bounded footprint is the point.
	GCShadow bool
	// GCEvents sets the GC cycle period in events (0 means
	// DefaultGCEvents). Only meaningful with GCShadow.
	GCEvents int64

	// OnWarning, when set, observes every warning of the run exactly once,
	// inline as the detector appends it — the server's incremental report
	// stream. The observed sequence equals Report.Warnings byte for byte.
	// The callback
	// runs on whichever goroutine drives detection (the vm's execution
	// goroutine, or the overlap pipeline's consumer), so it may block —
	// blocking is the server's backpressure — but must not call back into
	// the detector.
	OnWarning func(Warning)
	// Tap, when non-nil, observes the raw event stream ahead of the
	// detector: live progress gauges (event.AtomicCounter) or a run's
	// event count (event.Counter). Called once per event on the goroutine
	// that drives detection.
	Tap event.Sink
	// Interrupt, when non-nil, aborts the run once it reads true
	// (vm.Options.Interrupt): vm.Run returns vm.ErrInterrupted and the
	// report covers exactly the events emitted before the stop.
	Interrupt *atomic.Bool
	// Deadline, when non-zero, aborts the run once the wall clock passes it
	// (vm.Options.Deadline): vm.Run returns vm.ErrDeadline, polled
	// alongside Interrupt at scheduling points. The server's per-run
	// timeout (raced -run-timeout).
	Deadline time.Time
	// Fault, when non-nil, arms the pipeline's named failpoints (segment
	// rotation, merge, GC cycle — see internal/fault). Nil (the default) keeps every site a nil-check;
	// this is the chaos suite's injection handle, never set in production
	// runs unless explicitly configured.
	Fault *fault.Registry
	// Obs, when non-nil, records per-stage observability for the run —
	// vm quanta, segment pipeline stalls, GC cycles, merge time — into the pipeline's recorder (internal/obs).
	// Nil (the default) makes every probe a nil-check; reports are
	// byte-identical either way.
	Obs *obs.Pipeline
}

// Overlapped returns o with the segment overlap enabled at the default
// segment size (unless a size is already chosen).
func (o RunOpts) Overlapped() RunOpts {
	if o.SegmentEvents == 0 {
		o.SegmentEvents = -1
	}
	return o
}

// Prepared is a workload compiled once and shared by many detector runs.
// Its derived artifacts — the instrumentation per spin window and the
// vm's pre-decoded form — are memoized on the program itself
// (ir.Program.Derived), so every Prepared of one program, RecordTrace and
// ReplayTrace share a single analysis. Program and artifacts are immutable
// at run time — the vm keeps all execution state private and the spin
// analysis is purely static — so concurrent runs (the experiment engine's
// jobs, the server's sessions) can share one Prepared.
type Prepared struct {
	Prog *ir.Program
}

// Prepare wraps an already-built program for shared runs.
func Prepare(p *ir.Program) *Prepared { return &Prepared{Prog: p} }

// PrepareBuild builds and wraps a workload.
func PrepareBuild(build func() *ir.Program) *Prepared { return Prepare(build()) }

// Memo keys of the artifacts derived from a program, per spin window.
type (
	instrumentKey int
	decodedKey    int
)

// Instrument returns cfg's instrumentation phase over the program,
// memoized on the program per spin window (nil when the spin feature is
// off). Safe for concurrent use. Config.Instrument is the uncached
// analysis.
func (pr *Prepared) Instrument(cfg Config) *spin.Instrumentation {
	if cfg.SpinWindow <= 0 {
		return nil
	}
	return pr.Prog.Derived(instrumentKey(cfg.SpinWindow), func() any {
		return cfg.Instrument(pr.Prog)
	}).(*spin.Instrumentation)
}

// Decoded returns the program's pre-decoded executable form under cfg's
// instrumentation (vm.Decode), memoized like Instrument. Safe for
// concurrent use; the decoded form is immutable.
func (pr *Prepared) Decoded(cfg Config) *vm.Decoded {
	ins := pr.Instrument(cfg)
	window := cfg.SpinWindow
	if ins == nil {
		// Every spin-off configuration shares the uninstrumented decode.
		window = 0
	}
	return pr.Prog.Derived(decodedKey(window), func() any {
		return vm.Decode(pr.Prog, ins)
	}).(*vm.Decoded)
}

// Run executes the prepared workload under one tool configuration, seed,
// and pipeline shape, feeding the event stream through a fresh detector.
// It is the one way to drive a detector live; ReplayTrace drives one from
// a recording. A one-shot run is Prepare(p).Run(cfg, seed, RunOpts{}); a
// caller counting events sets opts.Tap to an event.Counter.
func (pr *Prepared) Run(cfg Config, seed int64, opts RunOpts) (*Report, vm.Result, error) {
	ins := pr.Instrument(cfg)
	d, sink, stop := newRunDetector(cfg, ins, pr.Prog, opts)
	defer d.Close()
	defer stop()
	res, err := vm.Run(pr.Prog, vm.Options{
		Seed:      seed,
		KnownLibs: cfg.KnownLibs,
		Instr:     ins,
		Sink:      sink,
		Interrupt: opts.Interrupt,
		Deadline:  opts.Deadline,
		Obs:       opts.Obs,
		Decoded:   pr.Decoded(cfg),
	})
	return d.Report(), res, err
}

// newRunDetector builds the detector for one run of the requested pipeline
// shape — shadow GC, observability, failpoints, warning observer — and
// returns it with the sink the event stream feeds: the detector itself,
// behind opts.Tap when one is set, behind the overlap pipeline
// (event.Segmented) when opts.SegmentEvents asks for one. The producer
// must flush the sink before reading the report (vm.Run and
// TraceReader.Replay do). The caller defers stop after d.Close, so the
// pipeline's consumer goroutine is gone — on every exit, a re-raised
// detector panic included — before the detector is closed.
func newRunDetector(cfg Config, ins *spin.Instrumentation, p *ir.Program, opts RunOpts) (d *Detector, sink event.Sink, stop func()) {
	d = New(cfg, ins, p)
	if opts.GCShadow {
		d.EnableShadowGC(opts.GCEvents)
	}
	d.setObs(opts.Obs)
	d.fault = opts.Fault
	d.onWarning = opts.OnWarning
	sink = d
	if opts.Tap != nil {
		sink = event.Multi(opts.Tap, d)
	}
	if opts.SegmentEvents == 0 {
		return d, sink, func() {}
	}
	seg := event.NewSegmented(sink, opts.SegmentEvents)
	seg.SetObs(opts.Obs)
	seg.SetFault(opts.Fault)
	return d, seg, seg.Close
}
