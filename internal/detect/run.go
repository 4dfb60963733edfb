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

// RunOpts carries a run's observers and controls: a warning callback, an
// event tap, the stop signals, failpoints and observability. None of them
// selects a pipeline shape or changes the report. Stream length picks the
// shape: the run's event.Segmented starts overlapping event production
// (the vm, or a trace decoder in replay) with detection once the stream
// passes event.OverlapThreshold, and the detector runs a shadow-GC cycle
// every GCPeriod events.
type RunOpts struct {
	// GCShadow is ignored: every detector runs the shadow GC.
	//
	// Deprecated: the GC is always armed (GCPeriod).
	GCShadow bool

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
	// event count (event.Counter). Called once per event on the
	// producer's goroutine (the vm's, or the trace decoder's).
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

	// newPipeline, when set, builds the run's overlap pipeline in place
	// of event.NewSegmented, and gcPeriod, when non-zero, replaces
	// GCPeriod: the seams through which this package's tests force a
	// pipeline shape or a GC period (export_test.go).
	newPipeline func(event.Sink) *event.Segmented
	gcPeriod    int64
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

// Run executes the prepared workload under one tool configuration, seed
// and opts, feeding the event stream through a fresh detector.
// It is the one way to drive one detector live; RunAll drives several
// from one vm run, and ReplayTrace drives one from a recording. A
// one-shot run is Prepare(p).Run(cfg, seed, RunOpts{}); a caller counting
// events sets opts.Tap to an event.Counter.
func (pr *Prepared) Run(cfg Config, seed int64, opts RunOpts) (*Report, vm.Result, error) {
	d, sink := pr.NewRun(cfg, opts)
	defer d.Close()
	res, err := vm.Run(pr.Prog, vm.Options{
		Seed:      seed,
		KnownLibs: cfg.KnownLibs,
		Instr:     pr.Instrument(cfg),
		Sink:      sink,
		Interrupt: opts.Interrupt,
		Deadline:  opts.Deadline,
		Obs:       opts.Obs,
		Decoded:   pr.Decoded(cfg),
	})
	return d.Report(), res, err
}

// NewRun builds the detector for a run of the prepared workload under cfg
// and opts — observability, failpoints, warning observer — and returns
// it with the sink the event stream feeds: the detector itself, behind
// opts.Tap when one is set.
// The detector owns the run's overlap pipeline (event.NewSegmented): it
// applies events on the producer's goroutine until the stream passes
// event.OverlapThreshold, then hands them to the pipeline's consumer.
// Prepared.Run and ReplayTrace feed it one stream, RunAll one filtered
// share of a stream; synth.LongTrace feeds it many vm runs in turn. The producer must flush the sink before
// reading the report (vm.Run and TraceReader.Replay do), and the caller
// closes the detector, which stops the consumer if one started.
func (pr *Prepared) NewRun(cfg Config, opts RunOpts) (d *Detector, sink event.Sink) {
	d = New(cfg, pr.Instrument(cfg), pr.Prog)
	if opts.gcPeriod != 0 {
		d.gcEvery, d.nextGC = opts.gcPeriod, opts.gcPeriod
	}
	d.setObs(opts.Obs)
	d.fault = opts.Fault
	d.onWarning = opts.OnWarning
	newPipeline := event.NewSegmented
	if opts.newPipeline != nil {
		newPipeline = opts.newPipeline
	}
	d.pipe = newPipeline((*applier)(d))
	d.plainLeft = d.pipe.Plain()
	d.pipe.SetObs(opts.Obs)
	d.pipe.SetFault(opts.Fault)
	if opts.Tap != nil {
		return d, event.Multi(opts.Tap, d)
	}
	return d, d
}
