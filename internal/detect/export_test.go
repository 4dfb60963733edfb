package detect

import (
	"math"
	_ "unsafe" // go:linkname, for the pipeline seam below

	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/spin"
	"adhocrace/internal/vm"
)

// Bridges for the external test package (detect_test, used by tests that
// import the workload packages and would otherwise cycle back into
// detect): share the in-package test helpers instead of copying them.
var (
	MustRunForTest     = mustRun
	RacyProgramForTest = racyProgram
)

// RaceEnabled reports whether the test binary runs under the race detector.
const RaceEnabled = raceEnabled

// MemoizedInstrumentation returns the instrumentation memoized on p for
// the spin window without computing one: nil when nothing has stored it,
// in which case the nil is memoized — so ask only after the call under
// test.
func MemoizedInstrumentation(p *ir.Program, window int) *spin.Instrumentation {
	ins, _ := p.Derived(instrumentKey(window), func() any { return (*spin.Instrumentation)(nil) }).(*spin.Instrumentation)
	return ins
}

// newSegmented is event's policy-free pipeline constructor. The linkname
// reaches it from this test-only file, so forcing a pipeline shape stays
// out of every exported API.
//
//go:linkname newSegmented adhocrace/internal/event.newSegmented
func newSegmented(down event.Sink, plain, size int) *event.Segmented

// ForcePlain returns o with the plain pipeline forced: every event is
// handled on the producer goroutine, however long the stream.
func ForcePlain(o RunOpts) RunOpts { return forcePipeline(o, math.MaxInt, event.DefaultSegmentEvents) }

// ForceOverlap returns o with overlap forced from the first event, in
// segments of size events.
func ForceOverlap(o RunOpts, size int) RunOpts { return forcePipeline(o, 0, size) }

// forcePipeline makes NewRun build o's pipeline with the given policy in
// place of event.NewSegmented's.
func forcePipeline(o RunOpts, plain, size int) RunOpts {
	o.newPipeline = func(down event.Sink) *event.Segmented { return newSegmented(down, plain, size) }
	return o
}

// WithGCPeriod returns o with the shadow GC cycling every period events in
// place of GCPeriod, so a short run exercises many cycles.
func WithGCPeriod(o RunOpts, period int64) RunOpts {
	o.gcPeriod = period
	return o
}

// NoGC returns o with the shadow GC disarmed: the unbounded detector the
// GC tests compare against.
func NoGC(o RunOpts) RunOpts { return WithGCPeriod(o, math.MaxInt64) }

// GCPeriodOf returns the period the shadow GC of a run under o cycles at.
func GCPeriodOf(o RunOpts) int64 {
	if o.gcPeriod == 0 {
		return GCPeriod
	}
	return o.gcPeriod
}

// SharedStreams runs pr's program once at seed for the consumers of a
// RunAll — a detector per configuration of cfgs, then a view per library
// set of views — and returns the stream each consumer's filter passes on,
// in consumer order, with the run's result.
func SharedStreams(pr *Prepared, cfgs []Config, views []map[ir.LibTag]bool, seed int64) ([][]event.Event, vm.Result, error) {
	var cons []consumer
	for _, cfg := range cfgs {
		cons = append(cons, consumer{libs: cfg.KnownLibs, window: cfg.SpinWindow})
	}
	for _, libs := range views {
		cons = append(cons, consumer{libs: libs})
	}
	out := make([][]event.Event, len(cons))
	sinks := make([]event.Sink, len(cons))
	for i := range cons {
		sinks[i] = event.SinkFunc(func(ev *event.Event) { out[i] = append(out[i], *ev) })
	}
	res, err := pr.runShared(cons, sinks, seed, RunOpts{})
	return out, res, err
}
