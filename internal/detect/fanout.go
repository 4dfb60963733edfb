package detect

import (
	"slices"
	"strconv"
	"strings"

	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/spin"
	"adhocrace/internal/vm"
)

// View is a consumer of a shared run other than a detector: it is fed the
// stream a one-preset run intercepting KnownLibs, with the spin feature
// off, emits. The synth corpus's ground-truth oracle is one.
type View struct {
	KnownLibs map[ir.LibTag]bool
	Sink      event.Sink
}

// RunAll runs the prepared workload once at seed and feeds every
// configuration's detector, and every view's sink, exactly the stream a
// run of its own would emit: what the vm emits never changes its
// interleaving, only which events a consumer sees. It returns one report
// per configuration, in order. opts applies to every detector (a Tap sees
// each detector's stream in turn). A single configuration with no view is
// Run.
//
// The run intercepts outright only the libraries every consumer
// intercepts. Calls into the sync functions of the other libraries some
// consumer intercepts emit lib-call/lib-return markers, and every spin
// site of any consumer's window emits its mark under a site id
// (vm.DecodeShared). A filter in front of each consumer rebuilds its
// stream from that.
func (pr *Prepared) RunAll(cfgs []Config, views []View, seed int64, opts RunOpts) ([]*Report, vm.Result, error) {
	if len(cfgs) == 1 && len(views) == 0 {
		rep, res, err := pr.Run(cfgs[0], seed, opts)
		return []*Report{rep}, res, err
	}
	cons := make([]consumer, 0, len(cfgs)+len(views))
	for _, cfg := range cfgs {
		cons = append(cons, consumer{libs: cfg.KnownLibs, window: cfg.SpinWindow})
	}
	for _, v := range views {
		cons = append(cons, consumer{libs: v.KnownLibs})
	}
	dets := make([]*Detector, len(cfgs))
	sinks := make([]event.Sink, 0, len(cons))
	for i, cfg := range cfgs {
		d, sink := pr.NewRun(cfg, opts)
		defer d.Close()
		dets[i] = d
		sinks = append(sinks, sink)
	}
	for _, v := range views {
		sinks = append(sinks, v.Sink)
	}
	res, err := pr.runShared(cons, sinks, seed, opts)
	reps := make([]*Report, len(dets))
	for i, d := range dets {
		reps[i] = d.Report()
	}
	return reps, res, err
}

// runShared runs the program once at seed, feeding sinks[i] the stream of
// cons[i]; opts supplies the vm's stop signals and observability.
func (pr *Prepared) runShared(cons []consumer, sinks []event.Sink, seed int64, opts RunOpts) (vm.Result, error) {
	plan := pr.plan(cons)
	filters := make([]event.Sink, len(sinks))
	for i, s := range sinks {
		filters[i] = &filter{down: s, filterTables: plan.views[i]}
	}
	return vm.Run(pr.Prog, vm.Options{
		Seed:      seed,
		KnownLibs: plan.intercept,
		Sink:      event.Multi(filters...),
		Interrupt: opts.Interrupt,
		Deadline:  opts.Deadline,
		Obs:       opts.Obs,
		Decoded:   plan.dec,
	})
}

// consumer is what a shared run's consumer needs of the stream: the
// libraries it intercepts and its spin window (0: no spin marks).
type consumer struct {
	libs   map[ir.LibTag]bool
	window int
}

// sharedPlan is the memoized setup of the shared runs of one program for
// one list of consumers.
type sharedPlan struct {
	// intercept is the libraries every consumer intercepts: the vm
	// intercepts them outright.
	intercept map[ir.LibTag]bool
	// dec is the vm.DecodeShared form marking the other libraries any
	// consumer intercepts and the spin sites of every window.
	dec *vm.Decoded
	// views holds each consumer's filter tables, in consumer order.
	views []filterTables
}

// filterTables are one consumer's lookups: calls[f] reports whether it
// intercepts calls into function f, and loops maps a spin mark's site id
// to its own loop id + 1 (nil: it keeps no spin marks).
type filterTables struct {
	calls []bool
	loops []int32
}

// planKey names a consumer list in the program's memo: each consumer's
// intercepted libraries, sorted, and its window.
type planKey string

// plan returns the shared-run setup for cons, memoized on the program
// like the instrumentation and the decoded forms. Safe for concurrent
// use.
func (pr *Prepared) plan(cons []consumer) *sharedPlan {
	var b strings.Builder
	for _, c := range cons {
		for _, lib := range knownLibs(c.libs) {
			b.WriteString(string(lib))
			b.WriteByte(',')
		}
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(c.window))
		b.WriteByte(';')
	}
	return pr.Prog.Derived(planKey(b.String()), func() any { return pr.buildPlan(cons) }).(*sharedPlan)
}

// knownLibs returns the libraries libs intercepts, sorted.
func knownLibs(libs map[ir.LibTag]bool) []ir.LibTag {
	out := make([]ir.LibTag, 0, len(libs))
	for lib, on := range libs {
		if on {
			out = append(out, lib)
		}
	}
	slices.Sort(out)
	return out
}

func (pr *Prepared) buildPlan(cons []consumer) *sharedPlan {
	plan := &sharedPlan{intercept: make(map[ir.LibTag]bool)}
	marked := make(map[ir.LibTag]bool)
	for _, c := range cons {
		for _, lib := range knownLibs(c.libs) {
			marked[lib] = true
		}
	}
	for lib := range marked {
		every := true
		for _, c := range cons {
			every = every && c.libs[lib]
		}
		if every {
			plan.intercept[lib] = true
			delete(marked, lib)
		}
	}
	var windows []int
	for _, c := range cons {
		if c.window > 0 && !slices.Contains(windows, c.window) {
			windows = append(windows, c.window)
		}
	}
	slices.Sort(windows)
	ins := make([]*spin.Instrumentation, len(windows))
	for i, w := range windows {
		ins[i] = pr.Instrument(Config{SpinWindow: w})
	}
	plan.dec = vm.DecodeShared(pr.Prog, marked, ins)
	for _, c := range cons {
		var t filterTables
		if c.window > 0 {
			t.loops = plan.dec.SiteLoops(slices.Index(windows, c.window))
		}
		t.calls = make([]bool, len(pr.Prog.Funcs))
		for i, fn := range pr.Prog.Funcs {
			t.calls[i] = fn.Lib != ir.LibNone && fn.Sync != ir.SyncNone && c.libs[fn.Lib]
		}
		plan.views = append(plan.views, t)
	}
	return plan
}

// filter rebuilds one consumer's stream out of a shared run's, by four
// rules:
//
//   - it keeps, per thread, the depth of open marked calls the consumer
//     intercepts;
//   - it turns the outermost such call's lib-call/lib-return markers into
//     SyncPre/SyncPost, and drops every other marker;
//   - it drops accesses (RMW writes included), sync events and spin marks
//     while the thread is inside such a call, as the consumer's own run
//     hides a known library's internals;
//   - it keeps only its own window's spin marks, under its own loop ids.
//
// Thread lifecycle events pass unchanged.
type filter struct {
	down event.Sink
	filterTables
	depth []int32
	// ev is the scratch for the events the filter rewrites: the shared
	// event is the next consumer's input too, so it is never modified.
	ev event.Event
}

// Handle implements event.Sink.
func (f *filter) Handle(ev *event.Event) {
	switch ev.Kind {
	case event.KindLibCall, event.KindLibReturn:
		if !f.calls[ev.Value] {
			return
		}
		d := f.depthOf(ev.Tid)
		kind := event.KindSyncPre
		if ev.Kind == event.KindLibCall {
			if *d++; *d != 1 {
				return
			}
		} else {
			if *d--; *d != 0 {
				return
			}
			kind = event.KindSyncPost
		}
		f.ev = *ev
		f.ev.Kind, f.ev.Value = kind, 0
		f.down.Handle(&f.ev)
	case event.KindSpawn, event.KindJoin, event.KindThreadStart, event.KindThreadExit:
		f.down.Handle(ev)
	case event.KindSpinRead, event.KindSpinExit:
		if f.inside(ev.Tid) || f.loops == nil {
			return
		}
		id := f.loops[ev.SpinLoop]
		if id == 0 {
			return
		}
		f.ev = *ev
		f.ev.SpinLoop = id - 1
		f.down.Handle(&f.ev)
	default:
		if !f.inside(ev.Tid) {
			f.down.Handle(ev)
		}
	}
}

// Flush implements event.Flusher for a buffering consumer.
func (f *filter) Flush() {
	if fl, ok := f.down.(event.Flusher); ok {
		fl.Flush()
	}
}

// inside reports whether tid is inside a call the consumer intercepts.
func (f *filter) inside(tid event.Tid) bool {
	return int(tid) < len(f.depth) && f.depth[tid] > 0
}

func (f *filter) depthOf(tid event.Tid) *int32 {
	for int(tid) >= len(f.depth) {
		f.depth = append(f.depth, 0)
	}
	return &f.depth[tid]
}
