package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/harness"
	"adhocrace/internal/ir"
	"adhocrace/internal/sched"
	"adhocrace/internal/vm"
	"adhocrace/internal/workloads/dataracetest"
)

// suiteWorkload regenerates Table 1: the 120-case accuracy suite under the
// four paper presets, 480 short runs on the default job engine. Programs
// emit tens to hundreds of events, so per-run fixed costs (vm and detector
// construction, report assembly) and the job engine dominate.
type suiteWorkload struct {
	seed   int64
	cases  []dataracetest.Case
	preps  []*detect.Prepared
	stats  harness.RunStats
	runner *harness.Runner
}

// table1 are the slide-24 rows: false alarms and missed races per preset,
// in harness.Table1Configs order.
var table1 = [][2]int{{32, 8}, {8, 7}, {9, 7}, {13, 20}}

func (w *suiteWorkload) tail() float64 { return 90 }

// setup builds and compiles the suite the way the harness's process-wide
// cache does on its first table: every case built, wrapped, instrumented
// and pre-decoded for each preset.
func (w *suiteWorkload) setup(seed int64) error {
	w.seed = seed
	w.cases = dataracetest.Suite()
	w.preps = make([]*detect.Prepared, len(w.cases))
	for i, c := range w.cases {
		w.preps[i] = detect.Prepare(c.Build())
		for _, cfg := range harness.Table1Configs() {
			w.preps[i].Decoded(cfg)
		}
	}
	w.runner = harness.NewRunner(sched.Options{}).WithStats(&w.stats)
	return nil
}

// checkRows is the oracle: the four rows equal slide 24.
func checkRows(rows []harness.AccuracyRow) error {
	if len(rows) != len(table1) {
		return fmt.Errorf("table has %d rows, want %d", len(rows), len(table1))
	}
	for i, r := range rows {
		if r.FalseAlarms != table1[i][0] || r.MissedRaces != table1[i][1] {
			return fmt.Errorf("%s: %d false alarms / %d missed, want %d / %d",
				r.Tool, r.FalseAlarms, r.MissedRaces, table1[i][0], table1[i][1])
		}
	}
	return nil
}

func (w *suiteWorkload) run(until time.Time, tr *tracer) (opStats, error) {
	var st opStats
	start := time.Now()
	for time.Now().Before(until) {
		if tr != nil {
			st.add(w.tracedOp(tr))
			continue
		}
		before := w.stats.Events.Load()
		t0 := time.Now()
		rows, err := w.runner.AccuracyTable(harness.Table1Configs(), w.seed)
		st.lat = append(st.lat, ms(time.Since(t0)))
		st.events += w.stats.Events.Load() - before
		st.attempted++
		if err == nil {
			err = checkRows(rows)
		}
		if err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "suite: %v\n", err)
		}
	}
	st.elapsed = time.Since(start)
	return st, nil
}

// suiteJob is one (preset, case) cell of the table.
type suiteJob struct {
	cfg  detect.Config
	prep *detect.Prepared
}

// tracePool recycles the event buffers of traced runs.
var tracePool = sync.Pool{New: func() any { return &event.Trace{} }}

// tracedOp is one table with the vm and the detector of each run called
// one after the other (the vm records into memory, the detector replays
// it) so each gets its own span; the engine is the same.
func (w *suiteWorkload) tracedOp(tr *tracer) opStats {
	var st opStats
	cfgs := harness.Table1Configs()
	jobs := make([]suiteJob, 0, len(cfgs)*len(w.cases))
	for _, cfg := range cfgs {
		for i := range w.cases {
			jobs = append(jobs, suiteJob{cfg, w.preps[i]})
		}
	}
	var mu sync.Mutex
	op := tr.beginOp()
	t0 := time.Now()
	eng := sched.New(sched.Options{})
	sp := tr.begin(op, "sched")
	warned, err := sched.Map(eng, jobs, func(j suiteJob) (bool, error) {
		rep, err := tracedRun(tr, sp, j.prep, j.cfg, w.seed)
		if err != nil {
			return false, err
		}
		mu.Lock()
		st.counts.observe(rep)
		mu.Unlock()
		return rep.HasWarnings(), nil
	})
	tr.end(sp)
	st.attempted = 1
	if err == nil {
		err = checkRows(foldRows(cfgs, w.cases, warned))
	}
	st.lat = []float64{ms(time.Since(t0))}
	tr.end(op)
	st.events = st.counts.events
	if err != nil {
		st.failed = 1
		fmt.Fprintf(os.Stderr, "suite traced: %v\n", err)
	}
	return st
}

// tracedRun is one Prepared.Run split into its vm and detector halves.
func tracedRun(tr *tracer, parent spanID, prep *detect.Prepared, cfg detect.Config, seed int64) (*detect.Report, error) {
	buf := tracePool.Get().(*event.Trace)
	defer func() {
		buf.Events = buf.Events[:0]
		tracePool.Put(buf)
	}()
	var err error
	tr.call(parent, "vm", func() {
		_, err = vm.Run(prep.Prog, vmOpts(detRun{prep: prep, cfg: cfg}, seed, buf))
	})
	if err != nil {
		return nil, err
	}
	var rep *detect.Report
	tr.call(parent, "detect", func() {
		d := detect.NewSharded(cfg, prep.Instrument(cfg), prep.Prog, 1)
		buf.Replay(d)
		rep = d.Report()
		d.Close()
	})
	return rep, nil
}

// foldRows scores per-job warnings (preset-major order) into table rows.
func foldRows(cfgs []detect.Config, cases []dataracetest.Case, warned []bool) []harness.AccuracyRow {
	rows := make([]harness.AccuracyRow, len(cfgs))
	for i, cfg := range cfgs {
		rows[i].Tool = cfg.Name
		for j, c := range cases {
			switch w := warned[i*len(cases)+j]; {
			case !c.Racy && w:
				rows[i].FalseAlarms++
			case c.Racy && !w:
				rows[i].MissedRaces++
			}
		}
	}
	return rows
}

func (w *suiteWorkload) layers(m map[string]float64, base, traced opStats) error {
	var builds []func() *ir.Program
	var calls []instrumentCall
	var own []detRun
	for i, c := range w.cases {
		builds = append(builds, c.Build)
		calls = append(calls, instrumentCall{w.preps[i].Prog, detect.HelgrindPlusLibSpin(7)})
		for _, cfg := range harness.Table1Configs() {
			own = append(own, detRun{prep: w.preps[i], cfg: cfg, seeds: []int64{w.seed}})
		}
	}
	var err error
	if m["ir.build_ms"], err = timeBuilds(builds); err != nil {
		return err
	}
	if m["spin.instrument_ms"], err = timeInstrument(calls); err != nil {
		return err
	}
	if err := fillLayerRates(m, own); err != nil {
		return err
	}
	traced.counts.fill(m, len(traced.lat))

	// sched.efficiency: every run timed alone, against the engine's
	// workers times the table's wall time.
	var alone time.Duration
	for _, r := range own {
		d, err := medianTime(func() error {
			_, _, err := r.prep.Run(r.cfg, w.seed, detect.RunOpts{})
			return err
		})
		if err != nil {
			return err
		}
		alone += d
	}
	workers := sched.New(sched.Options{}).Workers()
	m["sched.efficiency"] = ms(alone) / (float64(workers) * median(base.lat))
	return nil
}

func (w *suiteWorkload) close() {}
