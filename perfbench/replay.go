package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/harness"
	"adhocrace/internal/ir"
	"adhocrace/internal/spin"
	"adhocrace/internal/workloads/parsec"
)

// replayWorkload replays recorded PARSEC-model traces through
// detect.ReplayTrace, the `racedetect -replay` path: no vm in the timed
// loop, only binary decode and detection of spin-heavy streams (ad-hoc
// flags, cv hand-offs, OMP locks), plus the instrumentation ReplayTrace
// recomputes on every call. One operation replays every trace once.
type replayWorkload struct {
	seed   int64
	traces []recorded
}

// recorded is one trace with the live run's report fingerprint.
type recorded struct {
	model string
	prep  *detect.Prepared
	cfg   detect.Config
	seed  int64
	data  []byte
	want  string
}

// replayConfigs are the presets the traces are recorded under.
var replayConfigs = []detect.Config{detect.HelgrindPlusLib(), detect.HelgrindPlusLibSpin(7)}

// replaySeeds is how many scheduler seeds each (model, preset) records.
const replaySeeds = 5

func (w *replayWorkload) tail() float64 { return 80 }

// setup records every PARSEC model under each preset and seed into memory,
// keeping the live run's fingerprint as the replay oracle.
func (w *replayWorkload) setup(seed int64) error {
	w.seed = seed
	w.traces = w.traces[:0]
	for _, m := range parsec.Models() {
		prep := detect.Prepare(m.Build())
		for _, cfg := range replayConfigs {
			for s := seed; s < seed+replaySeeds; s++ {
				rep, _, err := prep.Run(cfg, s, detect.RunOpts{})
				if err != nil {
					return fmt.Errorf("%s live run: %w", m.Name, err)
				}
				var buf bytes.Buffer
				meta := event.TraceMeta{Workload: m.Name, Tool: cfg.Name, Window: cfg.SpinWindow, Seed: s}
				if _, _, err := detect.RecordTrace(&buf, prep.Prog, cfg, s, meta); err != nil {
					return fmt.Errorf("%s record: %w", m.Name, err)
				}
				w.traces = append(w.traces, recorded{m.Name, prep, cfg, s, buf.Bytes(), harness.ReportFingerprint(rep)})
			}
		}
	}
	return nil
}

// op replays every trace; the reports come back in trace order.
func (w *replayWorkload) op() ([]*detect.Report, error) {
	reps := make([]*detect.Report, len(w.traces))
	for i, t := range w.traces {
		tr, err := event.NewTraceReader(bytes.NewReader(t.data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.model, err)
		}
		if reps[i], _, err = detect.ReplayTrace(tr, t.prep.Prog, t.cfg, detect.RunOpts{}); err != nil {
			return nil, fmt.Errorf("%s: %w", t.model, err)
		}
	}
	return reps, nil
}

// check is the oracle: every replayed report equals its live run's.
func (w *replayWorkload) check(reps []*detect.Report) error {
	for i, t := range w.traces {
		if harness.ReportFingerprint(reps[i]) != t.want {
			return fmt.Errorf("%s %s seed %d: replayed report differs from the live run", t.model, t.cfg.Name, t.seed)
		}
	}
	return nil
}

func (w *replayWorkload) run(until time.Time, tr *tracer) (opStats, error) {
	var st opStats
	start := time.Now()
	for time.Now().Before(until) {
		t0 := time.Now()
		var reps []*detect.Report
		var err error
		if tr != nil {
			reps, err = w.tracedOp(tr)
		} else {
			reps, err = w.op()
		}
		st.lat = append(st.lat, ms(time.Since(t0)))
		st.attempted++
		if err == nil {
			for _, rep := range reps {
				st.events += rep.Events
				st.counts.observe(rep)
			}
			err = w.check(reps)
		}
		if err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		}
	}
	st.elapsed = time.Since(start)
	return st, nil
}

// tracedOp is op with ReplayTrace's steps made one at a time: header and
// interning check, instrumentation, decoding into memory, detection.
func (w *replayWorkload) tracedOp(tr *tracer) ([]*detect.Report, error) {
	reps := make([]*detect.Report, len(w.traces))
	buf := &event.Trace{}
	op := tr.beginOp()
	defer tr.end(op)
	for i, t := range w.traces {
		var rd *event.TraceReader
		var err error
		tr.call(op, "event", func() {
			rd, err = event.NewTraceReader(bytes.NewReader(t.data))
			if err == nil {
				err = rd.CheckTable(t.prep.Prog.Interning())
			}
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.model, err)
		}
		var ins *spin.Instrumentation
		tr.call(op, "spin", func() { ins = t.cfg.Instrument(t.prep.Prog) })
		tr.call(op, "event", func() {
			buf.Events = buf.Events[:0]
			_, err = rd.Replay(buf)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.model, err)
		}
		tr.call(op, "detect", func() {
			d := detect.NewSharded(t.cfg, ins, t.prep.Prog, 1)
			buf.Replay(d)
			reps[i] = d.Report()
			d.Close()
		})
	}
	return reps, nil
}

func (w *replayWorkload) layers(m map[string]float64, base, traced opStats) error {
	var builds []func() *ir.Program
	for _, mdl := range parsec.Models() {
		builds = append(builds, mdl.Build)
	}
	var err error
	if m["ir.build_ms"], err = timeBuilds(builds); err != nil {
		return err
	}
	// ReplayTrace instruments on every call: one operation pays one
	// analysis per trace.
	calls := make([]instrumentCall, len(w.traces))
	own := make([]detRun, len(w.traces))
	for i, t := range w.traces {
		calls[i] = instrumentCall{t.prep.Prog, t.cfg}
		own[i] = detRun{prep: t.prep, cfg: t.cfg, seeds: []int64{t.seed}}
	}
	if m["spin.instrument_ms"], err = timeInstrument(calls); err != nil {
		return err
	}
	if err := fillLayerRates(m, own); err != nil {
		return err
	}
	traced.counts.fill(m, len(traced.lat))
	return nil
}

func (w *replayWorkload) close() {}
