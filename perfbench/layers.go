package main

import (
	"bytes"
	"fmt"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/harness"
	"adhocrace/internal/ir"
	"adhocrace/internal/vm"
)

// Per-layer rates, measured on a workload's own inputs with each layer's
// public functions called alone. Every figure is the median of layerReps
// repetitions, so one descheduled repetition does not move it.
const layerReps = 3

// detRun is one detector run of a workload's inputs: a compiled program
// under a preset, fed the event streams of the given scheduler seeds (one
// seed per run; a long trace feeds several windows to one detector).
type detRun struct {
	prep  *detect.Prepared
	cfg   detect.Config
	seeds []int64
	gc    bool
}

// nullSink discards events: the consumer of the layer runs that time a
// producer alone.
var nullSink = event.SinkFunc(func(*event.Event) {})

// medianTime runs fn layerReps times and returns its median duration.
func medianTime(fn func() error) (time.Duration, error) {
	var ts []float64
	for i := 0; i < layerReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0)))
	}
	return time.Duration(median(ts)), nil
}

// timeBuilds is ir.build_ms: building every program of the workload once.
func timeBuilds(builds []func() *ir.Program) (float64, error) {
	d, err := medianTime(func() error {
		for _, b := range builds {
			b()
		}
		return nil
	})
	return ms(d), err
}

// instrumentCall is one spin-analysis call the workload pays.
type instrumentCall struct {
	prog *ir.Program
	cfg  detect.Config
}

// timeInstrument is spin.instrument_ms: every instrumentation call of one
// pass over the workload's inputs.
func timeInstrument(calls []instrumentCall) (float64, error) {
	d, err := medianTime(func() error {
		for _, c := range calls {
			c.cfg.Instrument(c.prog)
		}
		return nil
	})
	return ms(d), err
}

// timeDecode is vm.decode_ms: pre-decoding every (program,
// instrumentation) pair the workload runs.
func timeDecode(runs []detRun) (float64, error) {
	type key struct {
		prep   *detect.Prepared
		window int
	}
	seen := make(map[key]bool)
	var pairs []detRun
	for _, r := range runs {
		k := key{r.prep, r.cfg.SpinWindow}
		if !seen[k] {
			seen[k] = true
			pairs = append(pairs, r)
		}
	}
	d, err := medianTime(func() error {
		for _, r := range pairs {
			vm.Decode(r.prep.Prog, r.prep.Instrument(r.cfg))
		}
		return nil
	})
	return ms(d), err
}

// vmOpts is the vm configuration a detector run of r uses.
func vmOpts(r detRun, seed int64, sink event.Sink) vm.Options {
	return vm.Options{
		Seed:      seed,
		KnownLibs: r.cfg.KnownLibs,
		Instr:     r.prep.Instrument(r.cfg),
		Decoded:   r.prep.Decoded(r.cfg),
		Sink:      sink,
	}
}

// vmRates is vm.ns_per_event and vm.us_per_run: the pre-decoded vm
// executing each run into a sink that discards the events.
func vmRates(runs []detRun) (nsPerEvent, usPerRun float64, err error) {
	var total time.Duration
	var events int64
	n := 0
	for _, r := range runs {
		for _, seed := range r.seeds {
			var ctr event.Counter
			if _, err := vm.Run(r.prep.Prog, vmOpts(r, seed, &ctr)); err != nil {
				return 0, 0, err
			}
			d, err := medianTime(func() error {
				_, err := vm.Run(r.prep.Prog, vmOpts(r, seed, nullSink))
				return err
			})
			if err != nil {
				return 0, 0, err
			}
			total += d
			events += ctr.Total
			n++
		}
	}
	return perEvent(total, events), float64(total) / 1e3 / float64(max(n, 1)), nil
}

func perEvent(d time.Duration, events int64) float64 {
	if events == 0 {
		return 0
	}
	return float64(d) / float64(events)
}

// decodeRates is event.decode_ns_per_event and event.bytes_per_event:
// each run recorded as a binary trace, then decoded into a discarding
// sink.
func decodeRates(runs []detRun) (nsPerEvent, bytesPerEvent float64, err error) {
	var total time.Duration
	var events, size int64
	for _, r := range runs {
		for _, seed := range r.seeds {
			var buf bytes.Buffer
			_, n, err := detect.RecordTrace(&buf, r.prep.Prog, r.cfg, seed, event.TraceMeta{Seed: seed})
			if err != nil {
				return 0, 0, err
			}
			b := buf.Bytes()
			d, err := medianTime(func() error {
				tr, err := event.NewTraceReader(bytes.NewReader(b))
				if err != nil {
					return err
				}
				_, err = tr.Replay(nullSink)
				return err
			})
			if err != nil {
				return 0, 0, err
			}
			total += d
			events += n
			size += int64(len(b))
		}
	}
	if events == 0 {
		return 0, 0, nil
	}
	return perEvent(total, events), float64(size) / float64(events), nil
}

// detectRates replays each run's in-memory event stream into a fresh
// single-threaded detector with the instrumentation already computed.
// handleNs is the time per event inside Handle; fixedUs the per-run
// construction, Report and Close time.
func detectRates(runs []detRun) (handleNs, fixedUs float64, err error) {
	var handle, fixed time.Duration
	var events int64
	for _, r := range runs {
		traces := make([]*event.Trace, len(r.seeds))
		for i, seed := range r.seeds {
			traces[i] = &event.Trace{}
			if _, err := vm.Run(r.prep.Prog, vmOpts(r, seed, traces[i])); err != nil {
				return 0, 0, err
			}
			events += int64(len(traces[i].Events))
		}
		ins := r.prep.Instrument(r.cfg)
		var hs, fs []float64
		for i := 0; i < layerReps; i++ {
			t0 := time.Now()
			d := detect.NewSharded(r.cfg, ins, r.prep.Prog, 1)
			if r.gc {
				d.EnableShadowGC(0)
			}
			t1 := time.Now()
			for _, tr := range traces {
				tr.Replay(d)
			}
			t2 := time.Now()
			d.Report()
			d.Close()
			t3 := time.Now()
			hs = append(hs, float64(t2.Sub(t1)))
			fs = append(fs, float64(t1.Sub(t0)+t3.Sub(t2)))
		}
		handle += time.Duration(median(hs))
		fixed += time.Duration(median(fs))
	}
	return perEvent(handle, events), float64(fixed) / 1e3 / float64(max(len(runs), 1)), nil
}

// presetNames name harness.Table1Configs in the per-preset metrics.
var presetNames = []string{"lib", "spin", "nolib", "drd"}

// fillLayerRates measures the layer rates shared by every workload: own
// are the workload's detector runs (with the presets it uses); every
// preset's detector rate is measured on the same programs and seeds.
func fillLayerRates(m map[string]float64, own []detRun) error {
	var err error
	if m["vm.decode_ms"], err = timeDecode(own); err != nil {
		return fmt.Errorf("vm decode: %w", err)
	}
	if m["vm.ns_per_event"], m["vm.us_per_run"], err = vmRates(own); err != nil {
		return fmt.Errorf("vm: %w", err)
	}
	if m["event.decode_ns_per_event"], m["event.bytes_per_event"], err = decodeRates(own); err != nil {
		return fmt.Errorf("event: %w", err)
	}
	if _, m["detect.us_per_run"], err = detectRates(own); err != nil {
		return fmt.Errorf("detect: %w", err)
	}
	// One run per (program, seeds) — the preset is swapped in below.
	type key struct {
		prep *detect.Prepared
		seed int64
	}
	seen := make(map[key]bool)
	var shapes []detRun
	for _, r := range own {
		k := key{r.prep, r.seeds[0]}
		if !seen[k] {
			seen[k] = true
			shapes = append(shapes, r)
		}
	}
	for i, cfg := range harness.Table1Configs() {
		runs := make([]detRun, len(shapes))
		for j, r := range shapes {
			r.cfg = cfg
			runs[j] = r
		}
		if m["detect."+presetNames[i]+".ns_per_event"], _, err = detectRates(runs); err != nil {
			return fmt.Errorf("detect %s: %w", presetNames[i], err)
		}
	}
	return nil
}
