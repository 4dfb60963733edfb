// Trace record/replay round-trip: a binary trace recorded from a live
// run, replayed through a fresh detector, must reproduce the live report
// byte for byte — across the accuracy suite, presets and pipeline shapes
// — and the decoded stream itself must equal the recorded stream field
// for field.
package detect_test

import (
	"bytes"
	"sync"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/harness"
	"adhocrace/internal/ir"
	"adhocrace/internal/spin"
	"adhocrace/internal/vm"
	"adhocrace/internal/workloads/dataracetest"
)

// recordCase records one (case, cfg, seed) trace into memory.
func recordCase(t *testing.T, p *ir.Program, cfg detect.Config, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, _, err := detect.RecordTrace(&buf, p, cfg, seed, event.TraceMeta{
		Workload: p.Name, Tool: cfg.Name, Window: cfg.SpinWindow, Seed: seed,
	}); err != nil {
		t.Fatalf("record %s under %s: %v", p.Name, cfg.Name, err)
	}
	return buf.Bytes()
}

// TestTraceReplayReportRoundTrip sweeps the full accuracy suite under the
// paper presets: every case is recorded once per tool and replayed through
// the default pipeline and with overlap forced from the first event
// (default and small segments); every
// replayed report must equal the live run's fingerprint byte for byte.
func TestTraceReplayReportRoundTrip(t *testing.T) {
	cfgs := detect.PaperTools(7)
	replays := []detect.RunOpts{{}, detect.ForceOverlap(detect.RunOpts{}, event.DefaultSegmentEvents), detect.ForceOverlap(detect.RunOpts{}, 64)}
	for _, c := range dataracetest.Suite() {
		for _, cfg := range cfgs {
			p := c.Build()
			live, _, err := detect.Prepare(p).Run(cfg, 1, detect.RunOpts{})
			if err != nil {
				t.Fatalf("live %s under %s: %v", c.Name, cfg.Name, err)
			}
			want := harness.ReportFingerprint(live)
			data := recordCase(t, p, cfg, 1)
			for shape, opts := range replays {
				tr, err := event.NewTraceReader(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("open trace %s under %s: %v", c.Name, cfg.Name, err)
				}
				rep, n, err := detect.ReplayTrace(tr, p, cfg, opts)
				if err != nil {
					t.Fatalf("replay %s under %s (shape %d): %v", c.Name, cfg.Name, shape, err)
				}
				if n != rep.Events {
					t.Errorf("%s under %s (shape %d): replayed %d events, report counts %d",
						c.Name, cfg.Name, shape, n, rep.Events)
				}
				if got := harness.ReportFingerprint(rep); got != want {
					t.Errorf("%s under %s (shape %d): replayed report differs from live run\n--- live ---\n%s--- replay ---\n%s",
						c.Name, cfg.Name, shape, want, got)
				}
			}
		}
	}
}

// TestTraceReplayStreamExact records a trace while also capturing the raw
// stream in memory, then decodes the trace and compares every event field
// for field — the encoder/decoder's per-kind field tables cannot drift
// from what the vm actually emits.
func TestTraceReplayStreamExact(t *testing.T) {
	cfg := detect.HelgrindPlusLibSpin(7)
	suite := dataracetest.Suite()
	for _, name := range []string{suite[0].Name, suite[len(suite)/2].Name, suite[len(suite)-1].Name} {
		var c dataracetest.Case
		for _, sc := range suite {
			if sc.Name == name {
				c = sc
				break
			}
		}
		p := c.Build()
		ins := cfg.Instrument(p)
		var buf bytes.Buffer
		mem := &event.Trace{}
		tw := event.NewTraceWriter(&buf, event.TraceMeta{Workload: name}, p.Interning())
		if _, err := vm.Run(p, vm.Options{Seed: 1, KnownLibs: cfg.KnownLibs, Instr: ins, Sink: event.Multi(mem, tw)}); err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		if err := tw.Close(); err != nil {
			t.Fatalf("close %s: %v", name, err)
		}
		tr, err := event.NewTraceReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		var got []event.Event
		var ev event.Event
		for {
			ok, err := tr.Next(&ev)
			if err != nil {
				t.Fatalf("%s: decode after %d events: %v", name, len(got), err)
			}
			if !ok {
				break
			}
			got = append(got, ev)
		}
		if len(got) != len(mem.Events) {
			t.Fatalf("%s: decoded %d events, recorded %d", name, len(got), len(mem.Events))
		}
		for i := range got {
			if got[i] != mem.Events[i] {
				t.Fatalf("%s: event %d differs: decoded %+v, recorded %+v", name, i, got[i], mem.Events[i])
			}
		}
	}
}

// TestTraceReplayWrongProgram pins the safety rail: replaying a trace
// against a different program build is rejected by the interning check.
func TestTraceReplayWrongProgram(t *testing.T) {
	cfg := detect.HelgrindPlusLibSpin(7)
	suite := dataracetest.Suite()
	data := recordCase(t, suite[0].Build(), cfg, 1)
	tr, err := event.NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	other := suite[1].Build()
	if _, _, err := detect.ReplayTrace(tr, other, cfg, detect.RunOpts{}); err == nil {
		t.Fatal("replay against a different program must fail the interning check")
	}
}

// TestReplaySharedProgramConcurrent replays the traces of one program
// build, shared and never run before, from 4 goroutines under every
// PaperTools(7) preset (run it under -race): the goroutines race to build
// its interning table and memos and read the table's Len and Digest, and
// every replay must fingerprint like the live run of its preset.
func TestReplaySharedProgramConcurrent(t *testing.T) {
	const name, replayers = "adhoc_spin11_b7_atomic_long", 4
	recorded := buildWorkload(t, name)
	cfgs := detect.PaperTools(7)
	traces := make([][]byte, len(cfgs))
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		traces[i] = recordCase(t, recorded, cfg, 1)
		rep, _, err := detect.Prepare(recorded).Run(cfg, 1, detect.RunOpts{})
		if err != nil {
			t.Fatalf("%s live: %v", cfg.Name, err)
		}
		want[i] = harness.ReportFingerprint(rep)
	}
	shared := buildWorkload(t, name)
	var wg sync.WaitGroup
	for g := 0; g < replayers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cfgs {
				// Walk the presets in a different order per replayer.
				i := (k + g) % len(cfgs)
				tr, err := event.NewTraceReader(bytes.NewReader(traces[i]))
				if err != nil {
					t.Errorf("%s: %v", cfgs[i].Name, err)
					return
				}
				rep, _, err := detect.ReplayTrace(tr, shared, cfgs[i], detect.RunOpts{})
				if err != nil {
					t.Errorf("replayer %d, %s: %v", g, cfgs[i].Name, err)
					return
				}
				if got := harness.ReportFingerprint(rep); got != want[i] {
					t.Errorf("replayer %d, %s: replay fingerprint differs from the live run", g, cfgs[i].Name)
				}
			}
		}()
	}
	wg.Wait()
}

// TestReplayInstrumentationMemo pins that the instrumentation phase runs
// once per program and spin window, whoever asks: RecordTrace stores it on
// the recorded program, the first ReplayTrace against a fresh build stores
// it there, and later replays and Prepared runs of that build share the
// same pointer. Config.Instrument stays the uncached analysis.
func TestReplayInstrumentationMemo(t *testing.T) {
	cfg := detect.HelgrindPlusLibSpin(7)
	c := dataracetest.Suite()[0]
	recorded := c.Build()
	data := recordCase(t, recorded, cfg, 1)
	if detect.MemoizedInstrumentation(recorded, cfg.SpinWindow) == nil {
		t.Fatal("RecordTrace did not memoize its instrumentation on the program")
	}

	p := c.Build()
	var first *detect.Report
	var shared *spin.Instrumentation
	for i := 0; i < 2; i++ {
		tr, err := event.NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := detect.ReplayTrace(tr, p, cfg, detect.RunOpts{})
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		ins := detect.MemoizedInstrumentation(p, cfg.SpinWindow)
		if ins == nil {
			t.Fatalf("replay %d did not memoize its instrumentation on the program", i)
		}
		if i == 0 {
			first, shared = rep, ins
		} else if ins != shared {
			t.Fatal("the second replay replaced the memoized instrumentation")
		} else if harness.ReportFingerprint(rep) != harness.ReportFingerprint(first) {
			t.Fatal("two replays of one trace disagree")
		}
	}
	if got := detect.Prepare(p).Instrument(cfg); got != shared {
		t.Fatal("Prepared.Instrument does not share the replays' instrumentation")
	}
	if fresh := cfg.Instrument(p); fresh == shared || fresh == nil {
		t.Fatal("Config.Instrument must return a fresh analysis")
	}
}

// TestPreparedMemoConcurrent races Instrument and Decoded across spin
// windows on one program (run it under -race): every caller of a window
// must get the same pointers, and distinct windows distinct ones.
func TestPreparedMemoConcurrent(t *testing.T) {
	p := dataracetest.Suite()[0].Build()
	cfgs := []detect.Config{detect.HelgrindPlusLib(), detect.HelgrindPlusLibSpin(3), detect.HelgrindPlusLibSpin(7), detect.HelgrindPlusLibSpin(8)}
	const callers = 8
	type got struct {
		ins *spin.Instrumentation
		dec *vm.Decoded
	}
	results := make([][]got, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g] = make([]got, len(cfgs))
			for k := range cfgs {
				// Walk the windows in a different order per caller.
				i := (k + g) % len(cfgs)
				pr := detect.Prepare(p)
				results[g][i] = got{pr.Instrument(cfgs[i]), pr.Decoded(cfgs[i])}
			}
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		want := results[0][i]
		if (want.ins == nil) != (cfg.SpinWindow <= 0) || want.dec == nil {
			t.Fatalf("%s: instrumentation %p, decoded %p", cfg.Name, want.ins, want.dec)
		}
		for g := 1; g < callers; g++ {
			if results[g][i] != want {
				t.Fatalf("%s: caller %d got a different instrumentation or decoded form", cfg.Name, g)
			}
		}
		for j := 0; j < i; j++ {
			if results[0][j].dec == want.dec || (want.ins != nil && results[0][j].ins == want.ins) {
				t.Fatalf("%s and %s share a memo entry", cfgs[j].Name, cfg.Name)
			}
		}
	}
}
