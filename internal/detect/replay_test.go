// Trace record/replay round-trip: a binary trace recorded from a live
// run, replayed through a fresh detector, must reproduce the live report
// byte for byte — across the accuracy suite, presets, and shard counts —
// and the decoded stream itself must equal the recorded stream field for
// field.
package detect_test

import (
	"bytes"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/harness"
	"adhocrace/internal/ir"
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
// paper presets: every case is recorded once per tool and replayed at a
// rotating shard count; the replayed report must equal the live run's
// fingerprint byte for byte.
func TestTraceReplayReportRoundTrip(t *testing.T) {
	cfgs := detect.PaperTools(7)
	shardSweep := []int{1, 2, 4}
	i := 0
	for _, c := range dataracetest.Suite() {
		for _, cfg := range cfgs {
			p := c.Build()
			live, _, err := detect.Prepare(p).Run(cfg, 1, detect.RunOpts{})
			if err != nil {
				t.Fatalf("live %s under %s: %v", c.Name, cfg.Name, err)
			}
			data := recordCase(t, p, cfg, 1)
			tr, err := event.NewTraceReader(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("open trace %s under %s: %v", c.Name, cfg.Name, err)
			}
			shards := shardSweep[i%len(shardSweep)]
			i++
			rep, n, err := detect.ReplayTrace(tr, p, cfg, detect.RunOpts{Shards: shards})
			if err != nil {
				t.Fatalf("replay %s under %s shards=%d: %v", c.Name, cfg.Name, shards, err)
			}
			if n != rep.Events {
				t.Errorf("%s under %s: replayed %d events, report counts %d", c.Name, cfg.Name, n, rep.Events)
			}
			want, got := harness.ReportFingerprint(live), harness.ReportFingerprint(rep)
			if got != want {
				t.Errorf("%s under %s shards=%d: replayed report differs from live run\n--- live ---\n%s--- replay ---\n%s",
					c.Name, cfg.Name, shards, want, got)
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
