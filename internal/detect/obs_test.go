// Observability integration tests live in the external test package for
// the same reason the pipeline determinism tests do: they drive the detector
// through its exported API and pull in workload packages.
package detect_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/obs"
	"adhocrace/internal/workloads/parsec"
)

// TestObsReportUnchanged pins the observability layer's core contract:
// attaching a recorder (even a tracing one) to a run must not change the
// report in any observable way — same warnings, same counters, same
// shadow accounting — across the full pipeline (shadow GC, and overlap
// once freqmine's stream passes event.OverlapThreshold).
func TestObsReportUnchanged(t *testing.T) {
	m, ok := parsec.ByName("freqmine")
	if !ok {
		t.Fatal("no freqmine model")
	}
	cfg := detect.HelgrindPlusLibSpin(7)
	opts := detect.WithGCPeriod(detect.RunOpts{}, 4096)

	base, _, err := detect.Prepare(m.Build()).Run(cfg, 1, opts)
	if err != nil {
		t.Fatalf("bare run: %v", err)
	}

	rec := obs.NewTracing()
	opts.Obs = rec.Pipeline("freqmine test")
	traced, _, err := detect.Prepare(m.Build()).Run(cfg, 1, opts)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if got, want := fingerprint(traced), fingerprint(base); got != want {
		t.Errorf("report changed under tracing\n--- bare ---\n%s--- traced ---\n%s", want, got)
	}
}

// TestObsTraceCoversPipeline runs one GC'd workload long enough to start
// the overlap with a tracing recorder and asserts the emitted Chrome trace round-trips
// through ValidateTrace with at least one event on every pipeline stage
// track — the same bar `make trace-smoke` holds the CLI to, here without
// the process boundary.
func TestObsTraceCoversPipeline(t *testing.T) {
	m, ok := parsec.ByName("freqmine")
	if !ok {
		t.Fatal("no freqmine model")
	}
	rec := obs.NewTracing()
	opts := detect.WithGCPeriod(detect.RunOpts{Obs: rec.Pipeline("freqmine trace")}, 4096)
	rep, res, err := detect.Prepare(m.Build()).Run(detect.HelgrindPlusLibSpin(7), 1, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	sum, err := obs.ValidateTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ValidateTrace: %v", err)
	}
	for _, track := range []string{"vm", "pipeline", "merge", "gc"} {
		if sum.Events[track] == 0 {
			t.Errorf("trace has no events on track %q (got %v)", track, sum.Events)
		}
	}

	// Counter cross-check: the recorder's vm_steps total must equal the
	// vm's own step count, and hb_inflates the report's inflate counter —
	// the hooks observe the same quantities the report already exposes.
	snap := rec.Snapshot()
	counters := make(map[string]int64, len(snap.Counters))
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if got, want := counters["vm_steps"], res.Steps; got != want {
		t.Errorf("vm_steps counter = %d, vm result steps = %d", got, want)
	}
	if counters["vm_quanta"] == 0 {
		t.Error("vm_quanta counter is zero")
	}
	if got, want := counters["hb_inflates"], rep.SyncInflates; got != want {
		t.Errorf("hb_inflates counter = %d, report SyncInflates = %d", got, want)
	}
}

// TestObsCounterModeNoSpans pins the two-tier recorder design: counter
// mode aggregates histograms and counters but records no spans, so a
// long-lived server recorder cannot grow without bound.
func TestObsCounterModeNoSpans(t *testing.T) {
	m, ok := parsec.ByName("freqmine")
	if !ok {
		t.Fatal("no freqmine model")
	}
	rec := obs.New()
	opts := detect.RunOpts{Obs: rec.Pipeline("counter mode")}
	if _, _, err := detect.Prepare(m.Build()).Run(detect.HelgrindPlusLibSpin(7), 1, opts); err != nil {
		t.Fatalf("run: %v", err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	// ValidateTrace rejects empty traces by design (the trace-smoke gate),
	// so check the shape directly: valid JSON, zero events.
	var tf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("counter-mode trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) != 0 {
		t.Errorf("counter-mode recorder emitted %d trace events, want 0", len(tf.TraceEvents))
	}
	snap := rec.Snapshot()
	if len(snap.Counters) == 0 || len(snap.Hists) == 0 {
		t.Errorf("counter-mode recorder lost aggregates: %+v", snap)
	}
}
