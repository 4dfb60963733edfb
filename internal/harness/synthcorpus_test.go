package harness

import (
	"bytes"
	"testing"

	"adhocrace/internal/obs"
	"adhocrace/internal/sched"
)

// TestSynthCorpusDeterminism: the corpus rows are byte-identical on the
// one-worker engine and a parallel engine — the same guarantee the paper
// tables carry. Overlapped detection of synth programs is covered where
// that knob lives (TestPipelineDeterminismSynth in internal/detect).
func TestSynthCorpusDeterminism(t *testing.T) {
	const n = 20
	baseRows, _, err := seq().SynthCorpus(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := NewRunner(sched.Options{Workers: 4}).SynthCorpus(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j := range rows {
		if rows[j] != baseRows[j] {
			t.Errorf("row %q differs: %+v vs %+v", rows[j].Tool, rows[j], baseRows[j])
		}
	}
}

// TestSynthCorpusRecordsObs: the synth table's jobs record into the
// runner's observability pipeline like every other table's, so
// `tables -t synth -trace` writes vm spans, not an empty trace.
func TestSynthCorpusRecordsObs(t *testing.T) {
	rec := obs.NewTracing()
	if _, _, err := newRunner().WithObs(rec.Pipeline("tables")).SynthCorpus(2, 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateTrace(&buf)
	if err != nil {
		t.Fatalf("ValidateTrace: %v", err)
	}
	if sum.Events["vm"] == 0 {
		t.Errorf("no events on the vm track: %v", sum.Events)
	}
}

// TestSynthCorpusHealthy: on a healthy corpus the exact presets score no
// hard misses, and the rows cover all four presets.
func TestSynthCorpusHealthy(t *testing.T) {
	rows, rep, err := newRunner().SynthCorpus(40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Tool == "spin" && (r.FalsePos != 0 || r.FalseNeg != 0) {
			t.Errorf("spin preset has hard misses: %+v", r)
		}
		if r.Fragments != r.Match+r.FalsePos+r.FalseNeg+r.ProximityMiss {
			t.Errorf("%s: tallies do not add up: %+v", r.Tool, r)
		}
	}
	if out := FormatSynth("t", rows, rep); out == "" {
		t.Error("empty formatted table")
	}
}
