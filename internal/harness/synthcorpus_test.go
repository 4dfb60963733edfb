package harness

import (
	"bytes"
	"strings"
	"testing"

	"adhocrace/internal/obs"
	"adhocrace/internal/sched"
	"adhocrace/internal/synth"
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

// corpusSize returns the acceptance corpus size (500 seeds; trimmed under
// -short).
func corpusSize() int64 {
	if testing.Short() {
		return 80
	}
	return 500
}

// TestCorpusOracleAgreement is the acceptance corpus: over 500 seeds,
//
//   - the generator's declared ground truth matches an exact
//     happens-before oracle execution of every program;
//   - the spin preset matches ground truth on every program whose idioms
//     are within the paper's model, and shows exactly the documented
//     false positive on the excluded idiom (spin-retry);
//   - lib and eraser match their expected FP/FN signature exactly;
//   - drd matches its signature, with proximity-dependent predictions
//     (bounded segment history vs scheduler interleaving) held in
//     aggregate: at most 2% variance per category.
func TestCorpusOracleAgreement(t *testing.T) {
	r, err := newRunner().Corpus(1, synth.GenerateSeeds(1, corpusSize()), 1, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.OracleViolations) > 0 {
		t.Fatalf("oracle violations:\n%s", strings.Join(r.OracleViolations, "\n"))
	}
	for _, dis := range r.Disagreements {
		if !dis.Proximity {
			t.Errorf("hard disagreement: %s", dis)
		}
	}
	for _, p := range synth.PresetNames {
		for cat, tally := range r.Cat[p] {
			if tally.ProximityMiss*50 > tally.Match {
				t.Errorf("%s on %s: %d proximity misses vs %d matches (>2%%)",
					p, cat, tally.ProximityMiss, tally.Match)
			}
		}
	}
	// The corpus must actually exercise the excluded idiom: its exclusion
	// is categorized, not skipped.
	if tally := r.Cat["spin"]["spin-retry"]; tally == nil || tally.Match == 0 {
		t.Error("corpus never exercised the excluded spin-retry idiom")
	}
	t.Logf("corpus: %d programs, %d fragments, %d disagreements (all proximity)",
		r.Programs, r.Fragments, len(r.Disagreements))
}

// TestCorpusDeterminism: the whole corpus report, oracle included,
// is byte-identical on the one-worker engine and a parallel engine.
func TestCorpusDeterminism(t *testing.T) {
	var base string
	ws := synth.GenerateSeeds(1, 25)
	for i, r := range []*Runner{seq(), NewRunner(sched.Options{Workers: 4})} {
		rep, err := r.Corpus(1, ws, 1, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Format()
		if i == 0 {
			base = got
			continue
		}
		if got != base {
			t.Fatalf("parallel report differs from the one-worker baseline:\n%s\n--- vs ---\n%s", got, base)
		}
	}
}
