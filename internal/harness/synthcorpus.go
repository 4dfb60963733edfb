package harness

import (
	"fmt"
	"sort"
	"strings"

	"adhocrace/internal/synth"
)

// SynthRow is one tool preset's line in the corpus-scale accuracy table:
// the synthesis engine's analogue of the paper's slide-24 rows, scored per
// fragment against the built-in ground-truth oracle instead of hand
// labels.
type SynthRow struct {
	Tool string
	// Fragments is the number of scored (fragment, program) cells.
	Fragments int
	// Match counts cells where the preset behaved as the oracle predicts.
	Match int
	// FalsePos / FalseNeg count hard prediction misses (warned on a
	// fragment predicted clean / stayed silent on one predicted warned).
	FalsePos, FalseNeg int
	// ProximityMiss counts misses of proximity-dependent predictions
	// (DRD's bounded history vs scheduler interleaving) — scheduling
	// variance, tallied apart from tool bugs.
	ProximityMiss int
}

// SynthCorpus scores every tool preset over a generated corpus of n seeded
// programs on the runner's engine, returning one row per preset in
// PresetNames order. Its jobs record into the runner's stats and
// observability pipeline like every other table's. Row contents are
// byte-identical for every worker count.
func (r *Runner) SynthCorpus(n int64, schedSeed int64) ([]SynthRow, *synth.CorpusReport, error) {
	d := &synth.Differ{
		Eng:       r.eng,
		Obs:       r.obs,
		SchedSeed: schedSeed,
	}
	if r.stats != nil {
		d.Observe = r.stats.Observe
	}
	rep, err := d.RunCorpus(1, n)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]SynthRow, 0, len(synth.PresetNames))
	for _, p := range synth.PresetNames {
		row := SynthRow{Tool: p}
		for _, t := range rep.Cat[p] {
			row.Match += t.Match
			row.ProximityMiss += t.ProximityMiss
			row.Fragments += t.Match + t.Mismatch + t.ProximityMiss
		}
		for _, dis := range rep.Disagreements {
			if dis.Preset != p || dis.Proximity {
				continue
			}
			if dis.Warned {
				row.FalsePos++
			} else {
				row.FalseNeg++
			}
		}
		rows = append(rows, row)
	}
	return rows, rep, nil
}

// FormatSynth renders the corpus rows in the accuracy tables' layout, with
// a per-category breakdown below.
func FormatSynth(title string, rows []SynthRow, rep *synth.CorpusReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %10s %10s %12s %12s %12s\n",
		"Tool", "Fragments", "Match", "False pos", "False neg", "Prox. var.")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10d %10d %12d %12d %12d\n",
			r.Tool, r.Fragments, r.Match, r.FalsePos, r.FalseNeg, r.ProximityMiss)
	}
	b.WriteString("per idiom category (mismatches, spin preset):\n")
	cats := make([]string, 0, len(rep.Cat["spin"]))
	for c := range rep.Cat["spin"] {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		t := rep.Cat["spin"][c]
		fmt.Fprintf(&b, "  %-20s match=%d mismatch=%d\n", c, t.Match, t.Mismatch)
	}
	return b.String()
}
