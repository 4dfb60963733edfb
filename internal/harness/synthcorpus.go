package harness

import (
	"fmt"
	"sort"
	"strings"

	"adhocrace/internal/detect"
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

// Tally accumulates outcomes of one (preset, category) cell.
type Tally struct {
	Match, Mismatch, ProximityMiss int
}

// CorpusReport is the differential score of a generator seed range: every
// synth preset on every seed, scored against the oracle.
type CorpusReport struct {
	Start, N  int64
	SchedSeed int64
	Window    int
	Programs  int
	Fragments int
	// Cat maps preset -> category -> tally.
	Cat map[string]map[string]*Tally
	// Disagreements lists every oracle-vs-tool mismatch, including
	// proximity ones (flagged), in (seed, preset, fragment) order.
	Disagreements []synth.Disagreement
	// OracleViolations lists declared-vs-observed ground-truth mismatches
	// (always a generator bug; empty on a healthy corpus).
	OracleViolations []string
}

// corpusOut is what one corpus job keeps: its presets' per-fragment
// outcomes and its oracle's violations.
type corpusOut struct {
	outcomes  []synth.FragOutcome
	oracleBad []string
}

// Corpus scores the generated workloads ws, which are generator seeds
// start, start+1, … in order: every synth preset (the spin preset at the
// given window) at scheduler seed schedSeed and, with oracle, a check of
// each program's declared ground truth against an oracle execution
// (synth.Oracle). Each workload is one job whose vm run feeds every
// preset and its oracle. The report is byte-identical for every worker
// count.
func (r *Runner) Corpus(start int64, ws []*synth.Workload, schedSeed int64, window int, oracle bool) (*CorpusReport, error) {
	cfgs := make([]detect.Config, len(synth.PresetNames))
	for i, p := range synth.PresetNames {
		cfg, err := detect.Preset(p, window)
		if err != nil {
			return nil, fmt.Errorf("synth: %s: %w", p, err)
		}
		cfgs[i] = cfg
	}
	byName := make(map[string]*synth.Workload, len(ws))
	jobs := make([]job, len(ws))
	for i, w := range ws {
		byName[w.Name] = w
		jobs[i] = job{prep: detect.Prepare(w.Prog), cfgs: cfgs, seed: schedSeed, workload: w.Name}
		if oracle {
			jobs[i].oracle = w
		}
	}
	outs, err := runJobs(r, jobs, func(j job, out outcome) (corpusOut, error) {
		w := byName[j.workload]
		res := corpusOut{oracleBad: out.oracleBad}
		for i, rep := range out.reports {
			res.outcomes = append(res.outcomes, synth.Score(w, synth.PresetNames[i], rep)...)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	rep := &CorpusReport{
		// cfgs[0] is the spin preset (PresetNames[0]), whose window
		// detect.Preset has normalized.
		Start: start, N: int64(len(ws)), SchedSeed: schedSeed, Window: cfgs[0].SpinWindow,
		Programs: len(ws),
		Cat:      make(map[string]map[string]*Tally),
	}
	for _, p := range synth.PresetNames {
		rep.Cat[p] = make(map[string]*Tally)
	}
	for ji, out := range outs {
		rep.OracleViolations = append(rep.OracleViolations, out.oracleBad...)
		for _, o := range out.outcomes {
			cat := rep.Cat[o.Preset]
			t := cat[o.Frag.Kind.String()]
			if t == nil {
				t = &Tally{}
				cat[o.Frag.Kind.String()] = t
			}
			switch {
			case o.Match():
				t.Match++
			case o.Expected.Proximity:
				t.ProximityMiss++
			default:
				t.Mismatch++
			}
			if !o.Match() {
				rep.Disagreements = append(rep.Disagreements, synth.Disagreement{
					Seed: ws[ji].Seed, Preset: o.Preset, Frag: o.Frag,
					Expected: o.Expected.Warn, Warned: o.Warned,
					Proximity: o.Expected.Proximity,
				})
			}
			if o.Preset == synth.PresetNames[0] {
				rep.Fragments++
			}
		}
	}
	return rep, nil
}

// Strict returns the disagreements that fail a strict run: every
// oracle-vs-spin mismatch (spin predictions are deterministic) plus any
// oracle violation. Proximity mismatches of other presets are variance.
func (r *CorpusReport) Strict() []string {
	var out []string
	for _, dis := range r.Disagreements {
		if dis.Preset == "spin" {
			out = append(out, dis.String())
		}
	}
	out = append(out, r.OracleViolations...)
	return out
}

// Format renders the corpus report deterministically: one block per
// preset, categories sorted, then disagreements and oracle violations.
func (r *CorpusReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "synth corpus seeds %d..%d (sched seed %d, window %d): %d programs, %d fragments\n",
		r.Start, r.Start+r.N-1, r.SchedSeed, r.Window, r.Programs, r.Fragments)
	for _, p := range synth.PresetNames {
		fmt.Fprintf(&b, "%-8s %-20s %8s %10s %10s\n", p, "category", "match", "mismatch", "proximity")
		cats := make([]string, 0, len(r.Cat[p]))
		for c := range r.Cat[p] {
			cats = append(cats, c)
		}
		sort.Strings(cats)
		for _, c := range cats {
			t := r.Cat[p][c]
			fmt.Fprintf(&b, "%-8s %-20s %8d %10d %10d\n", "", c, t.Match, t.Mismatch, t.ProximityMiss)
		}
	}
	if len(r.Disagreements) > 0 {
		fmt.Fprintf(&b, "disagreements (%d):\n", len(r.Disagreements))
		for _, dis := range r.Disagreements {
			fmt.Fprintf(&b, "  %s\n", dis)
		}
	}
	for _, v := range r.OracleViolations {
		fmt.Fprintf(&b, "ORACLE VIOLATION: %s\n", v)
	}
	return b.String()
}

// SynthCorpus scores every synth preset over generated seeds 1..n at the
// full spin window, without the oracle (Corpus), and returns one row per
// preset in PresetNames order.
func (r *Runner) SynthCorpus(n int64, schedSeed int64) ([]SynthRow, *CorpusReport, error) {
	rep, err := r.Corpus(1, synth.GenerateSeeds(1, n), schedSeed, 7, false)
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
func FormatSynth(title string, rows []SynthRow, rep *CorpusReport) string {
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
