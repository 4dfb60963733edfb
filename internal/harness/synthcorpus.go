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

// corpusOut is what one corpus job keeps: a preset job's per-fragment
// outcomes, or an oracle job's violations.
type corpusOut struct {
	outcomes  []synth.FragOutcome
	oracleBad []string
}

// Corpus scores generator seeds start..start+n-1: every synth preset (the
// spin preset at the given window) at scheduler seed schedSeed, plus, with
// oracle, a check of each program's declared ground truth against an
// oracle execution (synth.CheckOracle). Each seed is generated once and
// its program shared by its preset and oracle jobs, all of them one job
// batch. The report is byte-identical for every worker count.
func (r *Runner) Corpus(start, n, schedSeed int64, window int, oracle bool) (*CorpusReport, error) {
	cfgs := make([]detect.Config, len(synth.PresetNames))
	presetOf := make(map[string]string, len(cfgs))
	for i, p := range synth.PresetNames {
		cfg, err := detect.Preset(p, window)
		if err != nil {
			return nil, fmt.Errorf("synth: %s: %w", p, err)
		}
		cfgs[i] = cfg
		presetOf[cfg.Name] = p
	}
	byName := make(map[string]*synth.Workload, n)
	var jobs []job
	for s := start; s < start+n; s++ {
		w := synth.Generate(s)
		byName[w.Name] = w
		prep := detect.Prepare(w.Prog)
		for _, cfg := range cfgs {
			jobs = append(jobs, job{prep: prep, cfg: cfg, seed: schedSeed, workload: w.Name})
		}
		if oracle {
			jobs = append(jobs, job{prep: prep, seed: schedSeed, workload: w.Name})
		}
	}
	outs, err := runJobs(r, jobs, func(j job, rep *detect.Report) (corpusOut, error) {
		w := byName[j.workload]
		if rep == nil {
			bad, err := synth.CheckOracle(w, j.seed)
			return corpusOut{oracleBad: bad}, err
		}
		return corpusOut{outcomes: synth.Score(w, presetOf[j.cfg.Name], rep)}, nil
	})
	if err != nil {
		return nil, err
	}

	rep := &CorpusReport{
		// cfgs[0] is the spin preset (PresetNames[0]), whose window
		// detect.Preset has normalized.
		Start: start, N: n, SchedSeed: schedSeed, Window: cfgs[0].SpinWindow,
		Programs: int(n),
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
					Seed: byName[jobs[ji].workload].Seed, Preset: o.Preset, Frag: o.Frag,
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
// full spin window, without oracle jobs (Corpus), and returns one row per
// preset in PresetNames order.
func (r *Runner) SynthCorpus(n int64, schedSeed int64) ([]SynthRow, *CorpusReport, error) {
	rep, err := r.Corpus(1, n, schedSeed, 7, false)
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
