package synth

import (
	"fmt"
	"sort"
	"strings"

	"adhocrace/internal/detect"
	"adhocrace/internal/obs"
	"adhocrace/internal/sched"
)

// Differ runs generated workloads under every tool preset on the parallel
// experiment engine and scores each preset against the oracle.
type Differ struct {
	// Eng is the experiment engine (nil means a private parallel engine).
	// Its workers are the differ's only parallelism: every preset run is
	// the plain detector.
	Eng *sched.Engine
	// Obs, when set, is the observability pipeline every preset run
	// records into (detect.RunOpts.Obs); concurrent jobs share it.
	Obs *obs.Pipeline
	// SchedSeed drives the vm scheduler (default 1).
	SchedSeed int64
	// Window is the spin preset's basic-block window (default 7).
	Window int
	// Opts bound the generator.
	Opts Options
	// OracleCheck additionally validates every generated program's
	// declared ground truth against an oracle execution (CheckOracle).
	OracleCheck bool
	// Observe, when set, receives every preset run's report — the hook
	// the harness stats plumbing (`tables -stats`) attaches. Called from
	// concurrent jobs; the observer must be safe for that.
	Observe func(*detect.Report)
}

func (d *Differ) engine() *sched.Engine {
	if d.Eng == nil {
		d.Eng = sched.Default()
	}
	return d.Eng
}

func (d *Differ) window() int {
	if d.Window <= 0 {
		return 7
	}
	return d.Window
}

func (d *Differ) schedSeed() int64 {
	if d.SchedSeed == 0 {
		return 1
	}
	return d.SchedSeed
}

// FragOutcome is one (fragment, preset) cell of a differential run.
type FragOutcome struct {
	Frag     Fragment
	Preset   string
	Expected Expect
	Warned   bool
}

// Match reports whether the preset behaved as the oracle predicts.
func (o FragOutcome) Match() bool { return o.Warned == o.Expected.Warn }

// Disagreement is an oracle-vs-tool mismatch on one fragment of one seed.
type Disagreement struct {
	Seed     int64
	Preset   string
	Frag     Fragment
	Expected bool
	Warned   bool
	// Proximity marks mismatches of proximity-dependent predictions
	// (scheduling variance, not tool bugs); strict scoring ignores them.
	Proximity bool
}

// String renders the disagreement.
func (dis Disagreement) String() string {
	miss := "false positive"
	if dis.Expected && !dis.Warned {
		miss = "false negative"
	}
	tag := ""
	if dis.Proximity {
		tag = " [proximity]"
	}
	return fmt.Sprintf("seed %d %s on %s: unexpected %s (expected warn=%v, got warn=%v)%s",
		dis.Seed, dis.Preset, dis.Frag, miss, dis.Expected, dis.Warned, tag)
}

// scoreReport attributes a report's warnings to fragments (by symbol
// prefix, falling back to source-file prefix) and produces one outcome per
// fragment.
func scoreReport(w *Workload, preset string, rep *detect.Report) []FragOutcome {
	warned := make(map[int]bool)
	for _, warn := range rep.Warnings {
		if idx, ok := fragIndexOf(warn.Sym); ok {
			warned[idx] = true
		} else if idx, ok := fragIndexOf(warn.Loc.File); ok {
			warned[idx] = true
		}
	}
	outcomes := make([]FragOutcome, 0, len(w.Frags))
	for _, f := range w.Frags {
		outcomes = append(outcomes, FragOutcome{
			Frag:     f,
			Preset:   preset,
			Expected: Expectations(f.Kind)[preset],
			Warned:   warned[f.Index],
		})
	}
	return outcomes
}

// fragIndexOf parses the fragment namespace prefix f<digits>_ from a
// symbol or file name (at least two digits — prefix() zero-pads — but any
// longer index parses too, so hand-assembled workloads attribute as well).
func fragIndexOf(s string) (int, bool) {
	if len(s) < 4 || s[0] != 'f' {
		return 0, false
	}
	idx, i := 0, 1
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		idx = idx*10 + int(s[i]-'0')
	}
	if i < 3 || i >= len(s) || s[i] != '_' {
		return 0, false
	}
	return idx, true
}

// runPreset executes one preset over a freshly built copy of the workload
// and scores it. Each call rebuilds the program so concurrent jobs share
// nothing (ir.Program caches symbol tables lazily).
func (d *Differ) runPreset(rebuild func() *Workload, preset string) ([]FragOutcome, error) {
	w := rebuild()
	cfg, err := detect.Preset(preset, d.window())
	if err != nil {
		return nil, fmt.Errorf("synth: %s: %w", preset, err)
	}
	rep, _, err := detect.Prepare(w.Prog).Run(cfg, d.schedSeed(), detect.RunOpts{Obs: d.Obs})
	if err != nil {
		return nil, fmt.Errorf("synth: %s on %s: %w", preset, w.Name, err)
	}
	if d.Observe != nil {
		d.Observe(rep)
	}
	return scoreReport(w, preset, rep), nil
}

// Tally accumulates outcomes of one (preset, category) cell.
type Tally struct {
	Match, Mismatch, ProximityMiss int
}

// CorpusReport is the differential score of a seed range.
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
	Disagreements []Disagreement
	// OracleViolations lists declared-vs-observed ground-truth mismatches
	// (always a generator bug; empty on a healthy corpus).
	OracleViolations []string
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

// corpusJob is one (seed, preset) run, or an oracle validation when
// preset < 0.
type corpusJob struct {
	seed   int64
	preset int // index into PresetNames, or -1
}

type corpusOut struct {
	outcomes  []FragOutcome
	oracleBad []string
}

// RunCorpus scores seeds start..start+n-1: every preset on every seed, in
// one flat job batch on the experiment engine, so a many-core runner
// parallelizes across seeds and presets at once. Results fold in
// submission order — the report is byte-identical for every worker count.
func (d *Differ) RunCorpus(start, n int64) (*CorpusReport, error) {
	var jobs []corpusJob
	for s := start; s < start+n; s++ {
		for pi := range PresetNames {
			jobs = append(jobs, corpusJob{seed: s, preset: pi})
		}
		if d.OracleCheck {
			jobs = append(jobs, corpusJob{seed: s, preset: -1})
		}
	}
	outs, err := sched.Map(d.engine(), jobs, func(j corpusJob) (corpusOut, error) {
		if j.preset < 0 {
			bad, err := CheckOracle(Generate(j.seed, d.Opts), d.schedSeed())
			return corpusOut{oracleBad: bad}, err
		}
		oc, err := d.runPreset(func() *Workload { return Generate(j.seed, d.Opts) }, PresetNames[j.preset])
		return corpusOut{outcomes: oc}, err
	})
	if err != nil {
		return nil, err
	}

	r := &CorpusReport{
		Start: start, N: n, SchedSeed: d.schedSeed(), Window: d.window(),
		Cat: make(map[string]map[string]*Tally),
	}
	for _, p := range PresetNames {
		r.Cat[p] = make(map[string]*Tally)
	}
	for ji, out := range outs {
		r.OracleViolations = append(r.OracleViolations, out.oracleBad...)
		for _, o := range out.outcomes {
			cat := r.Cat[o.Preset]
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
				r.Disagreements = append(r.Disagreements, Disagreement{
					Seed: jobs[ji].seed, Preset: o.Preset, Frag: o.Frag,
					Expected: o.Expected.Warn, Warned: o.Warned,
					Proximity: o.Expected.Proximity,
				})
			}
			if o.Preset == PresetNames[0] {
				r.Fragments++
			}
		}
	}
	r.Programs = int(n)
	return r, nil
}

// Format renders the corpus report deterministically: one block per
// preset, categories sorted, then disagreements and oracle violations.
func (r *CorpusReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "synth corpus seeds %d..%d (sched seed %d, window %d): %d programs, %d fragments\n",
		r.Start, r.Start+r.N-1, r.SchedSeed, r.Window, r.Programs, r.Fragments)
	for _, p := range PresetNames {
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
