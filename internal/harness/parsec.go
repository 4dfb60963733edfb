package harness

import (
	"fmt"
	"strings"

	"adhocrace/internal/detect"
	"adhocrace/internal/sched"
	"adhocrace/internal/workloads/parsec"
)

// ParsecTable runs the racy-context experiment for the given models under
// the four paper tools and returns cells[program][tool] = mean contexts.
// The whole (program × tool × seed) cross product is submitted as one job
// batch; cells are folded in submission order, so the table is identical
// whichever order the jobs finished in. Each model is compiled once and
// shared by its (tool × seed) jobs.
func (r *Runner) ParsecTable(models []parsec.Model) (map[string]map[string]float64, []string, error) {
	tools := detect.PaperTools(7)
	toolNames := make([]string, len(tools))
	for i, t := range tools {
		toolNames[i] = t.Name
	}

	type ctxJob struct {
		prep *detect.Prepared
		name string
		cfg  detect.Config
		seed int64
	}
	jobs := make([]ctxJob, 0, len(models)*len(tools)*len(Seeds))
	for _, m := range models {
		prep := detect.PrepareBuild(m.Build)
		for _, cfg := range tools {
			for _, seed := range Seeds {
				jobs = append(jobs, ctxJob{prep: prep, name: m.Name, cfg: cfg, seed: seed})
			}
		}
	}
	counts, err := sched.Map(r.eng, jobs, func(j ctxJob) (int, error) {
		return r.contextRun(j.prep, j.name, j.cfg, j.seed)
	})
	if err != nil {
		return nil, nil, err
	}

	cells := make(map[string]map[string]float64, len(models))
	i := 0
	for _, m := range models {
		row := make(map[string]float64, len(tools))
		for _, cfg := range tools {
			row[cfg.Name] = foldContexts(m.Name, cfg.Name, counts[i:i+len(Seeds)]).Mean
			i += len(Seeds)
		}
		cells[m.Name] = row
	}
	return cells, toolNames, nil
}

// Table4 reproduces slide 27: programs without ad-hoc synchronizations.
func (r *Runner) Table4() (map[string]map[string]float64, []string, error) {
	return r.ParsecTable(parsec.WithoutAdhoc())
}

// Table5 reproduces slides 28/29: programs with ad-hoc synchronizations.
func (r *Runner) Table5() (map[string]map[string]float64, []string, error) {
	return r.ParsecTable(parsec.WithAdhoc())
}

// Table6 reproduces slide 30: the universal-detector table over all 13
// programs.
func (r *Runner) Table6() (map[string]map[string]float64, []string, error) {
	return r.ParsecTable(parsec.Models())
}

// FormatTable3 renders the slide-26 program inventory.
func FormatTable3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — PARSEC 2.0 program inventory (slide 26)\n")
	fmt.Fprintf(&b, "%-16s %-8s %8s %8s %5s %6s %9s\n",
		"Program", "Model", "LOC", "Ad-hoc", "CVs", "Locks", "Barriers")
	mark := func(v bool) string {
		if v {
			return "x"
		}
		return "-"
	}
	for _, m := range parsec.Models() {
		fmt.Fprintf(&b, "%-16s %-8s %8d %8s %5s %6s %9s\n",
			m.Name, m.ParallelModel, m.LOC,
			mark(m.Adhoc), mark(m.CVs), mark(m.Locks), mark(m.Barriers))
	}
	return b.String()
}

// OverheadRow is one program's line in the performance figures: detector
// cost with the spin feature off vs on.
type OverheadRow struct {
	Program string
	// Events processed (instrumentation load) without/with spin marks.
	EventsLib, EventsSpin int64
	// Shadow bytes without/with the spin feature.
	ShadowLib, ShadowSpin int64
	// Spin loops classified and edges injected (with the feature).
	Loops int
	Edges int64
}

// MemoryRatio returns shadow consumption with the feature relative to
// without (the slide-31 figure's quantity).
func (r OverheadRow) MemoryRatio() float64 {
	if r.ShadowLib == 0 {
		return 1
	}
	return float64(r.ShadowSpin) / float64(r.ShadowLib)
}

// EventRatio returns instrumentation load with the feature relative to
// without (the slide-32 figure's quantity: runtime overhead is driven by
// the number of instrumented operations processed).
func (r OverheadRow) EventRatio() float64 {
	if r.EventsLib == 0 {
		return 1
	}
	return float64(r.EventsSpin) / float64(r.EventsLib)
}

// overhead measures the memory/runtime overhead figures for one model:
// Helgrind+ lib vs Helgrind+ lib+spin(7) on the same program and seed.
func (r *Runner) overhead(m parsec.Model) (OverheadRow, error) {
	row := OverheadRow{Program: m.Name}
	prep := detect.PrepareBuild(m.Build)
	opts := r.runOpts()

	repLib, _, err := prep.Run(detect.HelgrindPlusLib(), 1, opts)
	if err != nil {
		return row, fmt.Errorf("lib on %s: %w", m.Name, err)
	}
	r.observe(repLib)
	row.EventsLib = repLib.Events
	row.ShadowLib = repLib.ShadowBytes

	repSpin, _, err := prep.Run(detect.HelgrindPlusLibSpin(7), 1, opts)
	if err != nil {
		return row, fmt.Errorf("lib+spin on %s: %w", m.Name, err)
	}
	r.observe(repSpin)
	row.EventsSpin = repSpin.Events
	row.ShadowSpin = repSpin.ShadowBytes
	row.Loops = repSpin.SpinLoops
	row.Edges = repSpin.SpinEdges
	return row, nil
}

// OverheadAll measures every model, one job per model.
func (r *Runner) OverheadAll() ([]OverheadRow, error) {
	return sched.Map(r.eng, parsec.Models(), func(m parsec.Model) (OverheadRow, error) {
		return r.overhead(m)
	})
}

// FormatOverhead renders the memory (slide 31) and runtime (slide 32)
// figures as a table.
func FormatOverhead(rows []OverheadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figures — detector overhead with the spin feature (slides 31/32)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s %7s %12s %12s %7s %6s %7s\n",
		"Program", "shadow(lib)", "shadow(spin)", "mem x",
		"events(lib)", "events(spin)", "load x", "loops", "edges")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %12d %12d %7.3f %12d %12d %7.3f %6d %7d\n",
			r.Program, r.ShadowLib, r.ShadowSpin, r.MemoryRatio(),
			r.EventsLib, r.EventsSpin, r.EventRatio(), r.Loops, r.Edges)
	}
	return b.String()
}
