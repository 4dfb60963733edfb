package harness

import (
	"fmt"
	"strings"

	"adhocrace/internal/detect"
	"adhocrace/internal/workloads/parsec"
)

// ParsecTable runs the racy-context experiment for the given models under
// the four paper tools and returns cells[program][tool], the mean over
// Seeds of distinct warned source locations, each run capped at
// ContextCap. The whole (program × tool × seed) cross product is one job
// batch; each model is compiled once and shared by its (tool × seed)
// jobs.
func (r *Runner) ParsecTable(models []parsec.Model) (map[string]map[string]float64, []string, error) {
	tools := detect.PaperTools(7)
	toolNames := make([]string, len(tools))
	for i, t := range tools {
		toolNames[i] = t.Name
	}

	jobs := make([]job, 0, len(models)*len(tools)*len(Seeds))
	for _, m := range models {
		prep := detect.PrepareBuild(m.Build)
		for _, cfg := range tools {
			for _, seed := range Seeds {
				jobs = append(jobs, job{prep: prep, cfg: cfg, seed: seed, workload: m.Name})
			}
		}
	}
	counts, err := runJobs(r, jobs, func(_ job, rep *detect.Report) (int, error) {
		return min(rep.RacyContexts(), ContextCap), nil
	})
	if err != nil {
		return nil, nil, err
	}

	cells := make(map[string]map[string]float64, len(models))
	for _, m := range models {
		row := make(map[string]float64, len(tools))
		for _, cfg := range tools {
			total := 0
			for _, n := range counts[:len(Seeds)] {
				total += n
			}
			counts = counts[len(Seeds):]
			row[cfg.Name] = float64(total) / float64(len(Seeds))
		}
		cells[m.Name] = row
	}
	return cells, toolNames, nil
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

// overheadRun is what one overhead job keeps of its report.
type overheadRun struct {
	events, shadow, edges int64
	loops                 int
}

// OverheadAll measures the memory/runtime overhead figures for every
// model: Helgrind+ lib and Helgrind+ lib+spin(7) on the same program and
// seed, two jobs per model.
func (r *Runner) OverheadAll() ([]OverheadRow, error) {
	models := parsec.Models()
	jobs := make([]job, 0, 2*len(models))
	for _, m := range models {
		prep := detect.PrepareBuild(m.Build)
		jobs = append(jobs,
			job{prep: prep, cfg: detect.HelgrindPlusLib(), seed: 1, workload: m.Name},
			job{prep: prep, cfg: detect.HelgrindPlusLibSpin(7), seed: 1, workload: m.Name})
	}
	runs, err := runJobs(r, jobs, func(_ job, rep *detect.Report) (overheadRun, error) {
		return overheadRun{events: rep.Events, shadow: rep.ShadowBytes, edges: rep.SpinEdges, loops: rep.SpinLoops}, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]OverheadRow, len(models))
	for i, m := range models {
		lib, spin := runs[2*i], runs[2*i+1]
		rows[i] = OverheadRow{
			Program:   m.Name,
			EventsLib: lib.events, EventsSpin: spin.events,
			ShadowLib: lib.shadow, ShadowSpin: spin.shadow,
			Loops: spin.loops, Edges: spin.edges,
		}
	}
	return rows, nil
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
