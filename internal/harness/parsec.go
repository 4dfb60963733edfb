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
// ContextCap. Every (program, seed) is one job whose vm run feeds all four
// tools; each model is compiled once and shared by its seed jobs.
func (r *Runner) ParsecTable(models []parsec.Model) (map[string]map[string]float64, []string, error) {
	tools := detect.PaperTools(7)
	toolNames := make([]string, len(tools))
	for i, t := range tools {
		toolNames[i] = t.Name
	}

	jobs := make([]job, 0, len(models)*len(Seeds))
	for _, m := range models {
		prep := detect.PrepareBuild(m.Build)
		for _, seed := range Seeds {
			jobs = append(jobs, job{prep: prep, cfgs: tools, seed: seed, workload: m.Name})
		}
	}
	counts, err := runJobs(r, jobs, func(_ job, out outcome) ([]int, error) {
		n := make([]int, len(out.reports))
		for i, rep := range out.reports {
			n[i] = min(rep.RacyContexts(), ContextCap)
		}
		return n, nil
	})
	if err != nil {
		return nil, nil, err
	}

	cells := make(map[string]map[string]float64, len(models))
	for _, m := range models {
		row := make(map[string]float64, len(tools))
		for ti, cfg := range tools {
			total := 0
			for _, n := range counts[:len(Seeds)] {
				total += n[ti]
			}
			row[cfg.Name] = float64(total) / float64(len(Seeds))
		}
		counts = counts[len(Seeds):]
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

// OverheadAll measures the memory/runtime overhead figures for every
// model: Helgrind+ lib and Helgrind+ lib+spin(7) on the same program and
// seed, one job per model.
func (r *Runner) OverheadAll() ([]OverheadRow, error) {
	models := parsec.Models()
	cfgs := []detect.Config{detect.HelgrindPlusLib(), detect.HelgrindPlusLibSpin(7)}
	jobs := make([]job, len(models))
	for i, m := range models {
		jobs[i] = job{prep: detect.PrepareBuild(m.Build), cfgs: cfgs, seed: 1, workload: m.Name}
	}
	return runJobs(r, jobs, func(j job, out outcome) (OverheadRow, error) {
		lib, spin := out.reports[0], out.reports[1]
		return OverheadRow{
			Program:   j.workload,
			EventsLib: lib.Events, EventsSpin: spin.Events,
			ShadowLib: lib.ShadowBytes, ShadowSpin: spin.ShadowBytes,
			Loops: spin.SpinLoops, Edges: spin.SpinEdges,
		}, nil
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
