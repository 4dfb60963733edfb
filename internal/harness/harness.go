// Package harness runs the paper's experiments: the data-race-test
// accuracy tables (slides 24/25), the PARSEC racy-context tables (slides
// 27-30), the memory/runtime overhead figures (slides 31/32), and the
// synth corpus rows.
//
// Every experiment is a batch of short, independent (tool × workload ×
// seed) detector runs, and a Runner is the one way to run one. Each job
// runs the plain detector (detect.RunOpts carrying only the runner's
// observability pipeline); the only parallelism is across jobs, on the
// runner's sched.Engine workers. Neither the shadow GC nor the overlap is
// a knob here: like every detector, a job's detector runs a GC cycle every
// detect.GCPeriod events and overlaps once its stream passes
// event.OverlapThreshold events, so only a long stream does either.
// Results are assembled in submission order, so output is byte-identical
// for every worker count, Workers: 1 included. Jobs own all
// mutable state (vm, detector) but share their workload's compiled inputs
// — one detect.Prepared per program carries the ir.Program and the
// per-window instrumentation, both immutable at run time — so a table run
// compiles each workload once instead of once per (tool, seed) cell.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"adhocrace/internal/detect"
	"adhocrace/internal/ir"
	"adhocrace/internal/obs"
	"adhocrace/internal/sched"
	"adhocrace/internal/workloads/dataracetest"
)

// ContextCap is the saturation value of the racy-context metric: the paper
// reports 1000 when a tool floods.
const ContextCap = 1000

// Seeds are the scheduler seeds the PARSEC experiments average over
// ("five runs" in the paper's metric).
var Seeds = []int64{1, 2, 3, 4, 5}

// Runner executes the paper's experiments on a job engine.
type Runner struct {
	eng *sched.Engine
	// stats, when set, accumulates detector counters across every run.
	stats *RunStats
	// obs, when set, is the observability pipeline every detector job
	// records into (detect.RunOpts.Obs). Concurrent jobs share it — the
	// recorder is atomic — so a tables trace interleaves all jobs' spans.
	obs *obs.Pipeline
}

// NewRunner builds a runner with the given engine options; the zero
// options mean GOMAXPROCS workers, and Workers: 1 runs every job inline,
// in order.
func NewRunner(opts sched.Options) *Runner { return &Runner{eng: sched.New(opts)} }

// WithStats attaches a stats accumulator observing every run's report.
func (r *Runner) WithStats(s *RunStats) *Runner {
	r.stats = s
	return r
}

// WithObs attaches an observability pipeline recorded into by every
// detector job (nil detaches; the default).
func (r *Runner) WithObs(p *obs.Pipeline) *Runner {
	r.obs = p
	return r
}

// runOpts is the pipeline shape every detector job of this runner uses:
// the plain detector, recording into the runner's pipeline.
func (r *Runner) runOpts() detect.RunOpts { return detect.RunOpts{Obs: r.obs} }

// observe folds a finished run's report into the attached stats, if any.
func (r *Runner) observe(rep *detect.Report) { r.stats.Observe(rep) }

// AccuracyRow is one tool's line in the test-suite accuracy table.
type AccuracyRow struct {
	Tool        string
	FalseAlarms int
	MissedRaces int
	Failed      int
	Correct     int
	// FailedCases lists the failing case names for diagnosis.
	FailedCases []string
}

// accuracyJob is one (tool, case) cell of an accuracy table. The prepared
// workload is shared by every cell of the same case — jobs reading one
// compiled program is what keeps a 4-tool table at 120 compilations, not
// 480.
type accuracyJob struct {
	cfg  detect.Config
	name string
	prep *detect.Prepared
}

// prepareSuite compiles the accuracy suite once, in suite order.
func prepareSuite(cases []dataracetest.Case) []*detect.Prepared {
	preps := make([]*detect.Prepared, len(cases))
	for i, c := range cases {
		preps[i] = detect.Prepare(c.Build())
	}
	return preps
}

// suitePreps caches the compiled accuracy suite for the whole process.
// The suite is fixed and a Prepared is immutable at run time (its program
// and per-window instrumentation are shared by concurrent jobs already),
// so repeated table runs — Table 1 and Table 2 in one tables invocation,
// every iteration of the benchmarks — reuse one compilation instead of
// paying 120 builds plus instrumentation each: compilation dominated a
// table run's allocations before this cache.
var (
	suiteOnce  sync.Once
	suitePreps []*detect.Prepared
)

func preparedSuite() []*detect.Prepared {
	suiteOnce.Do(func() { suitePreps = prepareSuite(dataracetest.Suite()) })
	return suitePreps
}

// runAccuracyJobs scores a list of (tool, case) jobs on the engine and
// returns whether each case warned, in job order.
func (r *Runner) runAccuracyJobs(jobs []accuracyJob, seed int64) ([]bool, error) {
	opts := r.runOpts()
	return sched.Map(r.eng, jobs, func(j accuracyJob) (bool, error) {
		rep, _, err := j.prep.Run(j.cfg, seed, opts)
		if err != nil {
			return false, fmt.Errorf("%s on %s: %w", j.cfg.Name, j.name, err)
		}
		r.observe(rep)
		return rep.HasWarnings(), nil
	})
}

// foldAccuracy turns per-case outcomes (in suite order) into a table row:
// a race-free case with any warning is a false alarm, a racy case without
// warnings is a missed race.
func foldAccuracy(tool string, cases []dataracetest.Case, warned []bool) AccuracyRow {
	row := AccuracyRow{Tool: tool}
	for i, c := range cases {
		switch {
		case !c.Racy && warned[i]:
			row.FalseAlarms++
			row.FailedCases = append(row.FailedCases, c.Name)
		case c.Racy && !warned[i]:
			row.MissedRaces++
			row.FailedCases = append(row.FailedCases, c.Name)
		}
	}
	row.Failed = row.FalseAlarms + row.MissedRaces
	row.Correct = dataracetest.SuiteSize - row.Failed
	return row
}

// AccuracyTable scores several configurations (Table 1 uses the four paper
// tools; Table 2 the spin-window sweep). The full (tool × case) job list
// is submitted as one batch so a many-core runner parallelizes across
// tools as well as cases; every tool's cell of one case shares that case's
// compiled workload.
func (r *Runner) AccuracyTable(cfgs []detect.Config, seed int64) ([]AccuracyRow, error) {
	cases := dataracetest.Suite()
	preps := preparedSuite()
	jobs := make([]accuracyJob, 0, len(cfgs)*len(cases))
	for _, cfg := range cfgs {
		for i, c := range cases {
			jobs = append(jobs, accuracyJob{cfg: cfg, name: c.Name, prep: preps[i]})
		}
	}
	warned, err := r.runAccuracyJobs(jobs, seed)
	if err != nil {
		return nil, err
	}
	rows := make([]AccuracyRow, 0, len(cfgs))
	for i, cfg := range cfgs {
		rows = append(rows, foldAccuracy(cfg.Name, cases, warned[i*len(cases):(i+1)*len(cases)]))
	}
	return rows, nil
}

// Table1Configs are the four tools of the slide-24 table.
func Table1Configs() []detect.Config { return detect.PaperTools(7) }

// Table2Configs are the spin-window sweep of the slide-25 table.
func Table2Configs() []detect.Config {
	return []detect.Config{
		detect.HelgrindPlusLibSpin(3),
		detect.HelgrindPlusLibSpin(6),
		detect.HelgrindPlusLibSpin(7),
		detect.HelgrindPlusLibSpin(8),
	}
}

// FormatAccuracy renders an accuracy table in the paper's column layout.
func FormatAccuracy(title string, rows []AccuracyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-28s %12s %12s %12s %18s\n",
		"Tool", "False alarms", "Missed races", "Failed cases", "Correctly analyzed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %12d %12d %12d %18d\n",
			r.Tool, r.FalseAlarms, r.MissedRaces, r.Failed, r.Correct)
	}
	return b.String()
}

// ContextResult is the racy-context score of one (program, tool) pair:
// the mean over Seeds of distinct warned source locations, capped.
type ContextResult struct {
	Program string
	Tool    string
	Mean    float64
	PerSeed []int
}

// contextRun measures one (program, tool, seed) run and returns the
// capped distinct-context count. Concurrent runs share the prepared
// workload's immutable inputs and nothing else.
func (r *Runner) contextRun(prep *detect.Prepared, program string, cfg detect.Config, seed int64) (int, error) {
	rep, _, err := prep.Run(cfg, seed, r.runOpts())
	if err != nil {
		return 0, fmt.Errorf("%s on %s seed %d: %w", cfg.Name, program, seed, err)
	}
	r.observe(rep)
	n := rep.RacyContexts()
	if n > ContextCap {
		n = ContextCap
	}
	return n, nil
}

// foldContexts assembles per-seed counts into a result.
func foldContexts(program, tool string, perSeed []int) ContextResult {
	res := ContextResult{Program: program, Tool: tool, PerSeed: perSeed}
	total := 0
	for _, n := range perSeed {
		total += n
	}
	res.Mean = float64(total) / float64(len(perSeed))
	return res
}

// RacyContexts measures one program under one tool configuration across
// the standard seeds; the program is compiled once and shared by the seed
// jobs.
func (r *Runner) RacyContexts(build func() *ir.Program, program string, cfg detect.Config) (ContextResult, error) {
	prep := detect.PrepareBuild(build)
	perSeed, err := sched.Map(r.eng, Seeds, func(seed int64) (int, error) {
		return r.contextRun(prep, program, cfg, seed)
	})
	if err != nil {
		return ContextResult{Program: program, Tool: cfg.Name}, err
	}
	return foldContexts(program, cfg.Name, perSeed), nil
}

// FormatContexts renders a racy-context table: one row per program, one
// column per tool.
func FormatContexts(title string, programs []string, tools []string, cells map[string]map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-16s", "Program")
	for _, tool := range tools {
		fmt.Fprintf(&b, " %22s", tool)
	}
	fmt.Fprintln(&b)
	for _, prog := range programs {
		fmt.Fprintf(&b, "%-16s", prog)
		for _, tool := range tools {
			fmt.Fprintf(&b, " %22s", formatMean(cells[prog][tool]))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

func formatMean(v float64) string {
	if v == float64(int(v)) {
		return fmt.Sprintf("%d", int(v))
	}
	return fmt.Sprintf("%.1f", v)
}

// DiffCategories summarizes which categories the failing cases of a row
// fall into — used by tests asserting the table's shape.
func DiffCategories(row AccuracyRow) map[string]int {
	byName := make(map[string]string)
	for _, c := range dataracetest.Suite() {
		byName[c.Name] = c.Category
	}
	out := make(map[string]int)
	for _, name := range row.FailedCases {
		out[byName[name]]++
	}
	return out
}

// SortedKeys returns the sorted keys of a string-count map, for stable
// diagnostics of DiffCategories results.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
