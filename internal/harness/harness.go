// Package harness runs the paper's experiments: the data-race-test
// accuracy tables (slides 24/25), the PARSEC racy-context tables (slides
// 27-30), the memory/runtime overhead figures (slides 31/32), the synth
// corpus rows, the racefuzz corpus and racedetect's seed sweep.
//
// Every experiment is a batch of short, independent (tool × workload ×
// seed) detector runs, and this package is the only one that runs such
// batches: each experiment builds a job list and hands it to runJobs, the
// one function that runs jobs on the runner's sched.Engine workers. Each
// job runs the plain detector (detect.RunOpts carrying only the runner's
// observability pipeline), its report is observed into the runner's
// RunStats and folded, inside the job, to the value the table keeps.
// Neither the shadow GC nor the overlap is a knob here: like every
// detector, a job's detector runs a GC cycle every detect.GCPeriod events
// and overlaps once its stream passes event.OverlapThreshold events, so
// only a long stream does either. Results are assembled in submission
// order, so output is byte-identical for every worker count, Workers: 1
// included. Jobs own all mutable state (vm, detector) but share their
// program's compiled inputs — one detect.Prepared per program carries the
// ir.Program and the per-window instrumentation, both immutable at run
// time — so a batch compiles (or generates) each program once instead of
// once per (tool, seed) cell.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"adhocrace/internal/detect"
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

// Workers returns the runner's engine concurrency bound.
func (r *Runner) Workers() int { return r.eng.Workers() }

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

// job is one detector run of a batch: prep's program under cfg at
// scheduler seed seed; workload names the program in errors. Jobs of one
// program share its Prepared, so a batch compiles each program once. A
// job with no configuration (zero cfg.Name) runs no detector: its fold
// gets a nil report (the synth corpus's oracle jobs).
type job struct {
	prep     *detect.Prepared
	cfg      detect.Config
	seed     int64
	workload string
}

// runJobs is the one way a batch runs: every job on the runner's engine,
// each the plain detector with the runner's RunOpts. Each report is
// observed into the attached RunStats and folded inside its job to the
// value the caller keeps, so a batch holds no reports; results come back
// in job order, byte-identical for every worker count. A failed run's
// error names the job: "<preset> on <workload> seed <s>".
func runJobs[T any](r *Runner, jobs []job, fold func(job, *detect.Report) (T, error)) ([]T, error) {
	opts := r.runOpts()
	return sched.Map(r.eng, jobs, func(j job) (T, error) {
		if j.cfg.Name == "" {
			return fold(j, nil)
		}
		rep, _, err := j.prep.Run(j.cfg, j.seed, opts)
		if err != nil {
			var zero T
			return zero, fmt.Errorf("%s on %s seed %d: %w", j.cfg.Name, j.workload, j.seed, err)
		}
		r.stats.Observe(rep)
		return fold(j, rep)
	})
}

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
	jobs := make([]job, 0, len(cfgs)*len(cases))
	for _, cfg := range cfgs {
		for i, c := range cases {
			jobs = append(jobs, job{prep: preps[i], cfg: cfg, seed: seed, workload: c.Name})
		}
	}
	warned, err := runJobs(r, jobs, func(_ job, rep *detect.Report) (bool, error) {
		return rep.HasWarnings(), nil
	})
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

// SeedReports runs prep's program under cfg at each of seeds (the
// racedetect -seeds batch) and returns the reports in seed order.
func (r *Runner) SeedReports(prep *detect.Prepared, workload string, cfg detect.Config, seeds []int64) ([]*detect.Report, error) {
	jobs := make([]job, len(seeds))
	for i, s := range seeds {
		jobs[i] = job{prep: prep, cfg: cfg, seed: s, workload: workload}
	}
	return runJobs(r, jobs, func(_ job, rep *detect.Report) (*detect.Report, error) { return rep, nil })
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
