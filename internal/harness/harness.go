// Package harness runs the paper's experiments: the data-race-test
// accuracy tables (slides 24/25), the PARSEC racy-context tables (slides
// 27-30), the memory/runtime overhead figures (slides 31/32), the synth
// corpus rows, the racefuzz corpus and racedetect's seed sweep.
//
// Every experiment is a batch of short, independent (workload × seed) vm
// runs, each feeding the detectors of every tool the experiment compares,
// and this package is the only one that runs such batches: each
// experiment builds a job list and hands it to runJobs, the one function
// that runs jobs on the runner's sched.Engine workers. A job is one vm
// run (detect.Prepared.RunAll) whose stream a filter per tool rebuilds
// into exactly the stream that tool's own run would emit, so a (workload,
// seed) costs one interleaving however many tools read it; the synth
// corpus's ground-truth oracle rides on the same run. Each detector is
// the plain one (detect.RunOpts carrying only the runner's observability
// pipeline); its report is observed into the runner's RunStats and
// folded, inside the job, to the value the table keeps. Neither the
// shadow GC nor the overlap is a knob here: like every detector, a job's
// detectors run a GC cycle every detect.GCPeriod events and overlap once
// their stream passes event.OverlapThreshold events, so only a long
// stream does either. Results are assembled in submission order, so
// output is byte-identical for every worker count, Workers: 1 included.
// Jobs own all mutable state (vm, detectors) but share their program's
// compiled inputs — one detect.Prepared per program carries the
// ir.Program, the per-window instrumentation and the shared run's decoded
// form, all immutable at run time — so a batch compiles (or generates)
// each program once.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"adhocrace/internal/detect"
	"adhocrace/internal/obs"
	"adhocrace/internal/sched"
	"adhocrace/internal/synth"
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

// job is one vm run of a batch: prep's program at scheduler seed seed,
// feeding a detector per configuration of cfgs and, when oracle is set,
// that workload's ground-truth oracle (synth.Oracle), all from the one
// stream (detect.Prepared.RunAll). workload names the program in errors.
// Jobs of one program share its Prepared, so a batch compiles each
// program once.
type job struct {
	prep     *detect.Prepared
	cfgs     []detect.Config
	seed     int64
	workload string
	oracle   *synth.Workload
}

// outcome is what one job's run produced: a report per configuration, in
// job order, and, when the job has an oracle, its violations.
type outcome struct {
	reports   []*detect.Report
	oracleBad []string
}

// runJobs is the one way a batch runs: every job on the runner's engine,
// one vm run per job feeding the plain detector of each of its
// configurations, with the runner's RunOpts. Each report is observed into
// the attached RunStats, and each job's outcome is folded inside the job
// to the value the caller keeps, so a batch holds no reports; results come
// back in job order, byte-identical for every worker count. A failed
// run's error names the job and every consumer of its run:
// "<workload> seed <s> (<preset>, …): <err>".
func runJobs[T any](r *Runner, jobs []job, fold func(job, outcome) (T, error)) ([]T, error) {
	opts := r.runOpts()
	return sched.Map(r.eng, jobs, func(j job) (T, error) {
		var views []detect.View
		var oracle *synth.Oracle
		if j.oracle != nil {
			oracle = synth.NewOracle(j.oracle)
			views = []detect.View{{KnownLibs: synth.OracleLibs(), Sink: oracle}}
		}
		reps, _, err := j.prep.RunAll(j.cfgs, views, j.seed, opts)
		r.stats.observeVMRun()
		if err != nil {
			var zero T
			return zero, fmt.Errorf("%s seed %d (%s): %w", j.workload, j.seed, j.consumers(), err)
		}
		for _, rep := range reps {
			r.stats.Observe(rep)
		}
		out := outcome{reports: reps}
		if oracle != nil {
			out.oracleBad = oracle.Violations(j.seed)
		}
		return fold(j, out)
	})
}

// consumers lists the job's preset names, and the oracle, for errors.
func (j job) consumers() string {
	names := make([]string, 0, len(j.cfgs)+1)
	for _, cfg := range j.cfgs {
		names = append(names, cfg.Name)
	}
	if j.oracle != nil {
		names = append(names, "oracle")
	}
	return strings.Join(names, ", ")
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
// tools; Table 2 the spin-window sweep). Each case is one job whose vm run
// feeds every configuration, so the batch runs the vm once per case.
func (r *Runner) AccuracyTable(cfgs []detect.Config, seed int64) ([]AccuracyRow, error) {
	cases := dataracetest.Suite()
	preps := preparedSuite()
	jobs := make([]job, len(cases))
	for i, c := range cases {
		jobs[i] = job{prep: preps[i], cfgs: cfgs, seed: seed, workload: c.Name}
	}
	warned, err := runJobs(r, jobs, func(_ job, out outcome) ([]bool, error) {
		w := make([]bool, len(out.reports))
		for i, rep := range out.reports {
			w[i] = rep.HasWarnings()
		}
		return w, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]AccuracyRow, 0, len(cfgs))
	col := make([]bool, len(cases))
	for i, cfg := range cfgs {
		for ci := range cases {
			col[ci] = warned[ci][i]
		}
		rows = append(rows, foldAccuracy(cfg.Name, cases, col))
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
		jobs[i] = job{prep: prep, cfgs: []detect.Config{cfg}, seed: s, workload: workload}
	}
	return runJobs(r, jobs, func(_ job, out outcome) (*detect.Report, error) { return out.reports[0], nil })
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
