package detect

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"testing"

	"adhocrace/internal/event"
	"adhocrace/internal/sched"
	"adhocrace/internal/vm"
	"adhocrace/internal/workloads/parsec"
)

// Shadow pages outlive their detector (shadow.go's pagePool): Close clears
// the touched range of every page and hands it back, and the shadow GC
// hands back every page it frees whole. Promoted read-sets go the same way
// through readSetPool. These tests hold the pools to the one property that
// makes recycling invisible — a page or set taken from them is
// indistinguishable from a fresh one — after runs that dirty every kind
// of word state there is.

// poolFreshEnv marks the child process of TestRecycledPagesMatchFreshProcess,
// which prints the follow-up runs' reports from a process whose pool has
// never held a page.
const poolFreshEnv = "DETECT_POOL_FRESH_PROCESS"

// dirtyConfigs are the presets the dirtying runs use: between them they
// promote read-sets and set atomicEver (every preset) and reported
// (Helgrind+'s per-address dedup).
func dirtyConfigs() []Config {
	return []Config{HelgrindPlusLib(), HelgrindPlusLibSpin(7), DRD()}
}

// dirtyModels are racy PARSEC models: warnings, atomics and concurrent
// readers.
var dirtyModels = []string{"vips", "ferret", "x264", "dedup", "facesim"}

// dirtyGCPeriod is the GC period of the dirtying runs, short enough that
// the GC retires words and frees pages within one model run.
const dirtyGCPeriod = 64

func parsecModel(t *testing.T, name string) parsec.Model {
	t.Helper()
	m, ok := parsec.ByName(name)
	if !ok {
		t.Fatalf("no PARSEC model %q", name)
	}
	return m
}

// pageTracker feeds a single-threaded detector and, after every event,
// checks each page the shadow GC freed during it: the page went back to
// the pool and must be all-zero.
type pageTracker struct {
	t     *testing.T
	d     *Detector
	known map[*shadowPage]bool
	freed int
}

func (p *pageTracker) Handle(ev *event.Event) {
	p.d.Handle(ev)
	pages := p.d.shadow.pages
	for pg := range p.known {
		if !pagePresent(pages, pg) {
			p.freed++
			checkZeroPage(p.t, "GC-freed", pg)
			delete(p.known, pg)
		}
	}
	for _, pg := range pages {
		p.known[pg] = true
	}
}

func pagePresent(pages map[int64]*shadowPage, pg *shadowPage) bool {
	for _, q := range pages {
		if q == pg {
			return true
		}
	}
	return false
}

// checkZeroPage fails unless the page equals a freshly allocated one.
func checkZeroPage(t *testing.T, what string, pg *shadowPage) {
	t.Helper()
	if pg.live != 0 || pg.lo != 0 || pg.hi != 0 {
		t.Errorf("%s page back in the pool with live=%d lo=%d hi=%d", what, pg.live, pg.lo, pg.hi)
	}
	for i := range pg.words {
		if pg.words[i] != (shadowWord{}) {
			t.Errorf("%s page back in the pool with word %d set: %+v", what, i, pg.words[i])
			return
		}
	}
}

// dirtyStats counts what a dirtying run left in its pages before Close.
// released holds every read-set a run's Close handed back; recycled counts
// the sets a later run held that came from there.
type dirtyStats struct {
	promotions, retired, pagesFreed int64
	atomicEver, reported            int
	released                        map[*readSet]bool
	recycled                        int
}

func (s *dirtyStats) observePages(d *Detector) {
	for _, pg := range d.shadow.pages {
		for i := range pg.words {
			w := &pg.words[i]
			for _, set := range [2]*readSet{w.reads.set, w.readsAtomic.set} {
				if s.released[set] {
					s.recycled++
				}
			}
			if w.atomicEver {
				s.atomicEver++
			}
			if w.reported {
				s.reported++
			}
		}
	}
}

// runDirty runs one model under cfg with the GC at dirtyGCPeriod, checks
// every page the GC frees, then closes the detector and checks every page
// Close released. It also checks that Report is the same before and after
// Close.
func runDirty(t *testing.T, m parsec.Model, cfg Config, stats *dirtyStats) {
	t.Helper()
	p := m.Build()
	pr := Prepare(p)
	d, _ := pr.NewRun(cfg, WithGCPeriod(RunOpts{}, dirtyGCPeriod))
	tr := &pageTracker{t: t, d: d, known: make(map[*shadowPage]bool)}
	if _, err := vm.Run(p, vm.Options{Seed: 1, KnownLibs: cfg.KnownLibs, Instr: pr.Instrument(cfg),
		Sink: tr, Decoded: pr.Decoded(cfg)}); err != nil {
		t.Fatalf("%s under %s: %v", m.Name, cfg.Name, err)
	}
	before := fmt.Sprintf("%+v", *d.Report())
	stats.observePages(d)
	var held []*shadowPage
	var sets []*readSet
	for _, pg := range d.shadow.pages {
		held = append(held, pg)
		for i := range pg.words {
			for _, set := range [2]*readSet{pg.words[i].reads.set, pg.words[i].readsAtomic.set} {
				if set != nil {
					sets = append(sets, set)
				}
			}
		}
	}
	d.Close()
	for _, pg := range held {
		checkZeroPage(t, "closed", pg)
	}
	for _, set := range sets {
		if len(set.e) != 0 {
			t.Errorf("%s under %s: read-set back in the pool with %d entries", m.Name, cfg.Name, len(set.e))
		}
		stats.released[set] = true
	}
	rep := d.Report()
	if after := fmt.Sprintf("%+v", *rep); after != before {
		t.Errorf("%s under %s: Report after Close differs\n  before %s\n  after  %s", m.Name, cfg.Name, before, after)
	}
	stats.promotions += rep.ReadSetPromotions
	stats.retired += rep.GCWordsRetired
	stats.pagesFreed += rep.GCPagesFreed
	if int64(tr.freed) != rep.GCPagesFreed {
		t.Errorf("%s under %s: tracked %d GC-freed pages, report says %d", m.Name, cfg.Name, tr.freed, rep.GCPagesFreed)
	}
}

// followerReports runs the follow-up workloads — every PARSEC model under
// the paper tools, at the default GC period and at dirtyGCPeriod — and
// renders each full report, ShadowBytes and every counter included, one
// line per run.
func followerReports(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, m := range parsec.Models() {
		pr := Prepare(m.Build())
		for _, cfg := range PaperTools(7) {
			for _, opts := range []RunOpts{{}, WithGCPeriod(RunOpts{}, dirtyGCPeriod)} {
				rep, _, err := pr.Run(cfg, 1, opts)
				if err != nil {
					t.Fatalf("%s under %s: %v", m.Name, cfg.Name, err)
				}
				lines = append(lines, fmt.Sprintf("%s gc=%d %+v", m.Name, GCPeriodOf(opts), *rep))
			}
		}
	}
	return lines
}

// TestRecycledPagesMatchFreshProcess dirties the pool, checking every page
// that goes back into it, and then holds follow-up runs on recycled pages
// to the reports, ShadowBytes included, of the same runs in a fresh
// process, whose pool has never held a page.
func TestRecycledPagesMatchFreshProcess(t *testing.T) {
	if os.Getenv(poolFreshEnv) != "" {
		for _, line := range followerReports(t) {
			fmt.Println(line)
		}
		return
	}
	stats := dirtyStats{released: make(map[*readSet]bool)}
	for _, name := range dirtyModels {
		m := parsecModel(t, name)
		for _, cfg := range dirtyConfigs() {
			runDirty(t, m, cfg, &stats)
		}
	}
	// The dirtying must have exercised every kind of word state, and a
	// later run must have promoted into a set an earlier one released.
	if stats.promotions == 0 || stats.retired == 0 || stats.pagesFreed == 0 ||
		stats.atomicEver == 0 || stats.reported == 0 || stats.recycled == 0 {
		t.Fatalf("dirtying runs left too little state: promotions %d, retired %d, pages freed %d, atomicEver %d, reported %d, recycled sets %d",
			stats.promotions, stats.retired, stats.pagesFreed, stats.atomicEver, stats.reported, stats.recycled)
	}

	t.Logf("dirtying: %d promotions, %d read-sets recycled from an earlier run", stats.promotions, stats.recycled)

	got := followerReports(t)
	cmd := exec.Command(os.Args[0], "-test.run=^TestRecycledPagesMatchFreshProcess$")
	cmd.Env = append(os.Environ(), poolFreshEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("fresh process: %v\n%s", err, out)
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "PASS" {
			want = append(want, line)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("fresh process printed %d reports, want %d:\n%s", len(want), len(got), out)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("report on recycled pages differs from a fresh process\n  fresh    %s\n  recycled %s", want[i], got[i])
		}
	}
}

// TestPagePoolConcurrentJobs runs PARSEC jobs on eight engine workers, so
// concurrent detectors take and return pages through the shared pool
// (checked by -race), and holds every report to the one-worker run.
func TestPagePoolConcurrentJobs(t *testing.T) {
	type job struct {
		prep *Prepared
		cfg  Config
		seed int64
		opts RunOpts
	}
	var jobs []job
	for _, m := range parsec.Models() {
		pr := Prepare(m.Build())
		for _, cfg := range dirtyConfigs() {
			for seed := int64(1); seed <= 2; seed++ {
				opts := RunOpts{}
				if seed == 2 {
					opts = WithGCPeriod(opts, dirtyGCPeriod)
				}
				jobs = append(jobs, job{pr, cfg, seed, opts})
			}
		}
	}
	run := func(workers int) []string {
		out, err := sched.Map(sched.New(sched.Options{Workers: workers}), jobs, func(j job) (string, error) {
			rep, _, err := j.prep.Run(j.cfg, j.seed, j.opts)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s seed=%d %+v", j.prep.Prog.Name, j.seed, *rep), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	got := run(8)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("concurrent job %d differs from the one-worker run\n  want %s\n  got  %s", i, want[i], got[i])
		}
	}
}
