package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"adhocrace/internal/detect"
)

// workload is one named input set of the benchmark.
type workload interface {
	// setup builds the workload's inputs from seed, releasing those of an
	// earlier call. The benchmark times it several times per run.
	setup(seed int64) error
	// run executes operations until the deadline has passed. With a
	// tracer it runs the traced form of each operation, which makes the
	// same layer calls one at a time inside spans.
	run(until time.Time, tr *tracer) (opStats, error)
	// layers measures the per-layer rates and counts on the workload's
	// inputs into m (traced runs only). base holds the untraced
	// operations the traced run measured first, traced the traced ones.
	layers(m map[string]float64, base, traced opStats) error
	// tail is the percentile op_tail_ms reports for this workload: the
	// highest on the ladder that keeps at least ten samples beyond it
	// (tailPercentile) at the slowest operation rate seen in 20-second
	// runs.
	tail() float64
	close()
}

// opStats is what a timed phase observed.
type opStats struct {
	lat       []float64 // per-operation latency, ms
	events    int64     // detector events (Report.Events) processed
	attempted int
	failed    int
	elapsed   time.Duration
	counts    reportCounts
}

func (s *opStats) add(o opStats) {
	s.lat = append(s.lat, o.lat...)
	s.events += o.events
	s.attempted += o.attempted
	s.failed += o.failed
	s.elapsed += o.elapsed
	s.counts.add(o.counts)
}

// reportCounts sums the detector counters of the reports an operation
// produced.
type reportCounts struct {
	events, shadowBytes, gcCycles, gcWords, promotions int64
	epochHits, rebases, inflates, spinEdges, reports   int64
}

func (c *reportCounts) observe(rep *detect.Report) {
	c.events += rep.Events
	c.shadowBytes += rep.ShadowBytes
	c.gcCycles += rep.GCCycles
	c.gcWords += rep.GCWordsRetired
	c.promotions += rep.ReadSetPromotions
	c.epochHits += rep.SyncEpochHits
	c.rebases += rep.SyncRebases
	c.inflates += rep.SyncInflates
	c.spinEdges += rep.SpinEdges
	c.reports++
}

func (c *reportCounts) add(o reportCounts) {
	c.events += o.events
	c.shadowBytes += o.shadowBytes
	c.gcCycles += o.gcCycles
	c.gcWords += o.gcWords
	c.promotions += o.promotions
	c.epochHits += o.epochHits
	c.rebases += o.rebases
	c.inflates += o.inflates
	c.spinEdges += o.spinEdges
	c.reports += o.reports
}

// fill reports the counters per operation (ops of them), and the rates per
// thousand events.
func (c reportCounts) fill(m map[string]float64, ops int) {
	if ops < 1 {
		ops = 1
	}
	per := func(v int64) float64 { return float64(v) / float64(ops) }
	m["detect.shadow_bytes"] = per(c.shadowBytes)
	m["detect.gc_cycles"] = per(c.gcCycles)
	m["detect.gc_words_retired"] = per(c.gcWords)
	m["detect.spin_edges"] = per(c.spinEdges)
	if c.events > 0 {
		m["detect.readset_promotions_per_kevent"] = 1000 * float64(c.promotions) / float64(c.events)
		m["hb.inflates_per_kevent"] = 1000 * float64(c.inflates) / float64(c.events)
	}
	if sync := c.epochHits + c.rebases + c.inflates; sync > 0 {
		m["hb.epoch_hit_rate"] = float64(c.epochHits) / float64(sync)
	}
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int           // set-up repetitions; setup_s is their median
	warmup   time.Duration // untimed operations before the measured phase
	spans    string        // where a traced run writes its spans ("" = nowhere)
}

// newWorkload resolves a workload name.
func newWorkload(name string) (workload, bool) {
	switch name {
	case "suite":
		return &suiteWorkload{}, true
	case "longtrace":
		return &longtraceWorkload{windows: 100}, true
	case "replay":
		return &replayWorkload{}, true
	case "raced":
		return &racedWorkload{}, true
	}
	return nil, false
}

var workloadNames = []string{"suite", "longtrace", "replay", "raced"}

// measure runs one invocation: set-up, then either the timed untraced
// phase (end-to-end metrics) or the traced run (per-layer metrics).
func measure(w workload, o options) (result, error) {
	defer w.close()
	var setups []float64
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		if err := w.setup(o.seed); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		// Collect the previous repetition's inputs now, so the peak
		// resident set holds one set-up, not a GC-timing-dependent few.
		runtime.GC()
	}
	// The first operations run while the heap and the caches grow to
	// their steady size; they are checked but not timed.
	warm, err := w.run(time.Now().Add(o.warmup), nil)
	if err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		st, err := w.run(time.Now().Add(budget), nil)
		if err != nil {
			return result{}, err
		}
		st.attempted += warm.attempted
		st.failed += warm.failed
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		m := map[string]float64{
			"setup_s":      median(setups),
			"events_per_s": float64(st.events) / st.elapsed.Seconds(),
			"op_p50_ms":    median(st.lat),
			"op_tail_ms":   percentile(st.lat, w.tail()),
			"peak_rss_mb":  rss,
			"success_rate": 1 - float64(st.failed)/float64(max(st.attempted, 1)),
		}
		if p := tailPercentile(len(st.lat)); p < w.tail() {
			fmt.Fprintf(os.Stderr, "perfbench: %d operations support a tail of p%g only; op_tail_ms is p%g\n", len(st.lat), p, w.tail())
		}
		return newResult(endToEnd, m, st.attempted, st.failed), nil
	}
	r, err := measureTraced(w, o, budget)
	r.Attempted += warm.attempted
	r.Failed += warm.failed
	r.Correct = r.Correct && warm.failed == 0
	return r, err
}

// measureTraced is the per-layer run: untraced operations first (the
// reference for the tracing overhead and the runtime counters), then the
// same operations traced, then the layer rates.
func measureTraced(w workload, o options, budget time.Duration) (result, error) {
	m := make(map[string]float64)
	heap := startHeapSampler()
	defer heap.stop()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	base, err := w.run(time.Now().Add(budget*3/10), nil)
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&after)
	ops := float64(max(len(base.lat), 1))
	m["runtime.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
	m["runtime.bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / ops
	m["runtime.gc_cycles_per_op"] = float64(after.NumGC-before.NumGC) / ops

	tr := newTracer()
	traced, err := w.run(time.Now().Add(budget*3/10), tr)
	if err != nil {
		return result{}, err
	}
	fillAttribution(m, tr.attribute(), median(base.lat))
	if o.spans != "" {
		if err := tr.writeSpans(o.spans); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.layers(m, base, traced); err != nil {
		return result{}, fmt.Errorf("layers: %w", err)
	}
	m["runtime.heap_peak_mb"] = heap.stop()

	attempted := base.attempted + traced.attempted
	failed := base.failed + traced.failed
	return newResult(perLayer, m, attempted, failed), nil
}

// fillAttribution reports the median operation's split: per-layer self
// times, the unattributed remainder, and how much slower the traced form
// ran than the untraced median (untracedMs).
func fillAttribution(m map[string]float64, atts []attribution, untracedMs float64) {
	if len(atts) == 0 {
		return
	}
	walls := make([]float64, len(atts))
	for i, a := range atts {
		walls[i] = ms(a.wall)
	}
	wall := median(walls)
	var total float64
	for _, a := range atts {
		total += ms(a.wall)
	}
	// Layer times are averaged over the operations and scaled to the
	// median wall, so the printed parts add up to the printed wall.
	scale := wall / total
	sum := func(layer string) float64 {
		var v float64
		for _, a := range atts {
			v += ms(a.layer[layer])
		}
		return v * scale
	}
	for _, l := range layerSelf {
		m[l+".self_ms"] = sum(l)
	}
	m["attrib.unattributed_ms"] = sum(rootLayer)
	m["attrib.op_wall_ms"] = wall
	m["attrib.unattributed_share"] = sum(rootLayer) / wall
	if untracedMs > 0 {
		m["attrib.tracing_overhead_share"] = (wall - untracedMs) / untracedMs
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// heapSampler tracks the peak live heap by sampling it every few
// milliseconds on its own goroutine.
type heapSampler struct {
	stopOnce sync.Once
	stopc    chan struct{}
	done     chan struct{}
	sample   []metrics.Sample
	peak     uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{
		stopc:  make(chan struct{}),
		done:   make(chan struct{}),
		sample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-tick.C:
				h.read()
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	metrics.Read(h.sample)
	if v := h.sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// stop ends the sampling, waits for the goroutine, and returns the peak
// in MB. Safe to call more than once.
func (h *heapSampler) stop() float64 {
	h.stopOnce.Do(func() {
		close(h.stopc)
		<-h.done
		h.read()
	})
	return float64(h.peak) / (1 << 20)
}
