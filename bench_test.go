// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark both measures the cost of the experiment and, on the first
// iteration, prints the regenerated rows so `go test -bench=.` reproduces
// the evaluation section end to end:
//
//	BenchmarkTable1          — slide 24, data-race-test accuracy, 4 tools
//	BenchmarkTable2          — slide 25, spin-window sweep
//	BenchmarkTable4/5/6      — slides 27-30, PARSEC racy contexts
//	BenchmarkFigureMemory    — slide 31, shadow-memory overhead
//	BenchmarkFigureRuntime   — slide 32, runtime overhead (wall clock)
//	BenchmarkDetector*       — per-tool event-processing throughput
//	BenchmarkLongTracePipeline — the pipeline knobs on the long stream
package main

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/harness"
	"adhocrace/internal/ir"
	"adhocrace/internal/sched"
	"adhocrace/internal/synth"
	"adhocrace/internal/vm"
	"adhocrace/internal/workloads/parsec"
)

var printOnce sync.Map

func once(b *testing.B, key, text string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Log("\n" + text)
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AccuracyTable(harness.Table1Configs(), 1)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "t1", harness.FormatAccuracy("Table 1 (slide 24)", rows))
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AccuracyTable(harness.Table2Configs(), 1)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "t2", harness.FormatAccuracy("Table 2 (slide 25)", rows))
	}
}

func benchParsecTable(b *testing.B, key, title string,
	table func() (map[string]map[string]float64, []string, error), programs []parsec.Model) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cells, tools, err := table()
		if err != nil {
			b.Fatal(err)
		}
		names := make([]string, len(programs))
		for j, m := range programs {
			names[j] = m.Name
		}
		once(b, key, harness.FormatContexts(title, names, tools, cells))
	}
}

func BenchmarkTable4(b *testing.B) {
	benchParsecTable(b, "t4", "Table 4 (slide 27)", harness.Table4, parsec.WithoutAdhoc())
}

func BenchmarkTable5(b *testing.B) {
	benchParsecTable(b, "t5", "Table 5 (slides 28/29)", harness.Table5, parsec.WithAdhoc())
}

// BenchmarkTable5Sequential is Table 5 through the engine's sequential
// escape hatch — compare against BenchmarkTable5 (parallel, GOMAXPROCS
// workers) to read off the experiment engine's speedup on a multicore
// runner.
func BenchmarkTable5Sequential(b *testing.B) {
	r := harness.NewRunner(sched.Options{Sequential: true})
	benchParsecTable(b, "t5seq", "Table 5 (sequential engine)", r.Table5, parsec.WithAdhoc())
}

func BenchmarkTable6(b *testing.B) {
	benchParsecTable(b, "t6", "Table 6 (slide 30)", harness.Table6, parsec.Models())
}

// BenchmarkFigureMemory regenerates the slide-31 memory figure: shadow
// bytes with and without the spin feature.
func BenchmarkFigureMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.OverheadAll()
		if err != nil {
			b.Fatal(err)
		}
		once(b, "mem", harness.FormatOverhead(rows))
	}
}

// BenchmarkFigureRuntime regenerates the slide-32 runtime figure as real
// wall-clock sub-benchmarks: every PARSEC model under Helgrind+ lib and
// Helgrind+ lib+spin(7). Compare ns/op between the /lib and /spin variants
// of the same program to read off the feature's runtime overhead.
func BenchmarkFigureRuntime(b *testing.B) {
	for _, m := range parsec.Models() {
		m := m
		prog := m.Build()
		b.Run(m.Name+"/lib", func(b *testing.B) {
			cfg := detect.HelgrindPlusLib()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := detect.Prepare(prog).Run(cfg, 1, detect.RunOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(m.Name+"/spin", func(b *testing.B) {
			cfg := detect.HelgrindPlusLibSpin(7)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := detect.Prepare(prog).Run(cfg, 1, detect.RunOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectorThroughput measures raw event-processing speed per tool
// on a mid-size workload (ferret).
func BenchmarkDetectorThroughput(b *testing.B) {
	m, ok := parsec.ByName("ferret")
	if !ok {
		b.Fatal("no ferret model")
	}
	prog := m.Build()
	for _, cfg := range detect.PaperTools(7) {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			var events int64
			for i := 0; i < b.N; i++ {
				rep, _, err := detect.Prepare(prog).Run(cfg, 1, detect.RunOpts{})
				if err != nil {
					b.Fatal(err)
				}
				events = rep.Events
			}
			b.ReportMetric(float64(events), "events/run")
		})
	}
}

// BenchmarkDetectorSharded measures intra-run detector sharding: the same
// recorded event stream replayed through detectors with 1, 2, 4, and 8
// shard workers. Recording once and replaying isolates detection
// throughput from the (serial) vm that produces the stream; compare
// ns/op of shards-N against shards-1 of the same model/tool pair to read
// off the sharding speedup. Every variant's report is asserted identical
// to the single-threaded one before timing starts.
func BenchmarkDetectorSharded(b *testing.B) {
	cases := []struct {
		model string
		tool  string
		cfg   detect.Config
	}{
		{"x264", "lib", detect.HelgrindPlusLib()},
		{"x264", "spin", detect.HelgrindPlusLibSpin(7)},
		{"freqmine", "lib", detect.HelgrindPlusLib()},
		{"dedup", "lib", detect.HelgrindPlusLib()},
	}
	for _, tc := range cases {
		m, ok := parsec.ByName(tc.model)
		if !ok {
			b.Fatalf("no model %q", tc.model)
		}
		prog := m.Build()
		ins := tc.cfg.Instrument(prog)
		trace := &event.Trace{}
		if _, err := vm.Run(prog, vm.Options{
			Seed: 1, KnownLibs: tc.cfg.KnownLibs, Instr: ins, Sink: trace,
		}); err != nil {
			b.Fatal(err)
		}
		replay := func(shards int) *detect.Report {
			d := detect.NewSharded(tc.cfg, ins, prog, shards)
			defer d.Close()
			trace.Replay(d)
			return d.Report()
		}
		base := replay(1)
		for _, shards := range []int{1, 2, 4, 8} {
			shards := shards
			b.Run(fmt.Sprintf("%s/%s/shards-%d", tc.model, tc.tool, shards), func(b *testing.B) {
				if got := replay(shards); got.RacyContexts() != base.RacyContexts() ||
					len(got.Warnings) != len(base.Warnings) || got.ShadowBytes != base.ShadowBytes {
					b.Fatalf("%d-shard report differs from single-threaded", shards)
				}
				b.ReportMetric(float64(len(trace.Events)), "events/run")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					replay(shards)
				}
			})
		}
	}
}

// BenchmarkLongTracePipeline is the measurement behind the pipeline knobs
// that stay: one GC'd Helgrind+ lib detector over synth.LongTrace's
// lock-churn stream (20 windows, about half a million events) under the
// plain synchronous pipeline, two shards, fixed-size overlap, and both.
// Each mode reports events/s and must reproduce plain's report
// fingerprint. A knob pays when its events/s beats plain's over repeated
// samples (-count) at GOMAXPROCS >= 2; on one CPU every mode only adds
// hand-off cost.
func BenchmarkLongTracePipeline(b *testing.B) {
	run := func(opts detect.RunOpts) *detect.Report {
		opts.GCShadow = true
		rep, err := synth.LongTrace(1, synth.LongTraceOpts{
			Cfg: detect.HelgrindPlusLib(), Opts: opts, Windows: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	want := harness.ReportFingerprint(run(detect.RunOpts{}))
	for _, mode := range []struct {
		name string
		opts detect.RunOpts
	}{
		{"plain", detect.RunOpts{}},
		{"shards-2", detect.RunOpts{Shards: 2}},
		{"overlap", detect.RunOpts{}.Overlapped()},
		{"shards-2+overlap", detect.RunOpts{Shards: 2}.Overlapped()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var events int64
			var rep *detect.Report
			for i := 0; i < b.N; i++ {
				rep = run(mode.opts)
				events += rep.Events
			}
			b.StopTimer()
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			if harness.ReportFingerprint(rep) != want {
				b.Fatalf("%s report differs from the plain pipeline's", mode.name)
			}
		})
	}
}

// replayFixture records the x264/spin(7) event stream as an in-memory
// binary trace once per process — the fixed input every replay benchmark
// iteration decodes and detects against.
var (
	replayFixtureOnce sync.Once
	replayFixtureBuf  []byte
	replayFixtureProg *ir.Program
	replayFixtureCfg  detect.Config
	replayFixtureErr  error
)

func replayFixture(b *testing.B) ([]byte, *ir.Program, detect.Config) {
	b.Helper()
	replayFixtureOnce.Do(func() {
		m, ok := parsec.ByName("x264")
		if !ok {
			replayFixtureErr = fmt.Errorf("no x264 model")
			return
		}
		replayFixtureProg = m.Build()
		replayFixtureCfg = detect.HelgrindPlusLibSpin(7)
		var buf bytes.Buffer
		_, _, err := detect.RecordTrace(&buf, replayFixtureProg, replayFixtureCfg, 1,
			event.TraceMeta{Workload: "x264", Tool: "spin", Window: 7, Seed: 1})
		if err != nil {
			replayFixtureErr = err
			return
		}
		replayFixtureBuf = buf.Bytes()
	})
	if replayFixtureErr != nil {
		b.Fatal(replayFixtureErr)
	}
	return replayFixtureBuf, replayFixtureProg, replayFixtureCfg
}

// BenchmarkTraceDecode is the trace-decode layer alone: the recorded
// x264/spin(7) stream opened with NewTraceReader (header and interning
// tables included) and decoded into a discarding sink, reported as
// ns/event. The steady-state decode loop allocates nothing, so allocs/op
// is the header's cost.
func BenchmarkTraceDecode(b *testing.B) {
	data, _, _ := replayFixture(b)
	discard := event.SinkFunc(func(*event.Event) {})
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		tr, err := event.NewTraceReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		n, err := tr.Replay(discard)
		if err != nil {
			b.Fatal(err)
		}
		events += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkReplayEventsPerSec is the scaling harness's benchmark form:
// the same recorded stream decoded and pushed through detectors at 1, 2,
// 4, and 8 shard workers, with throughput reported as events/sec. No vm
// runs inside the timed loop, and the instrumentation is computed once,
// memoized on the program, so an iteration times trace decode, the
// header's interning check and detection — the replay hot path.
// scripts/bench-scaling.sh records these results as a BENCH_*.json
// record; bench-compare.sh gates on their ns/op.
func BenchmarkReplayEventsPerSec(b *testing.B) {
	data, prog, cfg := replayFixture(b)
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				tr, err := event.NewTraceReader(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				_, n, err := detect.ReplayTrace(tr, prog, cfg, detect.RunOpts{Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				events = n
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkAblationSpinFeature quantifies the design choices DESIGN.md
// calls out, as detector-accuracy ablations on the accuracy suite:
// spin window (3 vs 7), library knowledge (lib vs nolib), and the
// future-work lock-operation identification.
func BenchmarkAblationSpinFeature(b *testing.B) {
	variants := []detect.Config{
		detect.HelgrindPlusLib(),
		detect.HelgrindPlusLibSpin(3),
		detect.HelgrindPlusLibSpin(7),
		detect.HelgrindPlusNolibSpin(7),
		detect.HelgrindPlusNolibSpinLocks(7),
	}
	for _, cfg := range variants {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row, err := harness.Accuracy(cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(row.Failed), "failed-cases")
			}
		})
	}
}

// BenchmarkInstrumentationPhase measures the static analysis alone (CFG,
// loops, classification) across window sizes.
func BenchmarkInstrumentationPhase(b *testing.B) {
	m, ok := parsec.ByName("bodytrack")
	if !ok {
		b.Fatal("no bodytrack model")
	}
	prog := m.Build()
	for _, window := range []int{3, 7, 8} {
		window := window
		b.Run(fmt.Sprintf("window%d", window), func(b *testing.B) {
			cfg := detect.HelgrindPlusLibSpin(window)
			for i := 0; i < b.N; i++ {
				ins := cfg.Instrument(prog)
				if ins.NumLoops() == 0 {
					b.Fatal("no loops classified")
				}
			}
		})
	}
}
