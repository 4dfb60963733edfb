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
//	BenchmarkDetectorThroughput — per-tool event-processing throughput
//	BenchmarkLongTracePipeline — events/s on the long lock-churn stream
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
	"adhocrace/internal/workloads/parsec"
)

var printOnce sync.Map

func once(b *testing.B, key, text string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Log("\n" + text)
	}
}

// runner is the default experiment runner: GOMAXPROCS engine workers.
func runner() *harness.Runner { return harness.NewRunner(sched.Options{}) }

func BenchmarkTable1(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		rows, err := r.AccuracyTable(harness.Table1Configs(), 1)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "t1", harness.FormatAccuracy("Table 1 (slide 24)", rows))
	}
}

func BenchmarkTable2(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		rows, err := r.AccuracyTable(harness.Table2Configs(), 1)
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
	benchParsecTable(b, "t4", "Table 4 (slide 27)", runner().Table4, parsec.WithoutAdhoc())
}

func BenchmarkTable5(b *testing.B) {
	benchParsecTable(b, "t5", "Table 5 (slides 28/29)", runner().Table5, parsec.WithAdhoc())
}

// BenchmarkTable5Sequential is Table 5 on one engine worker, every job
// inline — compare against BenchmarkTable5 (GOMAXPROCS workers) to read
// off the experiment engine's speedup on a multicore runner.
func BenchmarkTable5Sequential(b *testing.B) {
	r := harness.NewRunner(sched.Options{Workers: 1})
	benchParsecTable(b, "t5seq", "Table 5 (sequential engine)", r.Table5, parsec.WithAdhoc())
}

func BenchmarkTable6(b *testing.B) {
	benchParsecTable(b, "t6", "Table 6 (slide 30)", runner().Table6, parsec.Models())
}

// BenchmarkFigureMemory regenerates the slide-31 memory figure: shadow
// bytes with and without the spin feature.
func BenchmarkFigureMemory(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		rows, err := r.OverheadAll()
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

// BenchmarkLongTracePipeline is the long-stream throughput figure: one
// Helgrind+ lib detector over synth.LongTrace's lock-churn stream (20
// windows, about half a million events, so the shadow GC cycles every
// detect.GCPeriod of them), reported in events/s. The run
// takes the production pipeline, which overlaps detection with the vm once
// the stream passes event.OverlapThreshold; the plain-vs-overlap
// comparison behind that threshold is BenchmarkPipelineCrossover in
// internal/detect.
func BenchmarkLongTracePipeline(b *testing.B) {
	var events int64
	for i := 0; i < b.N; i++ {
		rep, err := synth.LongTrace(1, synth.LongTraceOpts{
			Cfg: detect.HelgrindPlusLib(), Windows: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
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
// x264/spin(7) stream opened with NewTraceReader (header included: meta,
// and the interning table's sizes and digest) and decoded into a
// discarding sink, reported as ns/event. The steady-state decode loop
// allocates nothing, so allocs/op is the reader's and its header's cost.
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

// BenchmarkReplayEventsPerSec pushes the recorded x264/spin(7) stream
// through a fresh detector per iteration, with throughput reported as
// events/sec. No vm runs inside the timed loop, and the instrumentation is
// computed once, memoized on the program, so an iteration times trace
// decode, the header's digest check and detection — the replay hot path. scripts/bench-save.sh records its events/sec as the BENCH
// record's EventsPerSec; bench-compare.sh gates on its ns/op.
func BenchmarkReplayEventsPerSec(b *testing.B) {
	data, prog, cfg := replayFixture(b)
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		tr, err := event.NewTraceReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		_, n, err := detect.ReplayTrace(tr, prog, cfg, detect.RunOpts{})
		if err != nil {
			b.Fatal(err)
		}
		events = n
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
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
			r := runner()
			for i := 0; i < b.N; i++ {
				rows, err := r.AccuracyTable([]detect.Config{cfg}, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rows[0].Failed), "failed-cases")
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
