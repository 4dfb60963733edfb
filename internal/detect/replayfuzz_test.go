// Hostile traces: a trace that decodes cleanly can still describe a
// stream no vm emits, and replay must turn it into an error, never into
// memory the detector cannot afford. The regression case is the
// sparse-spawn trace (testdata/sparse_spawn.trace): a valid header and one
// spawn of thread 65,536, whose vector clocks alone would cost O(65,536²)
// entries. FuzzReplayTrace decodes and detects mutated event streams under
// every paper preset and bounds each stream's allocation.
package detect_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/workloads"
)

// sparseSpawnPath is the committed sparse-spawn trace, which
// scripts/replay-smoke.sh also feeds to racedetect -replay.
var sparseSpawnPath = filepath.Join("testdata", "sparse_spawn.trace")

// fuzzWorkloads are the registered suite cases the fuzz seeds record;
// FuzzReplayTrace replays only against these programs, and the first byte
// of its input picks one.
var fuzzWorkloads = []string{"ww_two_threads", "adhoc_spin11_b7_atomic_long"}

func buildWorkload(tb testing.TB, name string) *ir.Program {
	tb.Helper()
	build, ok := workloads.Find(name)
	if !ok {
		tb.Fatalf("workload %q not registered", name)
	}
	return build()
}

// fuzzMeta is the header meta of every trace the fuzz seeds record.
func fuzzMeta(name string) event.TraceMeta {
	return event.TraceMeta{Workload: name, Tool: "spin", Window: 7, Seed: 1}
}

// sparseSpawnTrace is a trace of ww_two_threads whose only event is thread
// 0 spawning thread 65,536.
func sparseSpawnTrace(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	tw := event.NewTraceWriter(&buf, fuzzMeta(fuzzWorkloads[0]), buildWorkload(tb, fuzzWorkloads[0]).Interning())
	tw.Handle(&event.Event{Kind: event.KindSpawn, Tid: 0, Child: 1 << 16})
	if err := tw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayRejectsSparseSpawn replays the committed sparse-spawn trace
// under every paper preset: each replay is a corrupt-trace error naming
// the event, and the detector never sees the spawn. With -update the test
// rewrites the committed file.
func TestReplayRejectsSparseSpawn(t *testing.T) {
	data := sparseSpawnTrace(t)
	if *update {
		if err := os.WriteFile(sparseSpawnPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(sparseSpawnPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(committed, data) {
		t.Fatalf("%s is stale (regenerate with -update)", sparseSpawnPath)
	}
	p := buildWorkload(t, fuzzWorkloads[0])
	for _, cfg := range detect.PaperTools(7) {
		tr, err := event.NewTraceReader(bytes.NewReader(committed))
		if err != nil {
			t.Fatal(err)
		}
		rep, n, err := detect.ReplayTrace(tr, p, cfg, detect.RunOpts{})
		if !errors.Is(err, event.ErrTraceCorrupt) || rep != nil || n != 0 {
			t.Fatalf("%s: sparse spawn replayed to (%v, %d, %v), want a corrupt-trace error before any event", cfg.Name, rep, n, err)
		}
		if want := "event 0: thread 0 spawns thread 65536, want the next id 1"; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not say %q", cfg.Name, err, want)
		}
	}
}

// TestReplayRejectsImpossibleThreads holds each thread rule of
// TraceReader.Replay to a short stream that breaks it, and admits a
// stream of dense spawns up to the bound.
func TestReplayRejectsImpossibleThreads(t *testing.T) {
	p := buildWorkload(t, fuzzWorkloads[0])
	spawn := func(parent, child int) event.Event {
		return event.Event{Kind: event.KindSpawn, Tid: event.Tid(parent), Child: event.Tid(child)}
	}
	dense := func(n int) []event.Event {
		evs := make([]event.Event, 0, n)
		for c := 1; c < n; c++ {
			evs = append(evs, spawn(0, c))
		}
		return evs
	}
	for _, tc := range []struct {
		name string
		evs  []event.Event
		want string // "" admits the stream
	}{
		{"dense", dense(4), ""},
		{"dense-to-bound", dense(event.MaxReplayThreads), ""},
		{"past-bound", append(dense(event.MaxReplayThreads), spawn(0, event.MaxReplayThreads)),
			"event 1023: spawn past 1024 threads"},
		{"skipped-id", []event.Event{spawn(0, 1), spawn(1, 3)}, "event 1: thread 1 spawns thread 3, want the next id 2"},
		{"unspawned-actor", []event.Event{spawn(0, 1), {Kind: event.KindThreadStart, Tid: 2}},
			"event 1: thread 2 acts before it is spawned"},
		{"unspawned-join", []event.Event{spawn(0, 1), {Kind: event.KindJoin, Tid: 0, Child: 2}},
			"event 1: thread 0 joins thread 2, which was never spawned"},
	} {
		var buf bytes.Buffer
		tw := event.NewTraceWriter(&buf, event.TraceMeta{Workload: fuzzWorkloads[0]}, p.Interning())
		for i := range tc.evs {
			tw.Handle(&tc.evs[i])
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		tr, err := event.NewTraceReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		_, n, err := detect.ReplayTrace(tr, p, detect.DRD(), detect.RunOpts{})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want == "" && n != int64(len(tc.evs)):
			t.Errorf("%s: replayed %d of %d events", tc.name, n, len(tc.evs))
		case tc.want != "" && (!errors.Is(err, event.ErrTraceCorrupt) || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want a corrupt-trace error saying %q", tc.name, err, tc.want)
		case tc.want != "" && n != int64(len(tc.evs)-1):
			t.Errorf("%s: delivered %d events before the bad one, want %d", tc.name, n, len(tc.evs)-1)
		}
	}
}

// Replay allocation budget of one stream under one preset. A stream's
// threads cost O(threads²) clock entries whatever its length. Past that,
// each event byte is charged 16 KiB: an access to a fresh page (at least 7
// bytes) opens a ~60 KB shadow page, and a sync event on a fresh object
// (at least 6 bytes) copies a clock of up to 8 KiB at the thread bound.
// Measured on ww_two_threads (Go 1.24, linux/amd64): an empty stream
// allocates about 11 KB per preset, 1,023 dense spawns 4.6 MB, and 2,000
// accesses to fresh pages 119 MB (23,465 event bytes).
const (
	replayFixedBytes   = 1 << 20
	replayThreadBytes  = 8 * event.MaxReplayThreads * event.MaxReplayThreads
	replayPerByteBytes = 16 << 10
	// maxFuzzTrace skips inputs whose budget alone would strain a fuzz
	// worker's memory.
	maxFuzzTrace = 64 << 10
)

// traceHeader is the header of p's traces recorded with fuzzMeta: the
// bytes in front of the first event.
func traceHeader(p *ir.Program, name string) []byte {
	var buf bytes.Buffer
	event.NewTraceWriter(&buf, fuzzMeta(name), p.Interning()).Flush()
	return buf.Bytes()
}

// FuzzReplayTrace detects an event stream under every PaperTools(7)
// preset. The input is one byte that picks a program of fuzzWorkloads,
// then the event section of a trace, which the body puts behind that
// program's header, so mutations reach the detector instead of dying at
// CheckTable (FuzzTraceDecode covers the header). Corrupt input must be an
// error, never a panic, and the four replays together must allocate within
// the budget of the stream's event bytes.
func FuzzReplayTrace(f *testing.F) {
	progs := make([]*ir.Program, len(fuzzWorkloads))
	headers := make([][]byte, len(fuzzWorkloads))
	cfgs := detect.PaperTools(7)
	seed := func(sel int, trace []byte) {
		events, ok := bytes.CutPrefix(trace, headers[sel])
		if !ok {
			f.Fatalf("seed trace of %s does not start with its header", fuzzWorkloads[sel])
		}
		f.Add(append([]byte{byte(sel)}, events...))
	}
	for i, name := range fuzzWorkloads {
		p := buildWorkload(f, name)
		progs[i], headers[i] = p, traceHeader(p, name)
		// Warm the program's memoized instrumentation, so the budget
		// charges only the replays.
		for _, cfg := range cfgs {
			detect.Prepare(p).Instrument(cfg)
		}
	}
	seed(0, sparseSpawnTrace(f))
	for i, p := range progs {
		var buf bytes.Buffer
		if _, _, err := detect.RecordTrace(&buf, p, cfgs[1], 1, fuzzMeta(fuzzWorkloads[i])); err != nil {
			f.Fatal(err)
		}
		seed(i, buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > maxFuzzTrace {
			return
		}
		sel := int(data[0]) % len(fuzzWorkloads)
		trace := append(append([]byte(nil), headers[sel]...), data[1:]...)
		p := progs[sel]
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for _, cfg := range cfgs {
			tr, err := event.NewTraceReader(bytes.NewReader(trace))
			if err != nil {
				t.Fatalf("header of %s rejected: %v", fuzzWorkloads[sel], err)
			}
			detect.ReplayTrace(tr, p, cfg, detect.RunOpts{})
		}
		runtime.ReadMemStats(&ms)
		events := len(data) - 1
		budget := uint64(len(cfgs)) * (replayFixedBytes + replayThreadBytes + uint64(events)*replayPerByteBytes)
		if got := ms.TotalAlloc - before; got > budget {
			t.Fatalf("%d event bytes of %s allocated %d bytes, budget %d", events, fuzzWorkloads[sel], got, budget)
		}
	})
}
