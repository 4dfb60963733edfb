package detect

// Trace record/replay: run a workload once and capture its event stream
// as a binary trace (event.TraceWriter), then drive detectors from the
// recording with no vm in the loop. Replay is how the benchmarks measure
// pure detection throughput (decode and detection, no vm) and how
// `racedetect -record/-replay` turn a run into a portable artifact.
//
// The byte-identity contract: a replayed report equals the live run's
// report byte for byte (harness.ReportFingerprint), because the recorded
// stream is exactly what the live detector consumed and interning ids are
// deterministic for a given program build. The round-trip tests assert
// this across the accuracy suite and presets.

import (
	"io"

	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/vm"
)

// RecordTrace executes the workload under cfg's instrumentation and
// interception with no detector attached, streaming every event into a
// binary trace on w. meta is recorded verbatim in the header (callers
// supply the registry workload name and short tool name so a replayer can
// rebuild both sides). The instrumentation and decoded program are the
// ones memoized on p (Prepared). Returns the vm result and events recorded.
func RecordTrace(w io.Writer, p *ir.Program, cfg Config, seed int64, meta event.TraceMeta) (vm.Result, int64, error) {
	pr := Prepare(p)
	tw := event.NewTraceWriter(w, meta, p.Interning())
	res, err := vm.Run(p, vm.Options{
		Seed:      seed,
		KnownLibs: cfg.KnownLibs,
		Instr:     pr.Instrument(cfg),
		Sink:      tw,
		Decoded:   pr.Decoded(cfg),
	})
	if err != nil {
		tw.Close()
		return res, tw.Count(), err
	}
	return res, tw.Count(), tw.Close()
}

// ReplayTrace feeds a recorded trace through a fresh detector built for
// cfg and opts (observer, obs and failpoints apply, as live; the vm-side
// controls — interrupt, deadline — have no vm to act on). The program must be the same build that was
// recorded: its interning table's sizes and digest are checked against
// the trace header before any event is decoded. The instrumentation is the one memoized on
// p, so repeated replays against one program pay only for decoding and
// detection. Returns the report and the events replayed.
func ReplayTrace(tr *event.TraceReader, p *ir.Program, cfg Config, opts RunOpts) (*Report, int64, error) {
	if err := tr.CheckTable(p.Interning()); err != nil {
		return nil, 0, err
	}
	d, sink := Prepare(p).NewRun(cfg, opts)
	defer d.Close()
	n, err := tr.Replay(sink)
	if err != nil {
		return nil, n, err
	}
	return d.Report(), n, nil
}
