package synth

import (
	"fmt"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/vm"
)

// TestTraceRoundTrip: recording a synth-generated program's event stream
// and replaying it into a fresh detector reproduces the live run's report
// exactly — warnings, counts, and shadow accounting. This is the
// record/replay contract the replay benchmarks build on, checked
// on generated programs rather than the fixed suite.
func TestTraceRoundTrip(t *testing.T) {
	for _, seed := range []int64{3, 11, 27} {
		w := Generate(seed)
		cfg := detect.HelgrindPlusLibSpin(7)
		ins := cfg.Instrument(w.Prog)

		live := detect.New(cfg, ins, w.Prog)
		trace := &event.Trace{}
		if _, err := vm.Run(w.Prog, vm.Options{
			Seed: 1, KnownLibs: cfg.KnownLibs, Instr: ins,
			Sink: event.Multi(trace, live),
		}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		liveRep := live.Report()

		replayed := detect.New(cfg, ins, w.Prog)
		trace.Replay(replayed)
		repRep := replayed.Report()

		if got, want := fmt.Sprintf("%v", repRep.Warnings), fmt.Sprintf("%v", liveRep.Warnings); got != want {
			t.Errorf("seed %d: replayed warnings differ:\n%s\nvs live:\n%s", seed, got, want)
		}
		if repRep.Events != liveRep.Events || repRep.SpinEdges != liveRep.SpinEdges ||
			repRep.RacyContexts() != liveRep.RacyContexts() || repRep.ShadowBytes != liveRep.ShadowBytes {
			t.Errorf("seed %d: replayed report counters differ: %+v vs %+v", seed, repRep, liveRep)
		}
		if int64(len(trace.Events)) != liveRep.Events {
			t.Errorf("seed %d: trace recorded %d events, detector saw %d",
				seed, len(trace.Events), liveRep.Events)
		}
	}
}
