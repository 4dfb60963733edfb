package event

import (
	"testing"
)

// flushCounter counts events and Flush calls, to observe Replay's contract.
type flushCounter struct {
	events  int
	flushes int
}

func (f *flushCounter) Handle(ev *Event) { f.events++ }
func (f *flushCounter) Flush()           { f.flushes++ }

// TestTraceEmptyReplay: replaying an empty trace delivers no events but
// still flushes the sink — a buffering sink must drain even when the
// stream was empty, exactly as the vm flushes at the end of a run.
func TestTraceEmptyReplay(t *testing.T) {
	var tr Trace
	var sink flushCounter
	tr.Replay(&sink)
	if sink.events != 0 {
		t.Errorf("empty trace delivered %d events", sink.events)
	}
	if sink.flushes != 1 {
		t.Errorf("empty trace flushed %d times, want 1", sink.flushes)
	}
}

// TestTraceReplayAfterPartialRead: consuming a prefix of the recorded
// stream by hand does not disturb Replay — a later Replay re-delivers the
// full stream from the start, so one recording can feed any number of
// detectors (the detector benchmarks rely on this).
func TestTraceReplayAfterPartialRead(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 10; i++ {
		tr.Handle(&Event{Kind: KindWrite, Tid: Tid(i % 3), Addr: int64(i) * 8})
	}
	// Partial read: hand the first half to a sink directly.
	var partial flushCounter
	for i := 0; i < 5; i++ {
		partial.Handle(&tr.Events[i])
	}
	if partial.events != 5 {
		t.Fatalf("partial read saw %d events, want 5", partial.events)
	}
	// A full replay afterwards starts over and delivers everything.
	var full flushCounter
	tr.Replay(&full)
	if full.events != 10 {
		t.Errorf("replay after partial read delivered %d events, want 10", full.events)
	}
	if full.flushes != 1 {
		t.Errorf("replay flushed %d times, want 1", full.flushes)
	}
	// Replay is repeatable: a second pass delivers the same stream.
	var again flushCounter
	tr.Replay(&again)
	if again.events != 10 {
		t.Errorf("second replay delivered %d events, want 10", again.events)
	}
}

// TestTraceRecordsCopies: the trace stores copies, not the (reused)
// event pointer the vm hands sinks.
func TestTraceRecordsCopies(t *testing.T) {
	tr := &Trace{}
	ev := Event{Kind: KindRead, Addr: 8}
	tr.Handle(&ev)
	ev.Addr = 16 // the vm reuses its scratch event
	tr.Handle(&ev)
	if tr.Events[0].Addr != 8 || tr.Events[1].Addr != 16 {
		t.Errorf("trace aliased the scratch event: %+v", tr.Events)
	}
}
