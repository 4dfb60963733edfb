package vm

import (
	"errors"
	"sync/atomic"
	"testing"

	"adhocrace/internal/event"
	"adhocrace/internal/ir"
)

// countLoop builds a single-thread program that increments CELL up to
// limit — enough scheduling quanta for a mid-run interrupt to land.
func countLoop(limit int64) *ir.Program {
	b := ir.NewBuilder("t")
	cell := b.Global("CELL")
	f := b.Func("main", 0)
	one := f.Const(1)
	lim := f.Const(limit)
	loop := f.NewBlock()
	exit := f.NewBlock()
	f.Jmp(loop)
	f.SetBlock(loop)
	a := f.Addr(cell, "CELL")
	v := f.Add(f.Load(a, "CELL"), one)
	f.Store(a, v, "CELL")
	f.Br(f.CmpGE(v, lim), exit, loop)
	f.SetBlock(exit)
	f.Ret(ir.NoReg)
	return b.MustBuild()
}

// TestInterruptBeforeRun: a pre-set flag stops the run at the first
// scheduling point, before any step executes.
func TestInterruptBeforeRun(t *testing.T) {
	var stop atomic.Bool
	stop.Store(true)
	res, err := Run(countLoop(10_000), Options{Seed: 1, Interrupt: &stop})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res.Steps != 0 {
		t.Errorf("steps = %d, want 0 (interrupted before the first quantum)", res.Steps)
	}
}

// TestInterruptMidRun: the flag flips from the event sink partway in; the
// run must stop within one quantum, with a partial result, and the report
// covers exactly the events emitted before the stop.
func TestInterruptMidRun(t *testing.T) {
	full := mustRun(t, countLoop(10_000), Options{Seed: 1})

	var stop atomic.Bool
	events := 0
	sink := event.SinkFunc(func(ev *event.Event) {
		events++
		if events == 100 {
			stop.Store(true)
		}
	})
	res, err := Run(countLoop(10_000), Options{Seed: 1, Sink: sink, Interrupt: &stop})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res.Steps == 0 || res.Steps >= full.Steps {
		t.Errorf("steps = %d, want partial progress (full run = %d)", res.Steps, full.Steps)
	}
}

// TestInterruptOverlapped: with the segmented pipeline the flag flips on
// the consumer goroutine; the producer must still notice, stop, and leave
// the pipeline drained (vm.Run flushes the segments on the error path;
// the caller closes them).
func TestInterruptOverlapped(t *testing.T) {
	var stop atomic.Bool
	events := 0
	seg := event.NewSegmented(event.SinkFunc(func(ev *event.Event) {
		events++
		if events == 100 {
			stop.Store(true)
		}
	}))
	defer seg.Close()
	_, err := Run(countLoop(10_000), Options{Seed: 1, Sink: seg, Interrupt: &stop})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}

// TestInterruptNeverSet: a present-but-false flag changes nothing.
func TestInterruptNeverSet(t *testing.T) {
	var stop atomic.Bool
	res, err := Run(countLoop(1_000), Options{Seed: 1, Interrupt: &stop})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Memory(0) != 1_000 {
		t.Errorf("CELL = %d, want 1000", res.Memory(0))
	}
}
