package main

import (
	"testing"
	"time"
)

// mkSpan is a span with times in milliseconds.
func mkSpan(id, parent, op int, layer string, start, end int64) span {
	return span{ID: spanID(id), Parent: spanID(parent), Op: spanID(op), Layer: layer,
		Start: start * int64(time.Millisecond), End: end * int64(time.Millisecond)}
}

func TestAttributeSequential(t *testing.T) {
	a := attributeOp([]span{
		mkSpan(1, 0, 1, rootLayer, 0, 10),
		mkSpan(2, 1, 1, "vm", 1, 4),
		mkSpan(3, 1, 1, "detect", 4, 9),
	})
	want := map[string]time.Duration{"vm": 3 * time.Millisecond, "detect": 5 * time.Millisecond, rootLayer: 2 * time.Millisecond}
	for l, d := range want {
		if a.layer[l] != d {
			t.Errorf("%s: %v, want %v", l, a.layer[l], d)
		}
	}
	if a.wall != 10*time.Millisecond {
		t.Errorf("wall %v", a.wall)
	}
}

// Two workers run concurrently under a sched span: overlapping time is
// split between them, and the parts still add up to the wall time.
func TestAttributeConcurrentSumsToWall(t *testing.T) {
	a := attributeOp([]span{
		mkSpan(1, 0, 1, rootLayer, 0, 20),
		mkSpan(2, 1, 1, "sched", 2, 18),
		mkSpan(3, 2, 1, "vm", 2, 10),
		mkSpan(4, 2, 1, "detect", 6, 16),
		mkSpan(5, 2, 1, "vm", 10, 12),
	})
	var sum time.Duration
	for _, d := range a.layer {
		sum += d
	}
	if d := sum - a.wall; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("parts sum to %v, wall %v", sum, a.wall)
	}
	// vm alone 2-6, shared 6-12 with detect, detect alone 12-16, sched
	// alone 16-18, root 0-2 and 18-20.
	want := map[string]time.Duration{
		"vm":      7 * time.Millisecond,
		"detect":  7 * time.Millisecond,
		"sched":   2 * time.Millisecond,
		rootLayer: 4 * time.Millisecond,
	}
	for l, d := range want {
		if diff := a.layer[l] - d; diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("%s: %v, want %v", l, a.layer[l], d)
		}
	}
}

func TestTracerGroupsSpansByOperation(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 3; i++ {
		op := tr.beginOp()
		tr.call(op, "vm", func() { time.Sleep(time.Millisecond) })
		tr.end(op)
	}
	atts := tr.attribute()
	if len(atts) != 3 {
		t.Fatalf("%d operations, want 3", len(atts))
	}
	for _, a := range atts {
		if a.layer["vm"] < time.Millisecond || a.layer["vm"] > a.wall {
			t.Errorf("vm %v of wall %v", a.layer["vm"], a.wall)
		}
	}
}
