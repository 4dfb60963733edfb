package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestPoolPerWorkerFIFO submits interleaved jobs to several workers and
// checks that each worker's jobs ran serially in submission order.
func TestPoolPerWorkerFIFO(t *testing.T) {
	const workers, jobs = 4, 200
	p := NewPool(workers)
	var mu sync.Mutex
	got := make([][]int, workers)
	for j := 0; j < jobs; j++ {
		j := j
		w := j % workers
		p.Submit(w, func() {
			mu.Lock()
			got[w] = append(got[w], j)
			mu.Unlock()
		})
	}
	p.Close()
	for w := 0; w < workers; w++ {
		if len(got[w]) != jobs/workers {
			t.Fatalf("worker %d ran %d jobs, want %d", w, len(got[w]), jobs/workers)
		}
		for i := 1; i < len(got[w]); i++ {
			if got[w][i] <= got[w][i-1] {
				t.Errorf("worker %d ran job %d after job %d", w, got[w][i], got[w][i-1])
			}
		}
	}
}

// TestPoolCloseDrains checks that Close completes every submitted job.
func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(3)
	var n atomic.Int64
	for j := 0; j < 500; j++ {
		p.Submit(j, func() { n.Add(1) })
	}
	p.Close()
	if n.Load() != 500 {
		t.Fatalf("ran %d jobs, want 500", n.Load())
	}
}

// TestPoolPanic checks that a panicking job surfaces on the submitting
// goroutine via Check/Close instead of killing the worker silently.
func TestPoolPanic(t *testing.T) {
	p := NewPool(2)
	p.Submit(0, func() { panic("boom") })
	// The worker must survive and keep processing.
	var ran atomic.Bool
	p.Submit(0, func() { ran.Store(true) })
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want \"boom\"", r)
		}
		if !ran.Load() {
			t.Error("worker did not keep draining after a panicking job")
		}
	}()
	p.Close()
}

// TestSubmitBalanced checks that least-loaded placement spreads blocked
// jobs across all workers instead of stacking one queue, and that every
// job still runs exactly once.
func TestSubmitBalanced(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	release := make(chan struct{})
	var started atomic.Int64
	picked := make(map[int]bool)
	// Each blocked job holds its worker; the next placement must pick a
	// different (idle) one, so the first `workers` jobs cover every worker.
	for i := 0; i < workers; i++ {
		w := p.SubmitBalanced(func() { started.Add(1); <-release })
		picked[w] = true
	}
	if len(picked) != workers {
		t.Errorf("first %d balanced submissions used %d workers, want all", workers, len(picked))
	}
	// Release the holders before queuing more: the per-worker queues are
	// bounded, so submission can block behind held workers.
	close(release)
	var n atomic.Int64
	for j := 0; j < 100; j++ {
		p.SubmitBalanced(func() { n.Add(1) })
	}
	p.Close()
	if n.Load() != 100 {
		t.Fatalf("ran %d jobs, want 100", n.Load())
	}
}
