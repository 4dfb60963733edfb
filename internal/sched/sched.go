// Package sched is the experiment engine's job runner: a worker-pool
// executor with bounded concurrency and deterministic result assembly
// (Engine).
//
// The harness submits every (tool × workload × seed) detector run as one
// Engine job. Jobs are independent — each runs its own vm and a fresh
// detect.Detector over immutable compiled inputs — so they can execute on
// any worker in any order; determinism is recovered at assembly time by
// keying every job with its index in the submission order. A run through
// the engine therefore produces byte-identical tables for every worker
// count.
//
// The zero-configuration engine uses GOMAXPROCS workers; the worker count
// is its only knob. Workers: 1 is the escape hatch: every job runs inline
// on the submitting goroutine, in submission order, and the first error
// stops the batch — for debugging and for the determinism tests that
// compare it with a parallel engine.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrency. Zero or negative means GOMAXPROCS; 1
	// runs every job inline on the submitting goroutine, in submission
	// order. Results are byte-identical for every worker count.
	Workers int
}

// Engine executes batches of independent jobs.
type Engine struct {
	workers int
}

// New builds an engine from options.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: w}
}

// Default is the standard parallel engine: GOMAXPROCS workers.
func Default() *Engine { return New(Options{}) }

// Workers returns the concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// ForEach runs fn(0), fn(1), ..., fn(n-1), each exactly once.
//
// With one worker (or one job) jobs run inline and the first error stops
// the batch. Otherwise all jobs run to completion on at most Workers
// goroutines and the outcome of the lowest failing index is surfaced —
// an error is returned, a panic is re-raised on the submitting goroutine
// with its original value. That is the same outcome an inline run would
// have produced, since inline execution stops at exactly that job.
func (e *Engine) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if e.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	// panics[i] is job i's recovered panic value; the runtime turns
	// panic(nil) into *runtime.PanicNilError, so non-nil means panicked.
	panics := make([]any, n)
	var next atomic.Int64
	workers := e.workers
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = runJob(fn, i, &panics[i])
			}
		}()
	}
	wg.Wait()

	// Surface the lowest failing index's outcome — panic or error,
	// whichever that job had — since that is exactly where an inline
	// (one-worker) run would have stopped. A job has either a panic or an error,
	// never both (runJob's recover abandons fn's return value).
	for i := 0; i < n; i++ {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// runJob executes one job, capturing a panic instead of tearing down the
// worker goroutine (which would kill the process before the submitting
// goroutine could re-raise the panic deterministically).
func runJob(fn func(int) error, i int, pan *any) error {
	defer func() {
		if r := recover(); r != nil {
			*pan = r
		}
	}()
	return fn(i)
}

// Map runs fn over every item with the engine's concurrency and returns
// the results in input order — the deterministic-assembly primitive the
// harness builds its tables on.
func Map[T, R any](e *Engine, items []T, fn func(T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	err := e.ForEach(len(items), func(i int) error {
		r, err := fn(items[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
