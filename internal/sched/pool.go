package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the streaming counterpart of Engine.ForEach: a set of long-lived
// workers, each with its own FIFO job queue. Where ForEach runs a batch of
// independent jobs on any free worker, Pool gives the caller *placement*:
// jobs submitted to the same worker run serially, in submission order, while
// different workers run concurrently. The server places its independent
// detection sessions with SubmitBalanced.
type Pool struct {
	queues []chan func()
	wg     sync.WaitGroup
	// inflight counts, per worker, jobs submitted through SubmitBalanced
	// that have not yet finished — the load signal balanced placement uses.
	inflight []atomic.Int64

	// panicked holds the first panic value recovered from a job, re-raised
	// on the submitting goroutine by Check or Close. Workers recover and
	// keep draining so queued Submit calls never block on a dead worker.
	mu       sync.Mutex
	panicked any
	hasPanic bool
}

// queueDepth bounds how many jobs may queue per worker before Submit
// blocks. It is back-pressure, not a correctness knob: deep queues let a
// fast producer build up a large in-flight working set (and garbage) for
// no throughput gain, so the bound is kept small.
const queueDepth = 8

// NewPool starts a pool of the given number of workers (GOMAXPROCS when
// zero or negative).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{queues: make([]chan func(), workers), inflight: make([]atomic.Int64, workers)}
	for i := range p.queues {
		q := make(chan func(), queueDepth)
		p.queues[i] = q
		p.wg.Add(1)
		go p.work(q)
	}
	return p
}

func (p *Pool) work(q chan func()) {
	defer p.wg.Done()
	for job := range q {
		p.run(job)
	}
}

func (p *Pool) run(job func()) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if !p.hasPanic {
				p.panicked, p.hasPanic = r, true
			}
			p.mu.Unlock()
		}
	}()
	job()
}

// Workers returns the number of workers.
func (p *Pool) Workers() int { return len(p.queues) }

// Submit enqueues a job on one worker's queue. Jobs submitted to the same
// worker run serially in submission order. Blocks when that worker's queue
// is full.
func (p *Pool) Submit(worker int, job func()) {
	p.queues[worker%len(p.queues)] <- job
}

// SubmitBalanced enqueues a job on the currently least-loaded worker and
// returns the worker chosen. Placement, not order, is the contract here —
// jobs submitted this way are independent of each other (the server's
// detection sessions), so the per-worker FIFO guarantee Submit callers rely
// on is irrelevant and the pool is free to spread long-running jobs away
// from busy queues. Load is the number of balanced jobs submitted to a
// worker and not yet finished; the scan is racy against finishing jobs,
// which can only make the choice stale, never wrong.
func (p *Pool) SubmitBalanced(job func()) int {
	best := 0
	bestLoad := p.inflight[0].Load()
	for i := 1; i < len(p.inflight); i++ {
		if n := p.inflight[i].Load(); n < bestLoad {
			best, bestLoad = i, n
		}
	}
	p.inflight[best].Add(1)
	p.queues[best] <- func() {
		defer p.inflight[best].Add(-1)
		job()
	}
	return best
}

// Check re-raises the first panic recovered from a job, if any, so a
// crashing job surfaces on the submitting goroutine instead of vanishing.
func (p *Pool) Check() {
	p.mu.Lock()
	r, ok := p.panicked, p.hasPanic
	p.mu.Unlock()
	if ok {
		panic(r)
	}
}

// Close stops all workers after their queues drain, then re-raises any job
// panic. The pool must not be used after Close.
func (p *Pool) Close() {
	for _, q := range p.queues {
		close(q)
	}
	p.wg.Wait()
	p.Check()
}
