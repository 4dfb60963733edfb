// Package event defines the runtime event stream produced by the vm and
// consumed by race detectors, and the stream plumbing built on it: sink
// composition (Multi), recording and replay (Trace, TraceWriter), and the
// double-buffered segments (Segmented) that overlap event production — the
// vm, or a trace replay — with detection.
//
// The stream is the moral equivalent of what Valgrind hands Helgrind+: a
// totally ordered sequence of memory accesses, thread lifecycle operations,
// intercepted high-level synchronization calls, and — when the spin-loop
// instrumentation is active — spin-read and spin-exit marks.
package event

import (
	"sync/atomic"

	"adhocrace/internal/ir"
)

// Tid identifies a thread. The main thread is 0; spawned threads get
// consecutive ids.
type Tid int

// Kind discriminates events.
type Kind uint8

// Event kinds.
const (
	// KindRead / KindWrite are plain memory accesses.
	KindRead Kind = iota
	KindWrite
	// KindAtomicRead / KindAtomicWrite are atomic accesses (atomic loads,
	// stores, and the read/write halves of CAS and fetch-add).
	KindAtomicRead
	KindAtomicWrite
	// KindSyncPre / KindSyncPost bracket an intercepted library call.
	// Pre fires before the callee body runs, Post after it returns.
	KindSyncPre
	KindSyncPost
	// KindSpawn: the current thread created thread Child.
	KindSpawn
	// KindJoin: the current thread joined thread Child.
	KindJoin
	// KindThreadStart / KindThreadExit delimit a thread's lifetime.
	KindThreadStart
	KindThreadExit
	// KindSpinRead marks a load that feeds the condition of an
	// instrumented spinning read loop (instrumentation-phase mark).
	KindSpinRead
	// KindSpinExit marks a thread leaving an instrumented spinning read
	// loop through one of its exit branches.
	KindSpinExit
)

var kindNames = [...]string{
	KindRead: "read", KindWrite: "write",
	KindAtomicRead: "atomic-read", KindAtomicWrite: "atomic-write",
	KindSyncPre: "sync-pre", KindSyncPost: "sync-post",
	KindSpawn: "spawn", KindJoin: "join",
	KindThreadStart: "thread-start", KindThreadExit: "thread-exit",
	KindSpinRead: "spin-read", KindSpinExit: "spin-exit",
}

// String returns the event kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(?)"
}

// IsAccess reports whether the kind is a memory access.
func (k Kind) IsAccess() bool { return k <= KindAtomicWrite }

// IsWrite reports whether the kind writes memory.
func (k Kind) IsWrite() bool { return k == KindWrite || k == KindAtomicWrite }

// IsAtomic reports whether the kind is an atomic access.
func (k Kind) IsAtomic() bool { return k == KindAtomicRead || k == KindAtomicWrite }

// Event is one element of the runtime stream. Field meaning depends on Kind:
//
//   - accesses: Addr, Value (value read or written), Sym, Loc
//   - sync pre/post: Sync (semantic kind), Addr (primitive address),
//     Addr2 (second primitive, e.g. the mutex of a cond-wait), Loc
//   - spawn/join: Child
//   - spin-read: SpinLoop, Addr, Value, Loc (also emitted as a plain access)
//   - spin-exit: SpinLoop
//
// The struct is deliberately pointer-free: Sym and Loc are interned ids
// resolved against the program's ir.Interning table (strings are
// materialized only when a warning is formatted), so segment buffers are
// GC-scan-free slabs and an Event copy is a plain 56-byte
// move with no write barriers. Field order packs the struct; keep the
// int64s first when adding fields.
type Event struct {
	Addr  int64
	Addr2 int64
	Value int64
	Tid   Tid
	Child Tid
	// SpinLoop is the instrumentation-assigned loop id, valid for
	// KindSpinRead/KindSpinExit.
	SpinLoop int32
	// Sym is the interned static symbol of the access (ir.NoSym when the
	// address is computed); Loc the interned source location.
	Sym  ir.SymID
	Loc  ir.LocID
	Kind Kind
	Sync ir.SyncKind
	// RMW marks the write half of a read-modify-write atomic (CAS,
	// fetch-and-add). RMW writes extend the release history of their
	// location instead of replacing it (a release sequence).
	RMW bool
}

// Sink consumes the event stream. Implementations must not retain the Event
// pointer past the call.
type Sink interface {
	Handle(ev *Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(ev *Event)

// Handle calls f.
func (f SinkFunc) Handle(ev *Event) { f(ev) }

// Multi fans an event out to several sinks in order. The returned sink
// forwards Flush to every member that implements Flusher.
func Multi(sinks ...Sink) Sink {
	return multiSink(sinks)
}

// Counter is a Sink that tallies events by kind; used by the performance
// figures to report instrumentation load.
type Counter struct {
	ByKind [KindSpinExit + 1]int64
	Total  int64
}

// Handle tallies the event.
func (c *Counter) Handle(ev *Event) {
	c.ByKind[ev.Kind]++
	c.Total++
}

// AtomicCounter is the concurrency-safe sibling of Counter: a Sink whose
// running total may be read while the stream is still being produced. The
// race-detection server taps every session's stream with one so its metrics
// endpoint can report live per-session progress; Counter stays the cheap
// single-goroutine choice for post-run figures.
type AtomicCounter struct {
	total atomic.Int64
}

// Handle tallies the event.
func (c *AtomicCounter) Handle(ev *Event) { c.total.Add(1) }

// Total returns the events observed so far; safe concurrently with Handle.
func (c *AtomicCounter) Total() int64 { return c.total.Load() }
