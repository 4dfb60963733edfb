// Package serve implements raced, the race-detection server: a
// long-running process that accepts workload requests over a
// length-prefixed wire protocol (see protocol.go), runs each session on
// its own detector instance over a process-wide compiled-workload cache,
// and streams race reports back incrementally as the detector produces
// them. Each session runs on its connection's goroutine; a configurable
// cap bounds concurrent sessions, with evict-oldest admission when full.
// Detection inside a session is byte-identical to a direct Prepared.Run —
// the conformance suite holds the server to exactly that bar.
package serve

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/fault"
	"adhocrace/internal/obs"
)

// Config parameterizes a Server. The zero value serves on a default TCP
// address with library defaults for every knob. No field shapes a
// session's pipeline: like every detector, a session's runs overlap once
// their stream is long and run the shadow GC every detect.GCPeriod
// events, which keeps a long-lived server's shadow state bounded.
type Config struct {
	// Network/Addr locate the protocol listener ("tcp" or "unix";
	// default tcp 127.0.0.1:7334).
	Network string
	Addr    string
	// MetricsAddr, when non-empty, serves the HTTP metrics endpoint
	// (always tcp).
	MetricsAddr string

	// MaxSessions caps concurrently running sessions (default 64). At the
	// cap, a new session evicts the oldest running one. A session stops
	// counting once it has queued its final result frame.
	MaxSessions int
	// outboxFrames bounds each session's outgoing frame queue (64); a full
	// outbox is the backpressure that stalls the session's vm.
	outboxFrames int
	// writeStall declares a client dead when one frame write blocks this
	// long (60s). Tests shrink both (export_test.go); a negative stall
	// disables the check.
	writeStall time.Duration
	// RunTimeout bounds each run's wall-clock time (detect.RunOpts.
	// Deadline, polled by the vm alongside the interrupt flag). A run that
	// exceeds it ends the session with a CodeTimeout error frame. 0 (the
	// default) disables the deadline.
	RunTimeout time.Duration

	// Shed switches admission at the session cap from evict-oldest to load
	// shedding: a request arriving with no free session slot — or, with
	// MemoryBudgetBytes set, while heap occupancy exceeds the budget — is
	// answered with a retryable Busy frame and the connection closed,
	// instead of evicting the oldest running session. Running sessions are
	// never disturbed under this policy; the client Retry helper turns the
	// Busy into capped backoff.
	Shed bool
	// MemoryBudgetBytes, with Shed, adds a heap-occupancy gate to
	// admission: requests are shed while the process's heap-in-use exceeds
	// the budget, even when session slots are free. 0 disables the gate.
	// (Eviction would not help here — cancelling a session frees its
	// memory only after GC — so the budget sheds rather than evicts under
	// either policy's cap handling.)
	MemoryBudgetBytes int64

	// Fault, when non-nil, arms the server's and every session pipeline's
	// named failpoints (internal/fault) — the chaos suite's injection
	// handle. Nil (the default, and the only production configuration
	// unless -failpoints asks otherwise) keeps every site a nil-check.
	Fault *fault.Registry

	// TraceDir, when non-empty, gives every session a span-recording
	// observability pipeline and writes its Chrome trace-event JSON to
	// TraceDir/trace-session-<id>.json at session end (the directory must
	// exist). Counters and histograms still fold into the server-wide
	// recorder, so the metrics endpoint sees traced sessions too. Empty
	// (the default) keeps sessions on the shared counters-only recorder —
	// no span buffering, no files.
	TraceDir string
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.Network == "" {
		c.Network = "tcp"
	}
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7334"
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.outboxFrames <= 0 {
		c.outboxFrames = 64
	}
	if c.writeStall == 0 {
		c.writeStall = 60 * time.Second
	} else if c.writeStall < 0 {
		c.writeStall = 0
	}
	return c
}

// Server is the raced server. Create with New, serve with Start (own
// listeners) or Serve (caller-provided listener — how tests drive it),
// stop with Drain or Close.
type Server struct {
	cfg     Config
	cache   *preparedCache
	metrics *Metrics
	// obs is the process-wide counters+histograms recorder every session
	// records into (always on: the pipeline stall and outbox gauges are
	// part of the metrics endpoint). Span recording happens only on the
	// per-session recorders Config.TraceDir enables.
	obs *obs.Recorder

	// tokens is the admission semaphore: one token per running session.
	tokens chan struct{}

	// memSampledAt/memHeap cache the heap-occupancy gauge behind the shed
	// gate — ReadMemStats stops the world briefly, so admission samples it
	// at most once per memSampleInterval.
	memSampledAt atomic.Int64
	memHeap      atomic.Int64

	mu        sync.Mutex
	sessions  map[uint64]*session
	nextID    uint64
	draining  bool
	lns       []net.Listener
	protoLn   net.Listener
	metricsLn net.Listener
	hsrv      *http.Server

	// connWG tracks connection handlers; serveWG tracks accept loops and
	// the metrics server.
	connWG  sync.WaitGroup
	serveWG sync.WaitGroup
}

// New builds a server. It starts no goroutines until Start or Serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    newPreparedCache(cfg.Fault),
		metrics:  newMetrics(),
		obs:      obs.New(),
		tokens:   make(chan struct{}, cfg.MaxSessions),
		sessions: make(map[uint64]*session),
	}
	for i := 0; i < cfg.MaxSessions; i++ {
		s.tokens <- struct{}{}
	}
	return s
}

// Start listens per the config — the protocol listener, plus the metrics
// endpoint when configured — and serves in background goroutines. It
// returns once both listeners are bound (so Addr is valid).
func (s *Server) Start() error {
	ln, err := net.Listen(s.cfg.Network, s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("raced: listen %s %s: %w", s.cfg.Network, s.cfg.Addr, err)
	}
	s.mu.Lock()
	s.protoLn = ln
	s.mu.Unlock()
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		s.Serve(ln)
	}()
	if s.cfg.MetricsAddr != "" {
		mln, err := net.Listen("tcp", s.cfg.MetricsAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("raced: metrics listen %s: %w", s.cfg.MetricsAddr, err)
		}
		hsrv := &http.Server{Handler: s.MetricsHandler()}
		s.mu.Lock()
		s.hsrv = hsrv
		s.metricsLn = mln
		s.lns = append(s.lns, mln)
		s.mu.Unlock()
		s.serveWG.Add(1)
		go func() {
			defer s.serveWG.Done()
			hsrv.Serve(mln)
		}()
	}
	return nil
}

// Addr returns the protocol listener's address (nil before Start/Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.protoLn == nil {
		return nil
	}
	return s.protoLn.Addr()
}

// MetricsAddr returns the metrics listener's address (nil when no metrics
// endpoint is configured).
func (s *Server) MetricsAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.metricsLn == nil {
		return nil
	}
	return s.metricsLn.Addr()
}

// Serve accepts sessions on ln until the listener closes (Drain/Close) or
// fails. Tests hand it in-memory listeners for deterministic lifecycle
// coverage.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("raced: server is draining")
	}
	s.lns = append(s.lns, ln)
	if s.protoLn == nil {
		s.protoLn = ln
	}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			return err
		}
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ActiveSessions counts registered sessions (pending or running).
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// handleConn serves one connection = one session, joining every session
// goroutine before it returns — the no-leak invariant the lifecycle tests
// assert. It is also the process's panic containment boundary: nothing a
// single connection does — a garbage frame, a workload that panics at
// build time, an injected fault anywhere below — may take down the
// server or any other session.
func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	defer conn.Close()
	// Registered before conn.Close so the recovery path can still answer
	// the client best-effort. When the session exists, its teardown defer
	// (registered later, so it runs first) has already joined every
	// session goroutine by the time this fires — panics convert to a
	// counted failure, never to a leak.
	defer func() {
		if r := recover(); r != nil {
			s.metrics.sessionFailures.Add(1)
			s.rejectConn(conn, CodeInternal, fmt.Sprintf("internal error: %v", r))
		}
	}()

	if err := s.cfg.Fault.Fire(fault.ServeAccept); err != nil {
		s.metrics.sessionsRejected.Add(1)
		s.rejectConn(conn, CodeInternal, err.Error())
		return
	}

	// The request must arrive promptly; a connection that never sends one
	// must not hold resources.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if err := s.cfg.Fault.Fire(fault.ServeFrameRead); err != nil {
		s.metrics.sessionsRejected.Add(1)
		s.rejectConn(conn, CodeInternal, err.Error())
		return
	}
	req, err := readRequest(conn)
	if err != nil {
		s.metrics.sessionsRejected.Add(1)
		s.rejectConn(conn, CodeBadRequest, err.Error())
		return
	}
	conn.SetReadDeadline(time.Time{})

	if err := normalize(req); err != nil {
		s.metrics.sessionsRejected.Add(1)
		s.rejectConn(conn, CodeBadRequest, err.Error())
		return
	}
	cfg, err := detect.Preset(req.Tool, req.Window)
	if err != nil {
		s.metrics.sessionsRejected.Add(1)
		s.rejectConn(conn, CodeBadRequest, err.Error())
		return
	}
	prep, err := s.cache.get(req.Workload)
	if err != nil {
		s.metrics.sessionsRejected.Add(1)
		code := CodeBadRequest
		if errors.Is(err, fault.ErrInjected) {
			code = CodeInternal
		}
		s.rejectConn(conn, code, err.Error())
		return
	}

	// Shed-policy admission happens before the session exists: saturation
	// answers a retryable Busy frame instead of evicting a running victim.
	preAdmitted := false
	if s.cfg.Shed {
		ok, reason := s.shedAdmit()
		if !ok {
			s.metrics.sessionsShed.Add(1)
			s.rejectBusy(conn, reason)
			return
		}
		preAdmitted = true
	}

	// Register. Under drain no new sessions start.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		if preAdmitted {
			s.tokens <- struct{}{}
		}
		s.metrics.sessionsRejected.Add(1)
		s.rejectConn(conn, CodeDraining, "server is draining")
		return
	}
	s.nextID++
	ss := newSession(s, s.nextID, *req, cfg, prep, conn)
	s.sessions[ss.id] = ss
	s.mu.Unlock()

	go ss.writeLoop()
	go ss.readWatch()
	// Teardown is deferred from the moment the session's goroutines exist:
	// even a panic unwinding this handler leaves nothing behind.
	defer s.teardown(ss, conn)
	ss.send(FrameAccepted, &Accepted{SessionID: ss.id, Workload: req.Workload, Config: cfg.Name})

	if preAdmitted || s.admit(ss) {
		s.metrics.sessionStarted()
		ss.run()
		ss.finish()
		ss.end(ss.cancelCode())
	} else {
		// Canceled while waiting for admission (client gone or shutdown).
		ss.setFinal(ss.cancelCode(), "session canceled before admission")
		s.metrics.sessionsRejected.Add(1)
	}
}

// teardown unwinds a session: mark done (readWatch stops counting
// disconnects; already so after finish), drop the session from the
// registry, join the writer, close the conn (which unblocks the reader),
// join the reader. Runs deferred, so it completes even when the handler
// panics — and the teardown failpoint is contained right here for the
// same reason: an injected teardown panic must not skip the joins below
// it.
func (s *Server) teardown(ss *session, conn net.Conn) {
	func() {
		defer func() {
			if r := recover(); r != nil {
				s.metrics.sessionFailures.Add(1)
			}
		}()
		if err := s.cfg.Fault.Fire(fault.ServeTeardown); err != nil {
			panic(err)
		}
	}()
	ss.state.Store(stateDone)
	s.mu.Lock()
	delete(s.sessions, ss.id)
	s.mu.Unlock()
	close(ss.outbox)
	<-ss.writerDone
	conn.Close()
	<-ss.readerDone
	ss.finishObs()
}

// shedAdmit is the non-blocking admission gate of the shed policy: the
// memory budget first (a full heap is not cured by evicting — see
// Config.MemoryBudgetBytes), then a token grab that refuses to wait.
func (s *Server) shedAdmit() (ok bool, reason string) {
	if s.memOverBudget() {
		return false, "memory budget"
	}
	select {
	case <-s.tokens:
		return true, ""
	default:
		return false, "session budget"
	}
}

// memSampleInterval caps how often the shed gate re-reads MemStats.
const memSampleInterval = 100 * time.Millisecond

// memOverBudget samples heap occupancy against the configured budget,
// refreshing the cached gauge at most once per memSampleInterval.
func (s *Server) memOverBudget() bool {
	if s.cfg.MemoryBudgetBytes <= 0 {
		return false
	}
	now := time.Now().UnixNano()
	if last := s.memSampledAt.Load(); now-last >= int64(memSampleInterval) &&
		s.memSampledAt.CompareAndSwap(last, now) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.memHeap.Store(int64(ms.HeapInuse))
	}
	return s.memHeap.Load() > s.cfg.MemoryBudgetBytes
}

// busyRetryAfterMs is the backoff hint sent with a Busy rejection.
const busyRetryAfterMs = 200

// rejectBusy sheds a connection with a retryable Busy frame.
func (s *Server) rejectBusy(conn net.Conn, reason string) {
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	WriteFrame(conn, FrameBusy, &Busy{
		RetryAfterMs:   busyRetryAfterMs,
		ActiveSessions: int64(s.ActiveSessions()),
		Reason:         reason,
	})
}

// rejectConn answers a connection that never became a session.
func (s *Server) rejectConn(conn net.Conn, code, msg string) {
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	WriteFrame(conn, FrameError, &WireError{Code: code, Message: msg})
}

// normalize validates and defaults a request in place.
func normalize(req *SessionRequest) error {
	if req.Workload == "" {
		return fmt.Errorf("empty workload name")
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Repeat <= 0 {
		req.Repeat = 1
	}
	if req.Repeat > 1_000_000 {
		return fmt.Errorf("repeat %d out of range", req.Repeat)
	}
	return nil
}

// admit blocks until the session holds an admission token or is canceled.
// At the cap it evicts the oldest running session and waits for the freed
// token — the cap stays a strict bound; the newcomer starts only after the
// victim's run has fully stopped.
func (s *Server) admit(ss *session) bool {
	for {
		select {
		case <-s.tokens:
			return true
		case <-ss.cancel:
			return false
		default:
		}
		s.evictOldest()
		select {
		case <-s.tokens:
			return true
		case <-ss.cancel:
			return false
		}
	}
}

// evictOldest cancels the oldest (lowest-id) running session not already
// chosen for eviction. If every running session is already on its way out,
// it does nothing — the caller blocks on the token those evictions will
// free.
func (s *Server) evictOldest() {
	s.mu.Lock()
	var victim *session
	for _, ss := range s.sessions {
		if ss.evicted || ss.state.Load() != stateRunning {
			continue
		}
		if victim == nil || ss.id < victim.id {
			victim = ss
		}
	}
	if victim != nil {
		victim.evicted = true
	}
	s.mu.Unlock()
	if victim != nil {
		victim.cancelWith(CodeEvicted)
	}
}

// Drain stops the server gracefully: stop accepting, let every admitted
// session run to completion, then tear down the metrics endpoint. Safe to
// call more than once.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.connWG.Wait()
		return
	}
	s.draining = true
	lns := s.lns
	hsrv := s.hsrv
	s.mu.Unlock()

	for _, ln := range lns {
		ln.Close()
	}
	s.connWG.Wait()
	if hsrv != nil {
		hsrv.Close()
	}
	s.serveWG.Wait()
}

// Close stops the server hard: every session is canceled (clients get a
// shutdown error frame), then the Drain path runs.
func (s *Server) Close() {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		sessions = append(sessions, ss)
	}
	s.mu.Unlock()
	for _, ss := range sessions {
		ss.cancelWith(CodeShutdown)
	}
	s.Drain()
}
