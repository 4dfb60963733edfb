package serve

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/fault"
	"adhocrace/internal/obs"
	"adhocrace/internal/vm"
)

// Session lifecycle.
//
// Each connection carries one session, served by three goroutines:
//
//   - the conn handler (Server.handleConn): reads the request, admits it
//     under the cap (or sheds it), executes the run itself, and joins
//     everything on the way out;
//   - the writer (writeLoop): the only goroutine that writes the conn. It
//     drains the outbox channel; the run never touches the
//     socket, so a slow or dead client can only ever block the run at the
//     outbox — which is exactly the backpressure chain we want: client
//     stalls → writer blocks → outbox fills → the warning observer blocks
//     → the run's segmented pipeline stalls. No unbounded buffering
//     anywhere.
//   - the reader watch (readWatch): clients send nothing after the
//     request, so any read result — EOF, error, or a stray byte — means
//     the client is gone; the watch cancels the session, which flips the
//     vm interrupt flag and unblocks any outbox send.
//
// Cancellation is one closed channel (cancel) plus one atomic flag (stop,
// polled by the vm each scheduling quantum). After cancellation the writer
// keeps draining the outbox — discarding frames — so the run can
// never deadlock against a dead connection, and the handler can always
// join the writer by closing the outbox.

// outFrame is one queued server-to-client frame.
type outFrame struct {
	t    FrameType
	body any
}

type session struct {
	id   uint64
	srv  *Server
	req  SessionRequest
	cfg  detect.Config
	prep *detect.Prepared
	conn net.Conn

	started time.Time
	// done is set once the run is over and the admission token returned
	// (finish).
	done atomic.Bool
	// ended guards the one terminal-outcome count (see end).
	ended atomic.Bool

	// outbox carries every frame to the writer; closed by the conn handler
	// once the run has returned.
	outbox chan outFrame
	// final holds the terminal error frame, if any. It is a dedicated
	// one-slot channel rather than an outbox send because the terminal
	// frame must never be dropped by cancellation — a canceled session's
	// client learns why from exactly this frame.
	final chan outFrame

	// cancel is closed (once) when the session should stop: client gone,
	// run failed or timed out, server shutdown. stop is the vm-facing
	// mirror the interpreter polls each scheduling quantum.
	cancel     chan struct{}
	cancelOnce sync.Once
	stop       atomic.Bool
	code       atomic.Pointer[string] // cancellation code (nil until canceled)

	writerDone chan struct{}
	readerDone chan struct{}

	// Live gauges for the metrics endpoint.
	tap       event.AtomicCounter
	runsDone  atomic.Int64
	warnCount atomic.Int64

	// obs is the session's observability handle: the server-wide
	// counters recorder by default, or a private span-recording one when
	// Config.TraceDir asks for per-session traces (rec non-nil then;
	// finishObs folds it back and writes the trace file).
	obs *obs.Pipeline
	rec *obs.Recorder
}

func newSession(srv *Server, id uint64, req SessionRequest, cfg detect.Config,
	prep *detect.Prepared, conn net.Conn) *session {
	ss := &session{
		id: id, srv: srv, req: req, cfg: cfg, prep: prep, conn: conn,
		started:    time.Now(),
		outbox:     make(chan outFrame, srv.cfg.outboxFrames),
		final:      make(chan outFrame, 1),
		cancel:     make(chan struct{}),
		writerDone: make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	if srv.cfg.TraceDir != "" {
		ss.rec = obs.NewTracing()
		ss.obs = ss.rec.Pipeline(fmt.Sprintf("session %d %s", id, req.Workload))
	} else {
		ss.obs = srv.obs.Pipeline("")
	}
	return ss
}

// finishObs folds a traced session's recorder into the server-wide one
// and writes its Chrome trace file. Called once from the conn handler
// after every session goroutine has been joined; a no-op for untraced
// sessions (their handle already points at the server recorder).
func (ss *session) finishObs() {
	if ss.rec == nil {
		return
	}
	ss.rec.FoldInto(ss.srv.obs)
	path := filepath.Join(ss.srv.cfg.TraceDir, fmt.Sprintf("trace-session-%d.json", ss.id))
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "raced: session %d trace: %v\n", ss.id, err)
		return
	}
	defer f.Close()
	if err := ss.rec.WriteTrace(f); err != nil {
		fmt.Fprintf(os.Stderr, "raced: session %d trace: %v\n", ss.id, err)
	}
}

// cancelWith stops the session: records the first cancellation code, flips
// the vm interrupt, and unblocks every cancelable wait. Idempotent; later
// codes lose.
func (ss *session) cancelWith(code string) {
	ss.cancelOnce.Do(func() {
		c := code
		ss.code.Store(&c)
		ss.stop.Store(true)
		close(ss.cancel)
	})
}

func (ss *session) canceled() bool {
	select {
	case <-ss.cancel:
		return true
	default:
		return false
	}
}

// cancelCode returns the recorded cancellation code ("" if none).
func (ss *session) cancelCode() string {
	if p := ss.code.Load(); p != nil {
		return *p
	}
	return ""
}

// send queues one frame, giving up if the session is canceled. The block
// on a full outbox is the protocol's backpressure — the stall half of the
// chain the observability layer accounts for (outbox occupancy sampled on
// every send, stall time when the queue is full).
func (ss *session) send(t FrameType, body any) bool {
	// A canceled session sends nothing more. Without this gate a frame
	// dropped on cancel could be followed by later frames that still find
	// outbox room, handing the client a self-inconsistent stream instead
	// of a terminal error.
	if ss.canceled() {
		return false
	}
	if err := ss.srv.cfg.Fault.Fire(fault.ServeOutboxSend); err != nil {
		// An injected outbox failure is a lost client: cancel like a
		// disconnect so the run unwinds through its normal exit.
		ss.cancelWith(CodeDisconnected)
		return false
	}
	ss.obs.Observe(obs.HistOutboxDepth, int64(len(ss.outbox)))
	select {
	case ss.outbox <- outFrame{t, body}:
		return true
	case <-ss.cancel:
		return false
	default:
	}
	stall := ss.obs.Start()
	select {
	case ss.outbox <- outFrame{t, body}:
		ss.obs.StageNamed(obs.TrackSession, "outbox stall", obs.HistOutboxStallNs, stall, int64(len(ss.outbox)))
		return true
	case <-ss.cancel:
		return false
	}
}

// finish ends an admitted session's run: it marks the session done and
// returns its admission token and active-session gauge. Idempotent. run
// calls it just before queueing the final result frame, so by the time a
// client can read that frame the session is done: the client closing its
// end is no disconnect (readWatch), and a client reconnecting at once
// finds its old slot free instead of being shed. The conn handler calls it
// again after run returns, and teardown once more, which covers every
// other way out of the handler, a panic included.
func (ss *session) finish() {
	if !ss.done.Swap(true) {
		ss.srv.metrics.sessionsActive.Add(-1)
		ss.srv.tokens <- struct{}{}
	}
}

// end records the session's terminal outcome in the metrics, once ("" =
// completed; later calls are no-ops). run counts a completion just before
// queueing the final result frame, together with finish, so a client that
// has read that frame finds the completion already counted; the conn
// handler counts every other outcome after run returns. A session
// canceled between the two (server shutdown, a stalled or failing writer)
// still counts as completed: all its runs finished.
func (ss *session) end(code string) {
	if ss.ended.CompareAndSwap(false, true) {
		ss.srv.metrics.sessionEnded(code)
	}
}

// setFinal stages the terminal error frame (first one wins).
func (ss *session) setFinal(code, msg string) {
	select {
	case ss.final <- outFrame{FrameError, &WireError{Code: code, Message: msg}}:
	default:
	}
}

// run executes the session's Repeat runs on the conn handler's goroutine.
// Every run gets a fresh detector over the shared Prepared; warnings
// stream through the outbox as the detector produces them, then the run's
// result frame.
func (ss *session) run() {
	// Panic containment: a panic below — an injected pipeline fault, a
	// workload bug, a detector bug — converts to a terminal internal-error
	// frame on this session; the process and every other session survive.
	// Recovering here, not at the handler's boundary, keeps the session's
	// own error frame and cancellation code.
	defer func() {
		if r := recover(); r != nil {
			ss.srv.metrics.sessionFailures.Add(1)
			ss.setFinal(CodeInternal, fmt.Sprintf("session crashed: %v", r))
			ss.cancelWith(CodeInternal)
		}
	}()
	ss.obs.Add(obs.CtrSessions, 1)
	run := 0
	opts := detect.RunOpts{
		Fault:     ss.srv.cfg.Fault,
		Obs:       ss.obs,
		Tap:       &ss.tap,
		Interrupt: &ss.stop,
		OnWarning: func(w detect.Warning) {
			ss.warnCount.Add(1)
			ss.srv.metrics.warningsStreamed.Add(1)
			ss.send(FrameWarning, wireWarning(run, w))
		},
	}
	for ; run < ss.req.Repeat; run++ {
		if ss.canceled() {
			ss.setFinal(ss.cancelCode(), "session canceled")
			return
		}
		seed := ss.req.Seed + int64(run)
		if d := ss.srv.cfg.RunTimeout; d > 0 {
			opts.Deadline = time.Now().Add(d)
		}
		span := ss.obs.BeginSpan() // trace mode only
		rep, res, err := ss.prep.Run(ss.cfg, seed, opts)
		if span != 0 {
			ss.obs.SpanNamed(obs.TrackSession, fmt.Sprintf("run %d seed %d", run, seed), span, ss.tap.Total())
		}
		if err != nil {
			switch {
			case errors.Is(err, vm.ErrInterrupted):
				ss.setFinal(ss.cancelCode(), "session canceled mid-run")
			case errors.Is(err, vm.ErrDeadline):
				ss.setFinal(CodeTimeout, fmt.Sprintf("run %d exceeded the server run timeout", run))
				ss.cancelWith(CodeTimeout)
			default:
				ss.setFinal(CodeRunFailed, err.Error())
				ss.cancelWith(CodeRunFailed)
			}
			return
		}
		ss.srv.metrics.stats.Observe(rep)
		ss.runsDone.Add(1)
		last := run == ss.req.Repeat-1
		if last {
			ss.finish()
			ss.end("")
		}
		if !ss.send(FrameResult, runResult(run, seed, rep, res, last)) {
			ss.setFinal(ss.cancelCode(), "session canceled")
			return
		}
	}
}

// writeLoop is the session's only socket writer. It drains the outbox
// until closed, then delivers the staged terminal frame, if any. After a
// write failure (or cancellation) it keeps draining but stops writing, so
// producers never block on a dead connection longer than one cancel check.
func (ss *session) writeLoop() {
	defer close(ss.writerDone)
	dead := false
	for fr := range ss.outbox {
		if dead {
			continue
		}
		if err := ss.safeWriteFrame(fr); err != nil {
			dead = true
			if errors.Is(err, os.ErrDeadlineExceeded) {
				ss.cancelWith(CodeWriteStall)
			} else {
				ss.cancelWith(CodeDisconnected)
			}
		}
	}
	select {
	case fr := <-ss.final:
		if !dead {
			// Best effort: bound the terminal write so a dead client cannot
			// stall teardown.
			ss.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			ss.safeWriteFrame(fr)
		}
	default:
	}
}

// safeWriteFrame is writeFrame with panic containment: the write path
// hosts a panic-capable failpoint and json-encodes arbitrary bodies, and
// the writer goroutine must survive to keep draining the outbox.
func (ss *session) safeWriteFrame(fr outFrame) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: frame write panic: %v", r)
		}
	}()
	return ss.writeFrame(fr)
}

// writeFrame writes one frame under the configured stall budget.
func (ss *session) writeFrame(fr outFrame) error {
	if err := ss.srv.cfg.Fault.Fire(fault.ServeFrameWrite); err != nil {
		return err
	}
	if d := ss.srv.cfg.writeStall; d > 0 {
		ss.conn.SetWriteDeadline(time.Now().Add(d))
	}
	return WriteFrame(ss.conn, fr.t, fr.body)
}

// readWatch blocks on the connection until it yields anything — data after
// the request is a protocol violation, EOF or an error means the client is
// gone — and cancels the session. The handler closes the conn at teardown,
// which unblocks this read. Once the session is done (finish) a closed
// client has everything it asked for, so nothing is canceled: the writer
// still reports a client that vanished before its last frame was written.
func (ss *session) readWatch() {
	defer close(ss.readerDone)
	var buf [1]byte
	ss.conn.Read(buf[:])
	if !ss.done.Load() {
		ss.cancelWith(CodeDisconnected)
	}
}
