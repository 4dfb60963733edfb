// Session lifecycle edge cases, driven deterministically over an
// in-memory pipe listener: client disconnect mid-stream, slow-reader
// backpressure, write-stall detection, and graceful drain — each with
// goroutine-leak accounting. One closed-loop probe at the cap runs over
// TCP, since it is about real reconnect timing.
package serve_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adhocrace/internal/serve"
	"adhocrace/internal/serve/client"
)

// nextErr reads one frame without failing the test — for readers that run
// off the test goroutine or expect the stream to end.
func (s *rawSession) nextErr() (*serve.Frame, error) {
	s.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	return serve.ReadFrame(s.br)
}

// pipeServer starts a server on an in-memory listener.
func pipeServer(t *testing.T, cfg serve.Config) (*serve.Server, *pipeListener) {
	t.Helper()
	srv := serve.New(cfg)
	ln := newPipeListener()
	go srv.Serve(ln)
	t.Cleanup(srv.Drain)
	return srv, ln
}

// waitFor polls until the condition holds (10s deadline).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientDisconnectMidStream: the client walks away mid-session; the
// server must cancel the run, tear the session down without leaking
// goroutines or shadow state, and account the disconnect.
func TestClientDisconnectMidStream(t *testing.T) {
	checkLeaks := leakCheck(t)
	srv, ln := pipeServer(t, serve.Config{MaxSessions: 2}.WithOutboxFrames(4))

	conn := ln.dial(t)
	s := openRaw(t, conn, serve.SessionRequest{Workload: "ww_two_threads", Tool: "spin", Repeat: 100_000})
	// Take a few frames mid-stream, then vanish.
	for i := 0; i < 6; i++ {
		s.next(t)
	}
	conn.Close()

	waitFor(t, "session teardown", func() bool { return srv.ActiveSessions() == 0 })
	waitFor(t, "disconnect accounting", func() bool {
		return srv.Snapshot().SessionsDisconnected == 1
	})
	snap := srv.Snapshot()
	if snap.SessionsCompleted != 0 {
		t.Errorf("completed = %d, want 0", snap.SessionsCompleted)
	}
	// The interrupted session must have stopped well short of its budget.
	if snap.Runs >= 100_000 {
		t.Errorf("runs = %d, session was not interrupted", snap.Runs)
	}
	srv.Drain()
	checkLeaks()
}

// TestSlowReaderBackpressure: a client that stops reading stalls its
// session at the outbox — the run makes no unbounded progress and buffers
// nothing unbounded — then completes normally once the client drains.
func TestSlowReaderBackpressure(t *testing.T) {
	checkLeaks := leakCheck(t)
	const repeat = 50
	srv, ln := pipeServer(t, serve.Config{MaxSessions: 2}.
		WithOutboxFrames(2).
		WithWriteStallTimeout(-1)) // a stalled client is the point of the test

	conn := ln.dial(t)
	s := openRaw(t, conn, serve.SessionRequest{Workload: "ww_two_threads", Tool: "spin", Repeat: repeat})

	// Read nothing. The session must advance at most outbox+writer slack
	// runs and then hold.
	waitFor(t, "first run", func() bool {
		snap := srv.Snapshot()
		return len(snap.Sessions) == 1 && snap.Sessions[0].RunsDone > 0
	})
	stable := int64(-1)
	for i := 0; i < 20; i++ {
		snap := srv.Snapshot()
		if len(snap.Sessions) != 1 {
			t.Fatalf("session vanished while stalled")
		}
		done := snap.Sessions[0].RunsDone
		if done == stable && i > 10 {
			break
		}
		stable = done
		time.Sleep(20 * time.Millisecond)
	}
	if stable >= repeat {
		t.Fatalf("runs done = %d with no reader; backpressure did not hold", stable)
	}

	// Drain the stream: every run arrives, in order, to the terminal frame.
	results := 0
	for {
		fr, err := s.nextErr()
		if err != nil {
			t.Fatalf("read after resume: %v", err)
		}
		if fr.Type != serve.FrameResult {
			continue
		}
		if fr.Result.Run != results {
			t.Fatalf("result %d arrived out of order (want %d)", fr.Result.Run, results)
		}
		results++
		if fr.Result.Last {
			break
		}
	}
	if results != repeat {
		t.Errorf("got %d results, want %d", results, repeat)
	}
	waitFor(t, "completion accounting", func() bool { return srv.Snapshot().SessionsCompleted == 1 })
	conn.Close()
	srv.Drain()
	checkLeaks()
}

// TestNoShedWhenClientsMatchCap is the closed-loop probe at the cap: as
// many clients as session slots, each opening its next session the moment
// it has read the last frame of the one before. A session hands its slot
// back before its client can read that frame, so a newcomer never finds
// the cap full of finished sessions and nothing is shed; a regression
// there fails a client's Run with a Busy error. The cap stays a strict
// bound (peak ≤ cap).
func TestNoShedWhenClientsMatchCap(t *testing.T) {
	checkLeaks := leakCheck(t)
	const clients = 2
	srv := startServer(t, serve.Config{MaxSessions: clients})
	addr := srv.Addr().String()
	req := serve.SessionRequest{Workload: "synth:3", Tool: "spin", Repeat: 4}

	deadline := time.Now().Add(time.Second)
	var sessions atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New("tcp", addr)
			for time.Now().Before(deadline) {
				if _, err := c.Run(req); err != nil {
					errs <- err
					return
				}
				sessions.Add(1)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("client session failed: %v", err)
	}

	waitFor(t, "teardown", func() bool { return srv.ActiveSessions() == 0 })
	snap := srv.Snapshot()
	if snap.SessionsShed != 0 || snap.SessionsDisconnected != 0 {
		t.Errorf("shed=%d disconnected=%d over %d sessions, want 0/0",
			snap.SessionsShed, snap.SessionsDisconnected, sessions.Load())
	}
	if snap.SessionsCompleted != sessions.Load() {
		t.Errorf("server completed %d sessions, clients finished %d", snap.SessionsCompleted, sessions.Load())
	}
	if snap.SessionsPeak > clients {
		t.Errorf("peak = %d concurrent sessions, cap is %d", snap.SessionsPeak, clients)
	}
	t.Logf("%d sessions at cap %d", sessions.Load(), clients)
	srv.Drain()
	checkLeaks()
}

// TestWriteStallEviction: a client that never reads past admission is
// declared dead once a frame write exceeds the stall budget; the session
// is torn down and accounted as a disconnect.
func TestWriteStallEviction(t *testing.T) {
	checkLeaks := leakCheck(t)
	srv, ln := pipeServer(t, serve.Config{MaxSessions: 2}.
		WithOutboxFrames(2).
		WithWriteStallTimeout(100*time.Millisecond))
	conn := ln.dial(t)
	openRaw(t, conn, serve.SessionRequest{Workload: "ww_two_threads", Tool: "spin", Repeat: 100_000})
	// Read nothing more.
	waitFor(t, "stall detection", func() bool { return srv.Snapshot().SessionsDisconnected == 1 })
	waitFor(t, "teardown", func() bool { return srv.ActiveSessions() == 0 })
	conn.Close()
	srv.Drain()
	checkLeaks()
}

// TestDrainGraceful: Drain lets the running session finish its full
// stream, refuses a late request with a draining error, and returns with
// every goroutine joined.
func TestDrainGraceful(t *testing.T) {
	checkLeaks := leakCheck(t)
	const repeat = 60
	srv, ln := pipeServer(t, serve.Config{MaxSessions: 2}.WithOutboxFrames(4))

	// A connection that will send its request only after draining starts.
	lateConn := ln.dial(t)

	conn := ln.dial(t)
	s := openRaw(t, conn, serve.SessionRequest{Workload: "ww_two_threads", Tool: "spin", Repeat: repeat})
	// Nothing reads the stream until the drain has begun: the full
	// 4-frame outbox holds the session mid-run, so Drain is certain to
	// find it running rather than already finished.
	waitFor(t, "session running", func() bool {
		snap := srv.Snapshot()
		return len(snap.Sessions) == 1 && snap.Sessions[0].RunsDone > 0
	})

	drained := make(chan struct{})
	go func() { srv.Drain(); close(drained) }()
	waitFor(t, "draining flag", func() bool { return srv.Snapshot().Draining })

	results := 0
	readerDone := make(chan error, 1)
	go func() {
		for {
			fr, err := s.nextErr()
			if err != nil {
				readerDone <- err
				return
			}
			if fr.Type == serve.FrameResult {
				results++
				if fr.Result.Last {
					readerDone <- nil
					return
				}
			}
		}
	}()

	// The late request must be refused, not queued.
	if err := serve.WriteFrame(lateConn, serve.FrameRequest,
		&serve.SessionRequest{Workload: "ww_two_threads", Tool: "spin"}); err != nil {
		t.Fatalf("late request write: %v", err)
	}
	lateConn.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr, err := serve.ReadFrame(lateConn)
	if err != nil {
		t.Fatalf("late request read: %v", err)
	}
	if fr.Type != serve.FrameError || fr.Err.Code != serve.CodeDraining {
		t.Errorf("late request got %+v, want draining error", fr)
	}
	lateConn.Close()

	// The in-flight session runs to its natural end.
	if err := <-readerDone; err != nil {
		t.Fatalf("session ended early under drain: %v", err)
	}
	if results != repeat {
		t.Errorf("got %d results under drain, want %d", results, repeat)
	}
	<-drained
	snap := srv.Snapshot()
	if snap.SessionsCompleted != 1 {
		t.Errorf("completed = %d, want 1", snap.SessionsCompleted)
	}
	conn.Close()
	checkLeaks()
}
