// Hardening contracts: panic isolation between concurrent sessions,
// garbage-frame rejection, per-run deadlines, overload shedding with
// retryable Busy frames, the retrying client's resume math, and the
// client-side frame deadline. The isolation tests run over net.Pipe so a
// crashing session and a healthy one share one deterministic server.
package serve_test

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/fault"
	"adhocrace/internal/harness"
	"adhocrace/internal/serve"
	"adhocrace/internal/serve/client"
)

// rawOutcome drains a raw session to its terminal frame, reassembling run
// outcomes. Safe off the test goroutine.
func rawOutcome(s *rawSession) ([]client.RunOutcome, error) {
	var runs []client.RunOutcome
	var warnings []serve.WireWarning
	for {
		fr, err := s.nextErr()
		if err != nil {
			return runs, err
		}
		switch fr.Type {
		case serve.FrameWarning:
			warnings = append(warnings, *fr.Warning)
		case serve.FrameResult:
			runs = append(runs, client.RunOutcome{Result: *fr.Result, Warnings: warnings})
			warnings = nil
			if fr.Result.Last {
				return runs, nil
			}
		case serve.FrameError:
			return runs, fr.Err
		default:
			return runs, fmt.Errorf("unexpected frame %c", byte(fr.Type))
		}
	}
}

// TestPanicIsolationConcurrentSessions: a session whose pipeline panics
// (injected at segment rotation) must die with a terminal internal-error
// frame while a concurrently admitted healthy session on the same server
// completes byte-identical to a direct run.
func TestPanicIsolationConcurrentSessions(t *testing.T) {
	checkLeaks := leakCheck(t)
	reg := fault.New()
	// The victim is the only session whose stream is long enough to start
	// the segment pipeline, so the one armed rotation fault cannot land on
	// the healthy session.
	if err := reg.Arm(fault.SegmentRotate, fault.ModePanic, 0, 1); err != nil {
		t.Fatal(err)
	}
	srv, ln := pipeServer(t, serve.Config{MaxSessions: 4, Fault: reg})

	healthyConn := ln.dial(t)
	healthy := openRaw(t, healthyConn, serve.SessionRequest{Workload: "synth:5", Tool: "spin", Seed: 1, Repeat: 2})
	victimConn := ln.dial(t)
	victim := openRaw(t, victimConn, serve.SessionRequest{Workload: longStream, Tool: "spin", Seed: 1})

	type res struct {
		runs []client.RunOutcome
		err  error
	}
	victimCh := make(chan res, 1)
	go func() {
		runs, err := rawOutcome(victim)
		victimCh <- res{runs, err}
	}()

	runs, err := rawOutcome(healthy)
	if err != nil {
		t.Fatalf("healthy session: %v", err)
	}
	if len(runs) != 2 {
		t.Fatalf("healthy session: %d runs, want 2", len(runs))
	}
	for i, r := range runs {
		rep, err := r.Report()
		if err != nil {
			t.Fatalf("healthy run %d: %v", i, err)
		}
		want := directFingerprint(t, "synth:5", detect.HelgrindPlusLibSpin(7), int64(1+i), detect.RunOpts{})
		if got := harness.ReportFingerprint(rep); got != want {
			t.Errorf("healthy run %d differs from direct run next to a crashing session", i)
		}
	}

	v := <-victimCh
	var we *serve.WireError
	if !errors.As(v.err, &we) || we.Code != serve.CodeInternal {
		t.Fatalf("victim error = %v, want wire code %s", v.err, serve.CodeInternal)
	}
	healthyConn.Close()
	victimConn.Close()
	waitFor(t, "panic counted", func() bool { return srv.Snapshot().SessionFailures == 1 })
	waitFor(t, "sessions gone", func() bool { return srv.ActiveSessions() == 0 })
	srv.Drain()
	checkLeaks()
}

// TestGarbageFrameIsolation: every class of malformed request — corrupt
// length word, oversized length word, unknown frame type, non-JSON body,
// truncated frame — gets a clean rejection (or a plain close where no
// answer is possible) without disturbing a healthy concurrent session or
// leaking its goroutines.
func TestGarbageFrameIsolation(t *testing.T) {
	checkLeaks := leakCheck(t)
	srv, ln := pipeServer(t, serve.Config{MaxSessions: 4})

	healthyConn := ln.dial(t)
	healthy := openRaw(t, healthyConn, serve.SessionRequest{Workload: "synth:5", Tool: "spin", Seed: 1})
	want := directFingerprint(t, "synth:5", detect.HelgrindPlusLibSpin(7), 1, detect.RunOpts{})

	frame := func(typ byte, body []byte) []byte {
		buf := make([]byte, 4+1+len(body))
		binary.BigEndian.PutUint32(buf, uint32(1+len(body)))
		buf[4] = typ
		return append(buf[:5], body...)
	}
	// accepted marks a case that is no garbage at all: the server must
	// admit it and run it to the end.
	const accepted = "accepted"
	cases := []struct {
		name string
		raw  []byte
		// wantCode is the expected rejection; "" means the server cannot
		// answer (the garbage broke framing mid-read) and just closes.
		wantCode string
	}{
		{"corrupt length word", []byte{0xff, 0xff, 0xff, 0xff, 'Q'}, serve.CodeBadRequest},
		{"zero length word", []byte{0, 0, 0, 0, 'Q'}, serve.CodeBadRequest},
		// In range for the general frame limit but far past any real
		// request: must be rejected from the header, before allocation.
		{"oversized request", append([]byte{0, 1, 0, 0}, make([]byte, 64)...), serve.CodeBadRequest},
		{"unknown frame type", frame('Z', []byte(`{}`)), serve.CodeBadRequest},
		{"response-typed frame", frame(byte(serve.FrameWarning), []byte(`{}`)), serve.CodeBadRequest},
		{"non-JSON body", frame(byte(serve.FrameRequest), []byte("not json")), serve.CodeBadRequest},
		{"truncated frame", []byte{0, 0, 1, 0, 'Q', '{'}, ""},
		// An older client's request still carrying the retired
		// adaptive-segments knob: the lenient decoder ignores the field.
		{"retired adaptive_segments field", frame(byte(serve.FrameRequest),
			[]byte(`{"workload":"synth:5","tool":"spin","overlap":true,"adaptive_segments":true}`)), accepted},
		// The retired shards knob, in and beyond its old 0..256 range: the
		// lenient decoder ignores it like adaptive_segments.
		{"retired shards field", frame(byte(serve.FrameRequest),
			[]byte(`{"workload":"synth:5","tool":"spin","shards":2}`)), accepted},
		{"retired shards field out of its old range", frame(byte(serve.FrameRequest),
			[]byte(`{"workload":"synth:5","tool":"spin","shards":1000}`)), accepted},
		// The retired overlap knobs: stream length picks the pipeline now,
		// so both fields are ignored, segment_events also beyond its old
		// 1<<20 bound.
		{"retired overlap field", frame(byte(serve.FrameRequest),
			[]byte(`{"workload":"synth:5","tool":"spin","overlap":true}`)), accepted},
		{"retired segment_events field", frame(byte(serve.FrameRequest),
			[]byte(`{"workload":"synth:5","tool":"spin","segment_events":64}`)), accepted},
		{"retired segment_events field out of its old range", frame(byte(serve.FrameRequest),
			[]byte(`{"workload":"synth:5","tool":"spin","overlap":true,"segment_events":2097152}`)), accepted},
		// The retired GC period: every detector cycles at detect.GCPeriod
		// now, so the field is ignored, also beyond its old 1<<20 bound.
		{"retired gc_events field", frame(byte(serve.FrameRequest),
			[]byte(`{"workload":"synth:5","tool":"spin","gc_events":64}`)), accepted},
		{"retired gc_events field out of its old range", frame(byte(serve.FrameRequest),
			[]byte(`{"workload":"synth:5","tool":"spin","gc_events":2097152}`)), accepted},
	}
	for _, tc := range cases {
		conn := ln.dial(t)
		// net.Pipe writes are synchronous rendezvous: a server that rejects
		// from the header alone never consumes the rest, so the write must
		// not share the reading goroutine.
		wrote := make(chan struct{})
		go func() {
			conn.Write(tc.raw)
			close(wrote)
		}()
		s := &rawSession{conn: conn, br: bufio.NewReader(conn)}
		if tc.wantCode == accepted {
			if fr, err := s.nextErr(); err != nil || fr.Type != serve.FrameAccepted {
				t.Fatalf("%s: want accepted frame, got %v (err %v)", tc.name, fr, err)
			}
			runs, err := rawOutcome(s)
			if err != nil || len(runs) != 1 {
				t.Fatalf("%s: runs=%d err=%v", tc.name, len(runs), err)
			}
			rep, err := runs[0].Report()
			if err != nil {
				t.Fatal(err)
			}
			if harness.ReportFingerprint(rep) != want {
				t.Errorf("%s: report differs from the direct run", tc.name)
			}
			conn.Close()
			continue
		}
		if tc.wantCode == "" {
			// The server cannot answer a stream that dies mid-frame; it just
			// hangs up. Sever after the bytes are through and expect nothing.
			<-wrote
			conn.Close()
		} else {
			fr, err := s.nextErr()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if fr.Type != serve.FrameError || fr.Err.Code != tc.wantCode {
				t.Errorf("%s: got frame %c (%v), want error code %s", tc.name, byte(fr.Type), fr.Err, tc.wantCode)
			}
			if _, err := s.nextErr(); err == nil {
				t.Errorf("%s: connection stayed open past the terminal error", tc.name)
			}
			conn.Close()
		}
	}

	// The healthy session, opened before the garbage storm, finishes
	// byte-identical.
	runs, err := rawOutcome(healthy)
	if err != nil || len(runs) != 1 {
		t.Fatalf("healthy session: runs=%d err=%v", len(runs), err)
	}
	rep, err := runs[0].Report()
	if err != nil {
		t.Fatal(err)
	}
	if harness.ReportFingerprint(rep) != want {
		t.Errorf("healthy session differs from direct run amid garbage connections")
	}
	healthyConn.Close()
	waitFor(t, "sessions gone", func() bool { return srv.ActiveSessions() == 0 })
	srv.Drain()
	checkLeaks()
}

// TestRunTimeoutDeadline: a server-side per-run deadline (-run-timeout)
// converts an over-budget run into a terminal run-timeout error instead of
// an unbounded session.
func TestRunTimeoutDeadline(t *testing.T) {
	checkLeaks := leakCheck(t)
	srv := startServer(t, serve.Config{MaxSessions: 2, RunTimeout: time.Nanosecond})
	c := client.New("tcp", srv.Addr().String())
	_, err := c.Run(serve.SessionRequest{Workload: "synth:1", Tool: "spin", Seed: 1})
	var we *serve.WireError
	if !errors.As(err, &we) || we.Code != serve.CodeTimeout {
		t.Fatalf("err = %v, want wire code %s", err, serve.CodeTimeout)
	}
	srv.Drain()
	checkLeaks()
}

// TestShedBusyAtCap: with shedding on, a request past the session budget
// gets a retryable Busy frame and the running session is left alone (no
// eviction). The counter feeds raced_sessions_shed.
func TestShedBusyAtCap(t *testing.T) {
	checkLeaks := leakCheck(t)
	srv, ln := pipeServer(t, serve.Config{MaxSessions: 1, Shed: true}.WithOutboxFrames(4))

	// Occupy the only slot with a long session whose frames a background
	// reader drains.
	occConn := ln.dial(t)
	occ := openRaw(t, occConn, serve.SessionRequest{Workload: "synth:1", Tool: "spin", Seed: 1, Repeat: 100000})
	occDone := make(chan error, 1)
	go func() {
		_, err := rawOutcome(occ)
		occDone <- err
	}()
	waitFor(t, "occupier running", func() bool { return srv.ActiveSessions() == 1 })

	conn := ln.dial(t)
	if err := serve.WriteFrame(conn, serve.FrameRequest, &serve.SessionRequest{Workload: "synth:5", Tool: "spin"}); err != nil {
		t.Fatal(err)
	}
	s := &rawSession{conn: conn, br: bufio.NewReader(conn)}
	fr, err := s.nextErr()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Type != serve.FrameBusy {
		t.Fatalf("got frame %c, want busy", byte(fr.Type))
	}
	if fr.Busy.RetryAfterMs <= 0 || fr.Busy.Reason != "session budget" || fr.Busy.ActiveSessions < 1 {
		t.Errorf("busy frame = %+v", fr.Busy)
	}
	conn.Close()

	snap := srv.Snapshot()
	if snap.SessionsShed != 1 || snap.SessionsEvicted != 0 {
		t.Errorf("shed=%d evicted=%d, want 1/0 (shedding must not evict)", snap.SessionsShed, snap.SessionsEvicted)
	}
	if srv.ActiveSessions() != 1 {
		t.Errorf("occupier lost its slot")
	}
	occConn.Close()
	<-occDone
	waitFor(t, "sessions gone", func() bool { return srv.ActiveSessions() == 0 })
	srv.Drain()
	checkLeaks()
}

// TestShedMemoryBudget: an impossible memory budget sheds every request
// with the memory reason.
func TestShedMemoryBudget(t *testing.T) {
	checkLeaks := leakCheck(t)
	srv := startServer(t, serve.Config{MaxSessions: 4, Shed: true, MemoryBudgetBytes: 1})
	c := client.New("tcp", srv.Addr().String())
	_, err := c.Run(serve.SessionRequest{Workload: "synth:5", Tool: "spin"})
	var busy *serve.Busy
	if !errors.As(err, &busy) || busy.Reason != "memory budget" {
		t.Fatalf("err = %v, want busy (memory budget)", err)
	}
	if srv.Snapshot().SessionsShed != 1 {
		t.Errorf("shed = %d, want 1", srv.Snapshot().SessionsShed)
	}
	srv.Drain()
	checkLeaks()
}

// TestRunRetryBusy: RunRetry turns a Busy shed into a backoff (floored by
// the server's RetryAfterMs hint) and completes once the slot frees.
func TestRunRetryBusy(t *testing.T) {
	checkLeaks := leakCheck(t)
	srv := startServer(t, serve.Config{MaxSessions: 1, Shed: true})
	addr := srv.Addr().String()

	occConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	occ := openRaw(t, occConn, serve.SessionRequest{Workload: "synth:1", Tool: "spin", Seed: 1, Repeat: 100000})
	occDone := make(chan struct{})
	go func() {
		defer close(occDone)
		rawOutcome(occ)
	}()
	waitFor(t, "occupier running", func() bool { return srv.ActiveSessions() == 1 })

	var delays []time.Duration
	var released atomic.Bool
	p := client.RetryPolicy{
		Attempts: 5,
		Sleep: func(d time.Duration) {
			delays = append(delays, d)
			if released.CompareAndSwap(false, true) {
				occConn.Close() // free the slot; the retry should then land
			}
			time.Sleep(10 * time.Millisecond)
		},
	}
	c := client.New("tcp", addr)
	out, err := c.RunRetry(serve.SessionRequest{Workload: "synth:5", Tool: "spin", Seed: 1, Repeat: 2}, p)
	if err != nil {
		t.Fatalf("RunRetry: %v", err)
	}
	if len(out.Runs) != 2 || !out.Runs[1].Result.Last {
		t.Fatalf("runs=%d, want 2 with Last on the final", len(out.Runs))
	}
	if len(delays) == 0 {
		t.Fatalf("RunRetry never backed off despite the shed")
	}
	// The server's hint (busyRetryAfterMs) floors the first backoff above
	// the policy's 50ms base.
	if delays[0] < 200*time.Millisecond {
		t.Errorf("first backoff %v below the server's retry-after floor", delays[0])
	}
	if srv.Snapshot().SessionsShed == 0 {
		t.Errorf("no shed recorded")
	}
	<-occDone
	waitFor(t, "sessions gone", func() bool { return srv.ActiveSessions() == 0 })
	srv.Drain()
	checkLeaks()
}

// TestRunRetryResumesAfterEviction: an eviction under the session cap is
// retryable, and the retry resumes at the first missing run — the merged
// outcome holds exactly Repeat runs, indices contiguous, every run keyed
// by its original seed, no run repeated or lost.
func TestRunRetryResumesAfterEviction(t *testing.T) {
	checkLeaks := leakCheck(t)
	srv := startServer(t, serve.Config{MaxSessions: 1})
	addr := srv.Addr().String()

	const repeat = 10000
	type res struct {
		out *client.Outcome
		err error
	}
	resCh := make(chan res, 1)
	go func() {
		c := client.New("tcp", addr)
		out, err := c.RunRetry(serve.SessionRequest{Workload: "synth:29", Tool: "spin", Seed: 10, Repeat: repeat},
			client.RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
		resCh <- res{out, err}
	}()
	waitFor(t, "victim making progress", func() bool { return srv.Snapshot().Runs > 0 })

	// A newcomer evicts the victim mid-stream (evict-oldest admission).
	// Its own fate is irrelevant — the victim's retry may well evict it
	// right back.
	nc := client.New("tcp", addr)
	nc.Run(serve.SessionRequest{Workload: "synth:5", Tool: "spin", Seed: 1})

	r := <-resCh
	if r.err != nil {
		t.Fatalf("RunRetry after eviction: %v", r.err)
	}
	if len(r.out.Runs) != repeat {
		t.Fatalf("runs = %d, want %d", len(r.out.Runs), repeat)
	}
	for i, run := range r.out.Runs {
		if run.Result.Run != i {
			t.Fatalf("run %d misnumbered as %d after resume", i, run.Result.Run)
		}
		if run.Result.Seed != 10+int64(i) {
			t.Fatalf("run %d has seed %d, want %d: the resume repeated or skipped seeds", i, run.Result.Seed, 10+int64(i))
		}
		if run.Result.Last != (i == repeat-1) {
			t.Fatalf("run %d Last=%v", i, run.Result.Last)
		}
	}
	if srv.Snapshot().SessionsEvicted == 0 {
		t.Errorf("no eviction recorded; the resume path never ran")
	}
	waitFor(t, "sessions gone", func() bool { return srv.ActiveSessions() == 0 })
	srv.Drain()
	checkLeaks()
}

// TestClientFrameTimeout: a server that accepts a session and then goes
// silent must fail the client's Next with a read deadline, not hang it.
func TestClientFrameTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Swallow the request frame, accept the session, then go mute.
		header := make([]byte, 4)
		if _, err := io.ReadFull(conn, header); err != nil {
			return
		}
		if _, err := io.CopyN(io.Discard, conn, int64(binary.BigEndian.Uint32(header))); err != nil {
			return
		}
		serve.WriteFrame(conn, serve.FrameAccepted, &serve.Accepted{SessionID: 1, Config: "mute"})
		<-hold
	}()

	c := client.New("tcp", ln.Addr().String())
	c.FrameTimeout = 100 * time.Millisecond
	start := time.Now()
	_, err = c.Run(serve.SessionRequest{Workload: "synth:5", Tool: "spin"})
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a read deadline timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v; the frame deadline did not bound the read", elapsed)
	}
}
