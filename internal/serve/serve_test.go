// Shared scaffolding for the server tests, plus the basic round trip: a
// leak-accounted TCP server fixture, an in-memory pipe listener for the
// deterministic lifecycle tests, and a raw protocol driver for clients
// that need frame-level control.
package serve_test

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/harness"
	"adhocrace/internal/serve"
	"adhocrace/internal/serve/client"
	"adhocrace/internal/workloads"
)

// leakCheck captures the goroutine count and returns a closer that polls
// until the count is back at (or under) the baseline — the hand-rolled
// goleak: every server goroutine must be joined by Drain/session teardown.
func leakCheck(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.NumGoroutine()
				m := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, base, buf[:m])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// startServer runs a server on an ephemeral TCP port and tears it down
// (Drain) when the test ends.
func startServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	cfg.Network = "tcp"
	cfg.Addr = "127.0.0.1:0"
	srv := serve.New(cfg)
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(srv.Drain)
	return srv
}

// pipeListener is an in-memory net.Listener over net.Pipe: the lifecycle
// tests drive sessions through it so connection events (dial, disconnect,
// stalled reads) are fully deterministic.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial hands the server one end of a fresh pipe.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	cl, sv := net.Pipe()
	select {
	case l.conns <- sv:
		return cl
	case <-l.done:
		t.Fatalf("dial after listener close")
		return nil
	case <-time.After(5 * time.Second):
		t.Fatalf("dial: server not accepting")
		return nil
	}
}

// rawSession drives the wire protocol by hand over any conn.
type rawSession struct {
	conn net.Conn
	br   *bufio.Reader
}

// openRaw sends the request and consumes the accepted frame.
func openRaw(t *testing.T, conn net.Conn, req serve.SessionRequest) *rawSession {
	t.Helper()
	if err := serve.WriteFrame(conn, serve.FrameRequest, &req); err != nil {
		t.Fatalf("write request: %v", err)
	}
	s := &rawSession{conn: conn, br: bufio.NewReader(conn)}
	fr := s.next(t)
	if fr.Type != serve.FrameAccepted {
		t.Fatalf("expected accepted frame, got %c", byte(fr.Type))
	}
	return s
}

func (s *rawSession) next(t *testing.T) *serve.Frame {
	t.Helper()
	s.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	fr, err := serve.ReadFrame(s.br)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return fr
}

// directFingerprint runs the workload directly (no server) and returns the
// report fingerprint — the conformance bar.
func directFingerprint(t *testing.T, workload string, cfg detect.Config, seed int64, opts detect.RunOpts) string {
	t.Helper()
	build, ok := workloads.Find(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	rep, _, err := detect.Prepare(build()).Run(cfg, seed, opts)
	if err != nil {
		t.Fatalf("direct run %s: %v", workload, err)
	}
	return harness.ReportFingerprint(rep)
}

// outcomeFingerprints reassembles and fingerprints every run of a session
// outcome.
func outcomeFingerprints(t *testing.T, out *client.Outcome) []string {
	t.Helper()
	fps := make([]string, len(out.Runs))
	for i := range out.Runs {
		rep, err := out.Runs[i].Report()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		fps[i] = harness.ReportFingerprint(rep)
	}
	return fps
}

// TestServerRoundTrip: one session, one racy workload — the streamed
// report must be byte-identical to a direct run, and the metrics must
// account for the session.
func TestServerRoundTrip(t *testing.T) {
	checkLeaks := leakCheck(t)
	srv := startServer(t, serve.Config{MaxSessions: 4})
	c := client.New("tcp", srv.Addr().String())

	out, err := c.Run(serve.SessionRequest{Workload: "ww_two_threads", Tool: "spin", Repeat: 3})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if len(out.Runs) != 3 {
		t.Fatalf("got %d runs, want 3", len(out.Runs))
	}
	cfg := detect.HelgrindPlusLibSpin(7)
	for i, fp := range outcomeFingerprints(t, out) {
		want := directFingerprint(t, "ww_two_threads", cfg, int64(1+i), detect.RunOpts{})
		if fp != want {
			t.Errorf("run %d: server report differs from direct run\n--- direct ---\n%s--- server ---\n%s", i, want, fp)
		}
		if out.Runs[i].Result.Warnings == 0 {
			t.Errorf("run %d: racy workload streamed no warnings", i)
		}
	}

	snap := srv.Snapshot()
	if snap.SessionsCompleted != 1 || snap.Runs != 3 {
		t.Errorf("snapshot: completed=%d runs=%d, want 1/3", snap.SessionsCompleted, snap.Runs)
	}
	if snap.WarningsStreamed == 0 || snap.Events == 0 {
		t.Errorf("snapshot: warnings=%d events=%d, want nonzero", snap.WarningsStreamed, snap.Events)
	}

	srv.Drain()
	checkLeaks()
}

// TestServerRejectsBadRequests: unknown workloads, unknown tools, and
// out-of-range knobs all answer with a bad-request error frame and never
// become sessions.
func TestServerRejectsBadRequests(t *testing.T) {
	checkLeaks := leakCheck(t)
	srv := startServer(t, serve.Config{MaxSessions: 2})
	c := client.New("tcp", srv.Addr().String())

	for _, req := range []serve.SessionRequest{
		{Workload: "no_such_workload", Tool: "spin"},
		{Workload: "ww_two_threads", Tool: "no_such_tool"},
		{Workload: ""},
		{Workload: "ww_two_threads", Tool: "spin", Repeat: 2_000_000},
	} {
		_, err := c.Run(req)
		we, ok := err.(*serve.WireError)
		if !ok {
			t.Fatalf("request %+v: err = %v, want wire error", req, err)
		}
		if we.Code != serve.CodeBadRequest {
			t.Errorf("request %+v: code = %s, want %s", req, we.Code, serve.CodeBadRequest)
		}
	}
	if snap := srv.Snapshot(); snap.SessionsRejected != 4 || snap.SessionsTotal != 0 {
		t.Errorf("snapshot: rejected=%d total=%d, want 4/0", snap.SessionsRejected, snap.SessionsTotal)
	}
	srv.Drain()
	checkLeaks()
}

// TestMetricsEndpoint scrapes the HTTP endpoint of a live server: the
// Prometheus text must carry the aggregate counters and the JSON snapshot
// must expose per-session gauges while a session is in flight.
func TestMetricsEndpoint(t *testing.T) {
	checkLeaks := leakCheck(t)
	srv := startServer(t, serve.Config{MaxSessions: 2, MetricsAddr: "127.0.0.1:0"})
	c := client.New("tcp", srv.Addr().String())
	if _, err := c.Run(serve.SessionRequest{Workload: "ww_two_threads", Tool: "spin"}); err != nil {
		t.Fatalf("session: %v", err)
	}

	body := httpGet(t, srv, "/metrics")
	for _, want := range []string{
		"raced_sessions_completed 1", "raced_runs_total 1",
		"raced_events_total", "raced_epoch_hit_rate", "raced_shadow_bytes_total",
		"raced_read_set_promotions_total", "raced_warnings_streamed_total",
		"raced_gc_cycles_total", "raced_gc_words_retired_total",
		"raced_gc_sync_objs_retired_total",
	} {
		if !containsLine(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
	if body := httpGet(t, srv, "/healthz"); !containsLine(body, "ok") {
		t.Errorf("/healthz = %q, want ok", body)
	}
	if body := httpGet(t, srv, "/metrics.json"); !strings.Contains(body, "\"sessions_completed\": 1") {
		t.Errorf("/metrics.json missing completed count\n%s", body)
	}
	srv.Drain()
	checkLeaks()
}

func containsLine(body, want string) bool {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(strings.TrimRight(line, "\r"), want) {
			return true
		}
	}
	return false
}

// httpGet fetches a path from the server's metrics listener.
func httpGet(t *testing.T, srv *serve.Server, path string) string {
	t.Helper()
	addr := srv.MetricsAddr()
	if addr == nil {
		t.Fatalf("no metrics listener")
	}
	conn, err := net.DialTimeout("tcp", addr.String(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial metrics: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "GET %s HTTP/1.0\r\nHost: raced\r\n\r\n", path)
	var buf [1 << 16]byte
	total := 0
	for {
		n, err := conn.Read(buf[total:])
		total += n
		if err != nil || total == len(buf) {
			break
		}
	}
	return string(buf[:total])
}
