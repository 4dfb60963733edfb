package main

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"adhocrace/internal/serve"
)

// startServer serves raced on a loopback port until the test ends.
func startServer(t *testing.T, cfg serve.Config) string {
	t.Helper()
	cfg.Network, cfg.Addr = "tcp", "127.0.0.1:0"
	srv := serve.New(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv.Addr().String()
}

// runConnect runs raced in client mode against addr.
func runConnect(addr string, args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(append([]string{"-connect", addr}, args...), &out, &errw)
	return code, out.String(), errw.String()
}

// TestClientRetryStreamsLikeNoRetry: on an idle server nothing is shed, so
// -retry takes the same live path as -retry 0 and prints the same bytes.
// Each invocation gets a fresh server so both sessions are numbered 1.
func TestClientRetryStreamsLikeNoRetry(t *testing.T) {
	args := []string{"-w", "ww_two_threads", "-tool", "drd", "-repeat", "3", "-v"}
	code, want, stderr := runConnect(startServer(t, serve.Config{}), append(args, "-retry", "0")...)
	if code != 0 {
		t.Fatalf("-retry 0: exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(want, "session 1: workload ww_two_threads") ||
		strings.Count(want, "): steps=") != 3 || !strings.Contains(want, "run 2: ") {
		t.Fatalf("-retry 0 printed no session of 3 runs with warnings:\n%s", want)
	}
	code, got, stderr := runConnect(startServer(t, serve.Config{}), append(args, "-retry", "2")...)
	if code != 0 {
		t.Fatalf("-retry 2: exit %d: %s", code, stderr)
	}
	if got != want {
		t.Errorf("-retry 2 printed\n%s\n-retry 0 printed\n%s", got, want)
	}
}

// TestClientBusyAtCap: with the server's only slot taken, -retry 0 is shed
// and exits 1 with the busy error on stderr, printing nothing on stdout.
func TestClientBusyAtCap(t *testing.T) {
	addr := startServer(t, serve.Config{MaxSessions: 1})
	occ, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer occ.Close()
	// A long session that nothing reads holds the slot: its outbox fills
	// and the run stalls there.
	if err := serve.WriteFrame(occ, serve.FrameRequest,
		&serve.SessionRequest{Workload: "synth:1", Tool: "spin", Repeat: 100_000}); err != nil {
		t.Fatal(err)
	}
	if fr, err := serve.ReadFrame(occ); err != nil || fr.Type != serve.FrameAccepted {
		t.Fatalf("occupier not admitted: %v", err)
	}
	code, stdout, stderr := runConnect(addr, "-w", "synth:5", "-retry", "0")
	if code != 1 {
		t.Errorf("exit %d at the cap, want 1", code)
	}
	if !strings.Contains(stderr, "busy: session budget") {
		t.Errorf("stderr = %q, want the busy error", stderr)
	}
	if stdout != "" {
		t.Errorf("stdout = %q, want nothing from a shed session", stdout)
	}
}
