// Soak: hundreds of concurrent synth sessions against one server —
// admission, scheduling, streaming, and teardown under sustained load,
// with zero goroutine leaks after the drain. `make soak-smoke` runs this
// under -race with -soak-sessions=64 as the CI smoke.
package serve_test

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"adhocrace/internal/fault"
	"adhocrace/internal/serve"
	"adhocrace/internal/serve/client"
)

// soakSessions overrides the session count (0 = 256, or 48 under -short).
var soakSessions = flag.Int("soak-sessions", 0, "sessions for TestServerSoak (0 = suite default)")

func TestServerSoak(t *testing.T) {
	sessions := *soakSessions
	if sessions == 0 {
		sessions = 256
		if testing.Short() {
			sessions = 48
		}
	}
	checkLeaks := leakCheck(t)
	srv := startServer(t, serve.Config{MaxSessions: 32}.WithOutboxFrames(8))
	addr := srv.Addr().String()

	tools := []string{"spin", "drd"}

	const fleet = 16
	var next, wantRuns atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < fleet; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New("tcp", addr)
			for {
				idx := int(next.Add(1) - 1)
				if idx >= sessions {
					return
				}
				req := serve.SessionRequest{
					Workload: fmt.Sprintf("synth:%d", 1+idx%29),
					Tool:     tools[idx%len(tools)],
					Seed:     int64(1 + idx%5),
					Repeat:   1 + idx%3,
				}
				out, err := c.Run(req)
				if err != nil {
					t.Errorf("session %d (%+v): %v", idx, req, err)
					continue
				}
				if len(out.Runs) != req.Repeat {
					t.Errorf("session %d: %d runs, want %d", idx, len(out.Runs), req.Repeat)
					continue
				}
				for r := range out.Runs {
					// Cross-checks streamed warnings against the result frame.
					if _, err := out.Runs[r].Report(); err != nil {
						t.Errorf("session %d: %v", idx, err)
					}
				}
				wantRuns.Add(int64(req.Repeat))
			}
		}()
	}
	wg.Wait()

	snap := srv.Snapshot()
	if snap.SessionsCompleted != int64(sessions) {
		t.Errorf("completed %d sessions, want %d (%+v)", snap.SessionsCompleted, sessions, snap)
	}
	if snap.Runs != wantRuns.Load() {
		t.Errorf("server counted %d runs, clients saw %d", snap.Runs, wantRuns.Load())
	}
	if snap.Events == 0 || snap.ShadowBytes == 0 {
		t.Errorf("aggregate stats empty after soak: %+v", snap)
	}
	if snap.SessionsPeak > 32 {
		t.Errorf("peak %d concurrent sessions, cap is 32", snap.SessionsPeak)
	}
	t.Logf("soak: %d sessions, %d runs, %d events, peak %d concurrent",
		snap.SessionsCompleted, snap.Runs, snap.Events, snap.SessionsPeak)
	srv.Drain()
	checkLeaks()
}

// TestServerSoakMemoryBaseline runs 64 sequential sessions — the shadow GC
// on, as deployed — and asserts the server's retained heap returns to the
// post-warm-up baseline: a long-lived raced must not accumulate per-session
// state. Sampled via runtime.ReadMemStats after a forced GC, with the
// first 8 sessions as warm-up, one full lap of the workload and seed
// cycles, so every per-workload cache is already populated at baseline.
func TestServerSoakMemoryBaseline(t *testing.T) {
	const sessions, warmup = 64, 8
	checkLeaks := leakCheck(t)
	srv := startServer(t, serve.Config{MaxSessions: 4})
	addr := srv.Addr().String()
	c := client.New("tcp", addr)

	heapNow := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var baseline uint64
	for i := 0; i < sessions; i++ {
		out, err := c.Run(serve.SessionRequest{
			Workload: fmt.Sprintf("synth:%d", 1+i%4),
			Tool:     "spin",
			Seed:     int64(1 + i%5),
			Repeat:   2,
		})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if len(out.Runs) != 2 {
			t.Fatalf("session %d: %d runs, want 2", i, len(out.Runs))
		}
		if i == warmup-1 {
			baseline = heapNow()
		}
	}
	if h := heapNow(); h > 2*baseline {
		t.Errorf("heap after %d sessions = %d bytes, beyond 2× the %d-session baseline %d",
			sessions, h, warmup, baseline)
	}
	srv.Drain()
	checkLeaks()
}

// TestServerSoakAbruptTeardown mixes polite sessions with clients that
// sever the connection mid-warning-stream at a seeded frame boundary,
// while injected write-path latency (fault.ServeFrameWrite in sleep mode)
// stretches the streams so the severs land inside them. Every severed
// session must be detected and counted as a disconnect, every polite
// session must complete, and the drain must leave zero goroutines.
func TestServerSoakAbruptTeardown(t *testing.T) {
	sessions := 96
	if testing.Short() {
		sessions = 32
	}
	checkLeaks := leakCheck(t)
	reg := fault.New()
	// Sleep mode fails nothing — it only adds 10ms stalls, at a seeded
	// ~1/25 of frame writes, so severed connections routinely catch the
	// writer mid-frame.
	if err := reg.ArmSeeded(fault.ServeFrameWrite, fault.ModeSleep, 25, 11); err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, serve.Config{MaxSessions: 16, Fault: reg}.WithOutboxFrames(4))
	addr := srv.Addr().String()

	var severed, completed atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	const fleet = 8
	for w := 0; w < fleet; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New("tcp", addr)
			for {
				idx := int(next.Add(1) - 1)
				if idx >= sessions {
					return
				}
				if idx%3 == 0 {
					// Abrupt client: open raw, read a deterministic number of
					// frames chosen from the session index, hang up. Repeat 50
					// on a big-stream synth guarantees the stream is nowhere
					// near done when the sever lands.
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						t.Errorf("session %d: dial: %v", idx, err)
						continue
					}
					req := serve.SessionRequest{Workload: "synth:1", Tool: "spin", Seed: 1, Repeat: 50}
					if err := serve.WriteFrame(conn, serve.FrameRequest, &req); err != nil {
						t.Errorf("session %d: request: %v", idx, err)
						conn.Close()
						continue
					}
					s := &rawSession{conn: conn, br: bufio.NewReader(conn)}
					frames := 1 + (idx*2654435761)%13 // seeded sever boundary
					for f := 0; f < frames; f++ {
						if _, err := s.nextErr(); err != nil {
							t.Errorf("session %d: frame %d: %v", idx, f, err)
							break
						}
					}
					conn.Close()
					severed.Add(1)
				} else {
					req := serve.SessionRequest{
						Workload: fmt.Sprintf("synth:%d", 2+idx%28),
						Tool:     "spin",
						Seed:     int64(1 + idx%5),
						Repeat:   1 + idx%2,
					}
					out, err := c.Run(req)
					if err != nil {
						t.Errorf("session %d: %v", idx, err)
						continue
					}
					if len(out.Runs) != req.Repeat {
						t.Errorf("session %d: %d runs, want %d", idx, len(out.Runs), req.Repeat)
						continue
					}
					completed.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	// Disconnect detection is asynchronous — the server notices a severed
	// peer on its next read or write, not at our Close.
	waitFor(t, "disconnects counted", func() bool {
		return srv.Snapshot().SessionsDisconnected == severed.Load()
	})
	waitFor(t, "sessions gone", func() bool { return srv.ActiveSessions() == 0 })
	snap := srv.Snapshot()
	if snap.SessionsCompleted != completed.Load() {
		t.Errorf("completed %d, clients saw %d", snap.SessionsCompleted, completed.Load())
	}
	if snap.SessionsFailed != 0 || snap.SessionFailures != 0 {
		t.Errorf("failures under teardown soak: failed=%d panics=%d", snap.SessionsFailed, snap.SessionFailures)
	}
	t.Logf("abrupt-teardown soak: %d severed, %d completed, %d write stalls injected",
		severed.Load(), completed.Load(), reg.FiredCount(fault.ServeFrameWrite))
	srv.Drain()
	checkLeaks()
}
