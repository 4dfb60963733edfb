// Command raced is the race-detection server and its CLI client.
//
// Server mode (default) runs detection as a service: clients open
// sessions over a length-prefixed wire protocol (internal/serve), each
// session gets its own detector over a process-wide compiled-workload
// cache, and race reports stream back incrementally. SIGINT/SIGTERM
// drains gracefully: accepting stops, admitted sessions finish, then the
// process exits (or is forced down after -drain-timeout).
//
//	raced [-network tcp|unix] [-addr 127.0.0.1:7334] [-metrics 127.0.0.1:7335]
//	      [-max-sessions 64] [-drain-timeout 30s]
//	      [-run-timeout D] [-shed] [-memory-budget BYTES]
//	      [-trace-dir DIR] [-block-profile-rate N] [-failpoints SPEC]
//
// The metrics endpoint serves /metrics (Prometheus text, including the
// observability layer's pipeline histograms and Go runtime stats),
// /metrics.json (full snapshot with per-session gauges), /healthz, and
// the net/http/pprof profile family under /debug/pprof/ (CPU, heap,
// goroutine, block, mutex — live, while sessions run). -trace-dir writes
// one Chrome trace-event JSON per session into the directory;
// -block-profile-rate enables the runtime's block profile at the given
// sampling rate (ns) so /debug/pprof/block shows contention.
//
// -run-timeout bounds each run server-side (over-budget runs end the
// session with a run-timeout error). -shed answers saturation with a
// retryable Busy frame instead of evicting the oldest session;
// -memory-budget adds a heap-in-use admission gate to the same shedding
// policy. -failpoints arms the deterministic fault-injection registry
// (internal/fault) from a spec like
// "serve.frame.write=error%97/3,gc.cycle=panic@2" — a chaos-testing
// handle, never armed by default.
//
// Client mode (-connect) opens one session against a running server and
// prints the streamed report — racedetect's output vocabulary, remote:
//
//	raced -connect 127.0.0.1:7334 -w x264 [-network tcp] [-tool spin] [-window 7]
//	      [-seed 1] [-repeat 1] [-overlap] [-retry N] [-v]
//
// -retry N retries shed (Busy) or evicted sessions up to N times with
// capped exponential backoff, resuming at the first missing run; the
// report then prints when the session set completes rather than live.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"adhocrace/internal/fault"
	"adhocrace/internal/serve"
	"adhocrace/internal/serve/client"
)

func main() {
	network := flag.String("network", "tcp", "protocol listener network: tcp or unix")
	addr := flag.String("addr", "127.0.0.1:7334", "protocol listener address (server mode)")
	metrics := flag.String("metrics", "", "HTTP metrics address, e.g. 127.0.0.1:7335 (empty = off)")
	maxSessions := flag.Int("max-sessions", 64, "concurrent session cap (oldest is evicted at the cap)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM before hard close")
	noGC := flag.Bool("no-gc-shadow", false, "disable the quiescence shadow-state GC sessions run with by default")
	runTimeout := flag.Duration("run-timeout", 0, "per-run wall-clock budget; an over-budget run ends its session with a run-timeout error (0 = unbounded)")
	shed := flag.Bool("shed", false, "answer saturation with a retryable busy frame instead of evicting the oldest session")
	memBudget := flag.Int64("memory-budget", 0, "heap-in-use bytes above which new sessions are shed (requires -shed; 0 = no memory gate)")
	failpoints := flag.String("failpoints", "", "arm fault-injection points, e.g. 'serve.frame.write=error%97/3,gc.cycle=panic@2' (chaos testing)")
	traceDir := flag.String("trace-dir", "", "write per-session Chrome trace-event JSON into this directory")
	blockRate := flag.Int("block-profile-rate", 0, "runtime block-profile sampling rate in ns (0 = off; see /debug/pprof/block)")

	connect := flag.String("connect", "", "client mode: server address to dial")
	workload := flag.String("w", "", "client: workload name")
	tool := flag.String("tool", "spin", "client: tool preset")
	window := flag.Int("window", 7, "client: spin-loop basic-block window")
	seed := flag.Int64("seed", 1, "client: first scheduler seed")
	repeat := flag.Int("repeat", 1, "client: runs per session (seeds seed..seed+repeat-1)")
	overlap := flag.Bool("overlap", false, "client: overlap vm execution with detection")
	retry := flag.Int("retry", 0, "client: retries for shed/evicted sessions (capped backoff, run-resume)")
	verbose := flag.Bool("v", false, "client: print every warning as it streams")
	flag.Parse()

	if *connect != "" {
		runClient(*network, *connect, serve.SessionRequest{
			Workload: *workload, Tool: *tool, Window: *window,
			Seed: *seed, Repeat: *repeat, Overlap: *overlap,
		}, *verbose, *retry)
		return
	}

	if *network == "unix" {
		// A stale socket from an unclean exit blocks the bind.
		os.Remove(*addr)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "raced: trace-dir: %v\n", err)
			os.Exit(1)
		}
	}
	var faults *fault.Registry
	if *failpoints != "" {
		var err error
		if faults, err = fault.Parse(*failpoints); err != nil {
			fmt.Fprintf(os.Stderr, "raced: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "raced: CHAOS MODE — failpoints armed: %s\n", *failpoints)
	}
	srv := serve.New(serve.Config{
		Network: *network, Addr: *addr, MetricsAddr: *metrics,
		MaxSessions: *maxSessions, DisableShadowGC: *noGC, TraceDir: *traceDir,
		RunTimeout: *runTimeout, Shed: *shed, MemoryBudgetBytes: *memBudget,
		Fault: faults,
	})
	if err := srv.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "raced: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("raced: serving on %s %s", *network, srv.Addr())
	if *metrics != "" {
		fmt.Printf(", metrics on http://%s/metrics", *metrics)
	}
	fmt.Println()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	sig := <-sigs
	fmt.Printf("raced: %s, draining (budget %s)\n", sig, *drainTimeout)

	// Force a hard close if the drain outlives its budget (or a second
	// signal arrives).
	done := make(chan struct{})
	go func() {
		select {
		case <-time.After(*drainTimeout):
			fmt.Fprintln(os.Stderr, "raced: drain budget exceeded, closing hard")
		case <-sigs:
			fmt.Fprintln(os.Stderr, "raced: second signal, closing hard")
		case <-done:
			return
		}
		srv.Close()
	}()
	srv.Drain()
	close(done)
	snap := srv.Snapshot()
	fmt.Printf("raced: drained; %d sessions served (%d completed), %d runs, %d events\n",
		snap.SessionsTotal, snap.SessionsCompleted, snap.Runs, snap.Events)
}

// runClient drives one session and prints the stream. With retries, the
// buffered RunRetry path replaces live streaming: shed and evicted
// sessions back off and resume at the first missing run.
func runClient(network, addr string, req serve.SessionRequest, verbose bool, retries int) {
	c := client.New(network, addr)
	if retries > 0 {
		out, err := c.RunRetry(req, client.RetryPolicy{Attempts: 1 + retries})
		if err != nil {
			fmt.Fprintf(os.Stderr, "raced: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("session %d: workload %s under %s (seed %d, %d run(s))\n",
			out.SessionID, req.Workload, out.Config, req.Seed, len(out.Runs))
		for _, run := range out.Runs {
			if verbose {
				for _, w := range run.Warnings {
					fmt.Printf("  run %d: %s at %s:%d addr=%d tid=%d other=%d write=%v\n",
						w.Run, w.Kind, w.File, w.Line, w.Addr, w.Tid, w.Other, w.Write)
				}
			}
			r := run.Result
			fmt.Printf("  run %d (seed %d): steps=%d threads=%d events=%d warnings=%d racy contexts=%d\n",
				r.Run, r.Seed, r.Steps, r.Threads, r.Events, r.Warnings, r.RacyContexts)
		}
		return
	}
	s, err := c.Open(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "raced: %v\n", err)
		os.Exit(1)
	}
	defer s.Close()
	fmt.Printf("session %d: workload %s under %s (seed %d, %d run(s))\n",
		s.ID, req.Workload, s.Config, req.Seed, req.Repeat)
	for {
		fr, err := s.Next()
		if err != nil {
			fmt.Fprintf(os.Stderr, "raced: %v\n", err)
			os.Exit(1)
		}
		switch fr.Type {
		case serve.FrameWarning:
			if verbose {
				w := fr.Warning
				fmt.Printf("  run %d: %s at %s:%d addr=%d tid=%d other=%d write=%v\n",
					w.Run, w.Kind, w.File, w.Line, w.Addr, w.Tid, w.Other, w.Write)
			}
		case serve.FrameResult:
			r := fr.Result
			fmt.Printf("  run %d (seed %d): steps=%d threads=%d events=%d warnings=%d racy contexts=%d\n",
				r.Run, r.Seed, r.Steps, r.Threads, r.Events, r.Warnings, r.RacyContexts)
			if r.Last {
				return
			}
		}
	}
}
