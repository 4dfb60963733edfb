// Command raced is the race-detection server and its CLI client.
//
// Server mode (default) runs detection as a service: clients open
// sessions over a length-prefixed wire protocol (internal/serve), each
// session gets its own detector over a process-wide compiled-workload
// cache, and race reports stream back incrementally. Every session's
// detector runs the quiescence shadow GC every detect.GCPeriod events, so
// long streams keep their shadow state bounded. SIGINT/SIGTERM
// drains gracefully: accepting stops, admitted sessions finish, then the
// process exits (or is forced down after -drain-timeout).
//
//	raced [-network tcp|unix] [-addr 127.0.0.1:7334] [-metrics 127.0.0.1:7335]
//	      [-max-sessions 64] [-drain-timeout 30s]
//	      [-run-timeout D] [-memory-budget BYTES]
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
// session with a run-timeout error). A request past -max-sessions is shed
// with a retryable Busy frame and never starts; running sessions are never
// disturbed. -memory-budget adds a heap-in-use gate to the same admission.
// -failpoints arms the deterministic fault-injection registry
// (internal/fault) from a spec like
// "serve.frame.write=error%97/3,gc.cycle=panic@2" — a chaos-testing
// handle, never armed by default.
//
// Client mode (-connect) opens one session against a running server and
// prints the streamed report — racedetect's output vocabulary, remote:
//
//	raced -connect 127.0.0.1:7334 -w x264 [-network tcp] [-tool spin] [-window 7]
//	      [-seed 1] [-repeat 1] [-retry N] [-v]
//
// -retry N re-sends a shed (Busy) request up to N times with capped
// exponential backoff. A shed request never started, so the admitted
// session streams live exactly as it does without -retry.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is raced with the given arguments, writing to stdout and stderr; it
// returns the exit status. Server mode returns only after a drain.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raced", flag.ContinueOnError)
	fs.SetOutput(stderr)
	network := fs.String("network", "tcp", "protocol listener network: tcp or unix")
	addr := fs.String("addr", "127.0.0.1:7334", "protocol listener address (server mode)")
	metrics := fs.String("metrics", "", "HTTP metrics address, e.g. 127.0.0.1:7335 (empty = off)")
	maxSessions := fs.Int("max-sessions", 64, "concurrent session cap (a request past it gets a retryable busy frame)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM before hard close")
	runTimeout := fs.Duration("run-timeout", 0, "per-run wall-clock budget; an over-budget run ends its session with a run-timeout error (0 = unbounded)")
	memBudget := fs.Int64("memory-budget", 0, "heap-in-use bytes above which new sessions get a retryable busy frame (0 = no memory gate)")
	failpoints := fs.String("failpoints", "", "arm fault-injection points, e.g. 'serve.frame.write=error%97/3,gc.cycle=panic@2' (chaos testing)")
	traceDir := fs.String("trace-dir", "", "write per-session Chrome trace-event JSON into this directory")
	blockRate := fs.Int("block-profile-rate", 0, "runtime block-profile sampling rate in ns (0 = off; see /debug/pprof/block)")

	connect := fs.String("connect", "", "client mode: server address to dial")
	workload := fs.String("w", "", "client: workload name")
	tool := fs.String("tool", "spin", "client: tool preset")
	window := fs.Int("window", 7, "client: spin-loop basic-block window")
	seed := fs.Int64("seed", 1, "client: first scheduler seed")
	repeat := fs.Int("repeat", 1, "client: runs per session (seeds seed..seed+repeat-1)")
	retry := fs.Int("retry", 0, "client: retries for a request shed with a busy frame (capped backoff)")
	verbose := fs.Bool("v", false, "client: print every warning as it streams")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *connect != "" {
		return runClient(*network, *connect, serve.SessionRequest{
			Workload: *workload, Tool: *tool, Window: *window,
			Seed: *seed, Repeat: *repeat,
		}, *verbose, *retry, stdout, stderr)
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
			fmt.Fprintf(stderr, "raced: trace-dir: %v\n", err)
			return 1
		}
	}
	var faults *fault.Registry
	if *failpoints != "" {
		var err error
		if faults, err = fault.Parse(*failpoints); err != nil {
			fmt.Fprintf(stderr, "raced: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "raced: CHAOS MODE — failpoints armed: %s\n", *failpoints)
	}
	srv := serve.New(serve.Config{
		Network: *network, Addr: *addr, MetricsAddr: *metrics,
		MaxSessions: *maxSessions, TraceDir: *traceDir,
		RunTimeout: *runTimeout, MemoryBudgetBytes: *memBudget,
		Fault: faults,
	})
	if err := srv.Start(); err != nil {
		fmt.Fprintf(stderr, "raced: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "raced: serving on %s %s", *network, srv.Addr())
	if *metrics != "" {
		fmt.Fprintf(stdout, ", metrics on http://%s/metrics", *metrics)
	}
	fmt.Fprintln(stdout)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	sig := <-sigs
	fmt.Fprintf(stdout, "raced: %s, draining (budget %s)\n", sig, *drainTimeout)

	// Force a hard close if the drain outlives its budget (or a second
	// signal arrives).
	done := make(chan struct{})
	go func() {
		select {
		case <-time.After(*drainTimeout):
			fmt.Fprintln(stderr, "raced: drain budget exceeded, closing hard")
		case <-sigs:
			fmt.Fprintln(stderr, "raced: second signal, closing hard")
		case <-done:
			return
		}
		srv.Close()
	}()
	srv.Drain()
	close(done)
	snap := srv.Snapshot()
	fmt.Fprintf(stdout, "raced: drained; %d sessions served (%d completed), %d runs, %d events\n",
		snap.SessionsTotal, snap.SessionsCompleted, snap.Runs, snap.Events)
	return 0
}

// runClient drives one session and prints its stream live; it returns
// the exit status. With retries, a shed request backs off and is sent
// again before the session streams.
func runClient(network, addr string, req serve.SessionRequest, verbose bool, retries int,
	stdout, stderr io.Writer) int {
	s, err := client.New(network, addr).OpenRetry(req, client.RetryPolicy{Attempts: 1 + max(retries, 0)})
	if err != nil {
		fmt.Fprintf(stderr, "raced: %v\n", err)
		return 1
	}
	defer s.Close()
	fmt.Fprintf(stdout, "session %d: workload %s under %s (seed %d, %d run(s))\n",
		s.ID, req.Workload, s.Config, req.Seed, req.Repeat)
	for {
		fr, err := s.Next()
		if err != nil {
			fmt.Fprintf(stderr, "raced: %v\n", err)
			return 1
		}
		switch fr.Type {
		case serve.FrameWarning:
			if verbose {
				w := fr.Warning
				fmt.Fprintf(stdout, "  run %d: %s at %s:%d addr=%d tid=%d other=%d write=%v\n",
					w.Run, w.Kind, w.File, w.Line, w.Addr, w.Tid, w.Other, w.Write)
			}
		case serve.FrameResult:
			r := fr.Result
			fmt.Fprintf(stdout, "  run %d (seed %d): steps=%d threads=%d events=%d warnings=%d racy contexts=%d\n",
				r.Run, r.Seed, r.Steps, r.Threads, r.Events, r.Warnings, r.RacyContexts)
			if r.Last {
				return 0
			}
		}
	}
}
