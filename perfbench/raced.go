package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/harness"
	"adhocrace/internal/ir"
	"adhocrace/internal/serve"
	"adhocrace/internal/serve/client"
	"adhocrace/internal/workloads"
)

// racedWorkload drives an in-process raced server at its default
// configuration over a unix socket with a closed loop of one client per
// CPU, each opening its next session only after the last one finished.
// Detection per session is small, so JSON framing, streamed warnings, the
// outbox, compile-cache hits and pool scheduling dominate. One operation
// is one session.
type racedWorkload struct {
	seed int64
	sock string
	srv  *serve.Server
	// pool is the synth workloads sessions draw from. It is the same for
	// every seed, which only orders the draws, so runs with different
	// seeds measure the same mix.
	pool  []string
	preps map[string]*detect.Prepared
	// want holds the direct Prepared.Run fingerprints per request and run
	// index: the oracle every streamed report must match.
	want map[racedKey][]string
	// phases holds the completed sessions of each run call, in order.
	phases [][]racedSession
}

type racedKey struct {
	workload, tool string
}

type racedSession struct {
	key    racedKey
	ms     float64
	frames int
}

const (
	racedPool   = 32
	racedRepeat = 4
)

var racedTools = []string{"lib", "spin"}

func (w *racedWorkload) tail() float64 { return 99.9 }

func (k racedKey) request() serve.SessionRequest {
	return serve.SessionRequest{Workload: k.workload, Tool: k.tool, Repeat: racedRepeat}
}

func (k racedKey) config() detect.Config {
	cfg, err := serve.ToolConfig(k.tool, 0)
	if err != nil {
		panic(err) // racedTools holds only valid names
	}
	return cfg
}

// directRuns runs a request's runs the way a session does, without the
// server.
func (w *racedWorkload) directRuns(k racedKey, each func(*detect.Report)) error {
	for r := 0; r < racedRepeat; r++ {
		rep, _, err := w.preps[k.workload].Run(k.config(), int64(1+r), detect.RunOpts{GCShadow: true})
		if err != nil {
			return fmt.Errorf("%s %s direct run: %w", k.workload, k.tool, err)
		}
		each(rep)
	}
	return nil
}

// setup starts a fresh server, warms its compile cache with one session
// per (workload, tool), and takes the direct-run oracle.
func (w *racedWorkload) setup(seed int64) error {
	w.close()
	w.seed = seed
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	w.sock = filepath.Join(".bench_build", fmt.Sprintf("raced-%d.sock", os.Getpid()))
	w.srv = serve.New(serve.Config{Network: "unix", Addr: w.sock})
	if err := w.srv.Start(); err != nil {
		return err
	}
	w.pool = make([]string, racedPool)
	w.preps = make(map[string]*detect.Prepared, racedPool)
	w.want = make(map[racedKey][]string)
	c := client.New("unix", w.sock)
	for i := range w.pool {
		name := fmt.Sprintf("%s%d", workloads.SynthPrefix, i+1)
		w.pool[i] = name
		build, ok := workloads.Find(name)
		if !ok {
			return fmt.Errorf("unknown workload %s", name)
		}
		w.preps[name] = detect.Prepare(build())
		for _, tool := range racedTools {
			k := racedKey{name, tool}
			err := w.directRuns(k, func(rep *detect.Report) {
				w.want[k] = append(w.want[k], harness.ReportFingerprint(rep))
			})
			if err != nil {
				return err
			}
			if _, err := c.Run(k.request()); err != nil {
				return fmt.Errorf("%s %s warm-up session: %w", name, tool, err)
			}
		}
	}
	return nil
}

// check is the oracle: the session completed every run, and each streamed
// report equals the direct run's. It returns the frames received.
func (w *racedWorkload) check(k racedKey, out *client.Outcome, st *opStats) (int, error) {
	if len(out.Runs) != racedRepeat {
		return 0, fmt.Errorf("%d runs, want %d", len(out.Runs), racedRepeat)
	}
	frames := 1 // the accepted frame
	for i, r := range out.Runs {
		rep, err := r.Report()
		if err != nil {
			return 0, err
		}
		if harness.ReportFingerprint(rep) != w.want[k][i] {
			return 0, fmt.Errorf("%s %s run %d: streamed report differs from the direct run", k.workload, k.tool, i)
		}
		st.events += rep.Events
		st.counts.observe(rep)
		frames += 1 + len(r.Warnings)
	}
	return frames, nil
}

// run is the closed loop: one client goroutine per CPU. With a tracer the
// client call is a serve span; the server detects on its own goroutines,
// which the benchmark does not trace, so that time is the serve span's.
func (w *racedWorkload) run(until time.Time, tr *tracer) (opStats, error) {
	clients := runtime.GOMAXPROCS(0)
	stats := make([]opStats, clients)
	done := make([][]racedSession, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			st := &stats[ci]
			rng := rand.New(rand.NewSource(w.seed*1000 + int64(ci)))
			c := client.New("unix", w.sock)
			for time.Now().Before(until) {
				k := racedKey{w.pool[rng.Intn(len(w.pool))], racedTools[rng.Intn(len(racedTools))]}
				var op spanID
				if tr != nil {
					op = tr.beginOp()
				}
				t0 := time.Now()
				var out *client.Outcome
				var err error
				if tr != nil {
					tr.call(op, "serve", func() { out, err = c.Run(k.request()) })
				} else {
					out, err = c.Run(k.request())
				}
				lat := ms(time.Since(t0))
				var frames int
				if err == nil {
					frames, err = w.check(k, out, st)
				}
				if tr != nil {
					tr.end(op)
				}
				st.attempted++
				if err != nil {
					st.failed++
					fmt.Fprintf(os.Stderr, "raced: %v\n", err)
					continue
				}
				st.lat = append(st.lat, lat)
				done[ci] = append(done[ci], racedSession{k, lat, frames})
			}
		}(ci)
	}
	wg.Wait()
	var st opStats
	var phase []racedSession
	for ci := range stats {
		st.add(stats[ci])
		phase = append(phase, done[ci]...)
	}
	st.elapsed = time.Since(start)
	w.phases = append(w.phases, phase)
	return st, nil
}

func (w *racedWorkload) layers(m map[string]float64, base, traced opStats) error {
	var builds []func() *ir.Program
	var calls []instrumentCall
	var own []detRun
	for _, name := range w.pool {
		build, _ := workloads.Find(name)
		builds = append(builds, build)
		prep := w.preps[name]
		calls = append(calls, instrumentCall{prep.Prog, racedKey{name, "spin"}.config()})
		for _, tool := range racedTools {
			for r := 0; r < racedRepeat; r++ {
				own = append(own, detRun{prep: prep, cfg: racedKey{name, tool}.config(), seeds: []int64{int64(1 + r)}, gc: true})
			}
		}
	}
	var err error
	if m["ir.build_ms"], err = timeBuilds(builds); err != nil {
		return err
	}
	if m["spin.instrument_ms"], err = timeInstrument(calls); err != nil {
		return err
	}
	if err := fillLayerRates(m, own); err != nil {
		return err
	}

	// serve.overhead_ms: each untraced session's latency minus the direct
	// runs of the same request.
	direct := make(map[racedKey]float64)
	var over, frames []float64
	for _, s := range w.phases[len(w.phases)-2] {
		d, ok := direct[s.key]
		if !ok {
			t, err := medianTime(func() error {
				return w.directRuns(s.key, func(*detect.Report) {})
			})
			if err != nil {
				return err
			}
			d = ms(t)
			direct[s.key] = d
		}
		over = append(over, s.ms-d)
		frames = append(frames, float64(s.frames))
	}
	m["serve.overhead_ms"] = median(over)
	m["serve.frames_per_session"] = median(frames)

	snap := w.srv.Snapshot()
	sessions := float64(max(snap.SessionsTotal, 1))
	for _, h := range snap.Pipeline.Hists {
		if h.Name == "outbox_stall_ns" {
			m["serve.outbox_stall_ms"] = float64(h.Sum) / 1e6 / sessions
		}
	}
	m["serve.evictions"] = float64(snap.SessionsEvicted)
	m["serve.shed"] = float64(snap.SessionsShed)
	// The GC counters are not on the wire: take the server's totals,
	// scaled to the traced sessions.
	if snap.Runs > 0 {
		runs := float64(traced.counts.reports) / float64(snap.Runs)
		traced.counts.gcCycles = int64(float64(snap.GCCycles) * runs)
		traced.counts.gcWords = int64(float64(snap.GCWordsRetired) * runs)
	}
	traced.counts.fill(m, len(traced.lat))
	return nil
}

func (w *racedWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.sock != "" {
		if err := os.Remove(w.sock); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "raced: %v\n", err)
		}
		w.sock = ""
	}
}
