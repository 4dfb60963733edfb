// Chaos conformance: every registered failpoint is driven through a live
// server — one at a time with per-site victims, then as a seeded blanket
// over the accuracy suite — and the hardening is held to its contract:
// the process survives every injection, goroutines return to baseline,
// and sessions the faults did not touch stay byte-identical to direct
// runs. `make chaos-smoke` runs the TestChaos* subset under -race.
package serve_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/fault"
	"adhocrace/internal/harness"
	"adhocrace/internal/serve"
	"adhocrace/internal/serve/client"
	"adhocrace/internal/workloads"
	"adhocrace/internal/workloads/dataracetest"
)

// longStream is a workload whose run passes event.OverlapThreshold and
// detect.GCPeriod under the spin preset (freqmine: about 93k events), so
// its sessions reach the GC-cycle failpoint, start the segment pipeline
// and reach the segment-rotation failpoint.
const longStream = "freqmine"

// chaosCompare checks a fault-free session outcome byte-for-byte against
// direct runs of the same request. Errors via t.Errorf only — it runs on
// fleet goroutines.
func chaosCompare(t *testing.T, req serve.SessionRequest, out *client.Outcome) {
	cfg, err := detect.Preset(req.Tool, req.Window)
	if err != nil {
		t.Errorf("%s/%s: %v", req.Workload, req.Tool, err)
		return
	}
	build, ok := workloads.Find(req.Workload)
	if !ok {
		t.Errorf("unknown workload %q", req.Workload)
		return
	}
	for i := range out.Runs {
		seed := req.Seed + int64(i)
		direct, _, err := detect.Prepare(build()).Run(cfg, seed, detect.RunOpts{})
		if err != nil {
			t.Errorf("%s seed %d direct: %v", req.Workload, seed, err)
			return
		}
		served, err := out.Runs[i].Report()
		if err != nil {
			t.Errorf("%s seed %d: %v", req.Workload, seed, err)
			return
		}
		if got, want := harness.ReportFingerprint(served), harness.ReportFingerprint(direct); got != want {
			t.Errorf("%s seed %d: un-faulted session differs from direct run\n--- direct ---\n%s--- server ---\n%s",
				req.Workload, seed, want, got)
		}
	}
}

// TestChaosEachFailpoint fires every registered failpoint, one per fresh
// server, in error mode plus panic-mode variants of the containment-
// interesting serve sites. Contract per trial: the victim session fails
// the way the site's hardening dictates (or, for teardown, not at all),
// the point actually fired, the process survives to serve a clean
// byte-identical session, and no goroutine leaks.
func TestChaosEachFailpoint(t *testing.T) {
	type trial struct {
		site string
		mode fault.Mode
		prep func(*serve.SessionRequest)
		// wantErr: the victim's Run must fail; wantCode pins the terminal
		// wire code ("" accepts any failure, e.g. a raw EOF).
		wantErr  bool
		wantCode string
		// wantPanicCounted: the trial's containment boundary increments
		// raced_session_failures.
		wantPanicCounted bool
	}
	trials := []trial{
		{site: fault.SegmentRotate, mode: fault.ModeError, wantErr: true, wantCode: serve.CodeInternal, wantPanicCounted: true,
			prep: func(r *serve.SessionRequest) { r.Workload = longStream }},
		{site: fault.DetectMerge, mode: fault.ModeError, wantErr: true, wantCode: serve.CodeInternal, wantPanicCounted: true},
		{site: fault.DetectMerge, mode: fault.ModePanic, wantErr: true, wantCode: serve.CodeInternal, wantPanicCounted: true},
		{site: fault.GCCycle, mode: fault.ModeError, wantErr: true, wantCode: serve.CodeInternal, wantPanicCounted: true,
			prep: func(r *serve.SessionRequest) { r.Workload = longStream }},
		{site: fault.CacheBuild, mode: fault.ModeError, wantErr: true, wantCode: serve.CodeInternal,
			prep: func(r *serve.SessionRequest) { r.Workload = "synth:777" }},
		{site: fault.ServeAccept, mode: fault.ModeError, wantErr: true, wantCode: serve.CodeInternal},
		{site: fault.ServeAccept, mode: fault.ModePanic, wantErr: true, wantCode: serve.CodeInternal, wantPanicCounted: true},
		{site: fault.ServeFrameRead, mode: fault.ModeError, wantErr: true, wantCode: serve.CodeInternal},
		{site: fault.ServeFrameWrite, mode: fault.ModeError, wantErr: true},
		// A write-path panic is contained by safeWriteFrame into a write
		// error (the writer must survive to drain), so it counts as a
		// disconnect, not a panic.
		{site: fault.ServeFrameWrite, mode: fault.ModePanic, wantErr: true},
		{site: fault.ServeOutboxSend, mode: fault.ModeError, wantErr: true, wantCode: serve.CodeDisconnected},
		{site: fault.ServeOutboxSend, mode: fault.ModePanic, wantErr: true, wantPanicCounted: true},
		{site: fault.ServeTeardown, mode: fault.ModeError, wantPanicCounted: true},
		{site: fault.ServeTeardown, mode: fault.ModePanic, wantPanicCounted: true},
	}

	covered := map[string]bool{}
	for _, tr := range trials {
		covered[tr.site] = true
	}
	for _, name := range fault.Names() {
		if !covered[name] {
			t.Errorf("failpoint %s has no trial", name)
		}
	}

	for _, tr := range trials {
		t.Run(fmt.Sprintf("%s/%s", tr.site, tr.mode), func(t *testing.T) {
			checkLeaks := leakCheck(t)
			reg := fault.New()
			if err := reg.Arm(tr.site, tr.mode, 0, 1); err != nil {
				t.Fatal(err)
			}
			srv := startServer(t, serve.Config{MaxSessions: 4, Fault: reg})
			c := client.New("tcp", srv.Addr().String())

			req := serve.SessionRequest{Workload: "synth:1", Tool: "spin", Seed: 1}
			if tr.prep != nil {
				tr.prep(&req)
			}
			_, err := c.Run(req)
			if tr.wantErr && err == nil {
				t.Fatalf("faulted session succeeded")
			}
			if !tr.wantErr && err != nil {
				t.Fatalf("fault leaked to the client: %v", err)
			}
			if tr.wantCode != "" {
				var we *serve.WireError
				if !errors.As(err, &we) || we.Code != tr.wantCode {
					t.Errorf("victim error = %v, want wire code %s", err, tr.wantCode)
				}
			}
			waitFor(t, "failpoint fired", func() bool { return reg.FiredCount(tr.site) >= 1 })
			if tr.wantPanicCounted {
				waitFor(t, "panic counted", func() bool { return srv.Snapshot().SessionFailures >= 1 })
			}

			// The wounded process keeps serving: a clean session on the same
			// server must be byte-identical to a direct run.
			cleanReq := serve.SessionRequest{Workload: "synth:2", Tool: "spin", Seed: 1, Repeat: 1}
			out, err := c.Run(cleanReq)
			if err != nil {
				t.Fatalf("clean session after %s fault: %v", tr.site, err)
			}
			chaosCompare(t, cleanReq, out)

			srv.Drain()
			checkLeaks()
		})
	}
}

// TestChaosConformanceSweep arms every failpoint with a seeded error rate
// and replays the accuracy suite (plus big-stream jobs that reach the GC
// and segment sites) through one server. Every site must fire
// at least once across the sweep; every session the faults spared must
// match its direct run byte for byte; the drain must leave zero
// goroutines. Under -short the matrix shrinks to the chaos-smoke subset.
func TestChaosConformanceSweep(t *testing.T) {
	checkLeaks := leakCheck(t)

	// GC cycles are the rarest stream-side evaluations: only the
	// long-stream runs pass detect.GCPeriod, once each, about a dozen per
	// full sweep. So that site gets the tightest rate in both matrices.
	stride, synths, streamRate, gcRate := 1, 8, int64(101), int64(4)
	if testing.Short() {
		// The smoke matrix gives stream-side sites far fewer hits; scale
		// their rates down so each still fires.
		stride, synths, streamRate = 6, 4, 11
	}

	// Rates tuned to each site's evaluation frequency, so every site
	// fires a handful of times without drowning the sweep in faults:
	// per-session sites see one hit per session, the stream-side sites
	// tens to hundreds per session.
	reg := fault.New()
	for _, name := range []string{fault.DetectMerge, fault.ServeAccept, fault.ServeFrameRead, fault.ServeTeardown} {
		reg.ArmSeeded(name, fault.ModeError, 6, 42)
	}
	for _, name := range []string{fault.ServeFrameWrite, fault.ServeOutboxSend} {
		reg.ArmSeeded(name, fault.ModeError, streamRate, 42)
	}
	// Segment rotations happen only past the overlap threshold, a few
	// dozen per long-stream session, so the site gets a tighter rate.
	reg.ArmSeeded(fault.SegmentRotate, fault.ModeError, 11, 42)
	reg.ArmSeeded(fault.GCCycle, fault.ModeError, gcRate, 42)
	reg.ArmSeeded(fault.CacheBuild, fault.ModeError, 7, 42)

	srv := startServer(t, serve.Config{MaxSessions: 16, Fault: reg})
	addr := srv.Addr().String()

	var jobs []serve.SessionRequest
	i := 0
	for ci, c := range dataracetest.Suite() {
		if ci%stride != 0 {
			continue
		}
		req := serve.SessionRequest{
			Workload: c.Name, Tool: confTools[ci%len(confTools)], Window: 7,
			Seed: int64(1 + i%3), Repeat: 1,
		}
		jobs = append(jobs, req)
		i++
	}
	// Big streams: synth jobs, and two long-stream jobs per synth job.
	// Long-stream runs pass detect.GCPeriod, and so reach the GC site,
	// once each (at event 65,536), before their segment rotations; they
	// are the sweep's only GC evaluations, hence two per synth job.
	for s := 1; s <= synths; s++ {
		jobs = append(jobs, serve.SessionRequest{
			Workload: fmt.Sprintf("synth:%d", s), Tool: "spin", Seed: 1, Repeat: 2,
		}, serve.SessionRequest{
			Workload: longStream, Tool: "spin", Seed: int64(s), Repeat: 2,
		}, serve.SessionRequest{
			Workload: longStream, Tool: "spin", Seed: int64(synths + s), Repeat: 2,
		})
	}

	var faulted, clean atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	const fleet = 8
	for w := 0; w < fleet; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New("tcp", addr)
			for {
				idx := next.Add(1) - 1
				if idx >= int64(len(jobs)) {
					return
				}
				req := jobs[idx]
				out, err := c.Run(req)
				if err != nil {
					// An injected fault ended this session; the contract for
					// faulted sessions is only that the process survives and
					// the teardown is clean (the leak check's job).
					faulted.Add(1)
					continue
				}
				clean.Add(1)
				if len(out.Runs) != req.Repeat {
					t.Errorf("%s: %d runs, want %d", req.Workload, len(out.Runs), req.Repeat)
					continue
				}
				chaosCompare(t, req, out)
			}
		}()
	}
	wg.Wait()

	// Full matrix only: the smoke matrix has so few big-stream sessions
	// that the first stream-side fire kills the session carrying the other
	// sites' hits. Per-site firing under -short is TestChaosEachFailpoint's
	// deterministic job; the sweep's is the blanket interaction.
	if !testing.Short() {
		for _, name := range fault.Names() {
			if reg.FiredCount(name) == 0 {
				t.Errorf("failpoint %s never fired across the sweep (%d hits)", name, reg.Hits(name))
			}
		}
	}
	if faulted.Load() == 0 {
		t.Errorf("no session was faulted; the sweep tested nothing")
	}
	if clean.Load() == 0 {
		t.Errorf("every session was faulted; the byte-identical bar was never exercised")
	}
	t.Logf("chaos sweep: %d sessions (%d faulted, %d clean), fires: %v",
		len(jobs), faulted.Load(), clean.Load(), reg.Fired())

	srv.Drain()
	checkLeaks()
	if n := srv.Snapshot().Goroutines; n > 50 {
		t.Errorf("goroutines after drain = %d", n)
	}
}
