// Server conformance: every report streamed through raced must be
// byte-identical to a direct Prepared.Run of the same (workload, tool,
// seed). The suite replays the full 120-case accuracy suite under the six
// tool presets and a synthesis corpus under the two presets with the
// richest read-side semantics, all through one shared server — the
// cnosdb-style work-claiming runner keeps a fleet of client goroutines
// saturated.
package serve_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/harness"
	"adhocrace/internal/serve"
	"adhocrace/internal/serve/client"
	"adhocrace/internal/workloads"
	"adhocrace/internal/workloads/dataracetest"
)

// confJob is one conformance unit: one workload under one tool and seed.
type confJob struct {
	workload string
	tool     string
	window   int
	seed     int64
}

// run compares the server's streamed report against the direct run.
// Errors go through t.Errorf (never Fatalf — jobs run off the test
// goroutine).
func (j confJob) run(t *testing.T, c *client.Client) {
	cfg, err := detect.Preset(j.tool, j.window)
	if err != nil {
		t.Errorf("%s/%s: %v", j.workload, j.tool, err)
		return
	}
	build, ok := workloads.Find(j.workload)
	if !ok {
		t.Errorf("unknown workload %q", j.workload)
		return
	}
	direct, _, err := detect.Prepare(build()).Run(cfg, j.seed, detect.RunOpts{})
	if err != nil {
		t.Errorf("%s/%s seed %d direct: %v", j.workload, j.tool, j.seed, err)
		return
	}

	req := serve.SessionRequest{Workload: j.workload, Tool: j.tool, Window: j.window, Seed: j.seed}
	out, err := c.Run(req)
	if err != nil {
		t.Errorf("%s/%s seed %d server: %v", j.workload, j.tool, j.seed, err)
		return
	}
	if len(out.Runs) != 1 {
		t.Errorf("%s/%s: got %d runs, want 1", j.workload, j.tool, len(out.Runs))
		return
	}
	// Report() cross-checks the streamed warning count against the result
	// frame before reassembling.
	served, err := out.Runs[0].Report()
	if err != nil {
		t.Errorf("%s/%s seed %d: %v", j.workload, j.tool, j.seed, err)
		return
	}
	want, got := harness.ReportFingerprint(direct), harness.ReportFingerprint(served)
	if got != want {
		t.Errorf("%s under %s (seed %d): server report differs from direct run\n--- direct ---\n%s--- server ---\n%s",
			j.workload, j.tool, j.seed, want, got)
	}
}

// runConformance drives a job list through a shared server with a fleet
// of client goroutines claiming work atomically.
func runConformance(t *testing.T, jobs []confJob) {
	checkLeaks := leakCheck(t)
	srv := startServer(t, serve.Config{MaxSessions: 16})
	addr := srv.Addr().String()

	const fleet = 8
	var next atomic.Int64
	var wg sync.WaitGroup
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
				jobs[idx].run(t, c)
			}
		}()
	}
	wg.Wait()

	snap := srv.Snapshot()
	if snap.SessionsCompleted != int64(len(jobs)) {
		t.Errorf("server completed %d sessions, ran %d jobs", snap.SessionsCompleted, len(jobs))
	}
	if snap.SessionsDisconnected+snap.SessionsFailed != 0 {
		t.Errorf("conformance sessions ended abnormally: %+v", snap)
	}
	srv.Drain()
	checkLeaks()
}

// confTools are the six server presets.
var confTools = []string{"lib", "spin", "nolib", "nolib+locks", "drd", "eraser"}

// TestServerConformanceSuite replays the accuracy suite through the
// server: every case under every preset (one rotating preset per case
// under -short).
func TestServerConformanceSuite(t *testing.T) {
	var jobs []confJob
	i := 0
	for ci, c := range dataracetest.Suite() {
		for ti, tool := range confTools {
			if testing.Short() && ti != ci%len(confTools) {
				continue
			}
			jobs = append(jobs, confJob{
				workload: c.Name, tool: tool, window: 7,
				seed: int64(1 + i%3),
			})
			i++
		}
	}
	runConformance(t, jobs)
}

// TestServerConformanceSynth replays the synthesis corpus through the
// server: 200 seeds (40 under -short) under the spin-featured Helgrind+
// and DRD.
func TestServerConformanceSynth(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	var jobs []confJob
	i := 0
	for seed := 1; seed <= seeds; seed++ {
		for _, tool := range []string{"spin", "drd"} {
			jobs = append(jobs, confJob{
				workload: fmt.Sprintf("synth:%d", seed), tool: tool, window: 7,
				seed: int64(1 + i%3),
			})
			i++
		}
	}
	runConformance(t, jobs)
}
