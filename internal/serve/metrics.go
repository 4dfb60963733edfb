package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"adhocrace/internal/harness"
	"adhocrace/internal/obs"
)

// Metrics is the server's counter set: the aggregate detector statistics
// every completed run folds into (harness.RunStats — events, shadow bytes,
// epoch-hit rate, read-set promotions) plus session-lifecycle gauges. All
// fields are atomics; the HTTP endpoint and tests read them live while
// sessions run.
type Metrics struct {
	start time.Time

	// stats aggregates detect.Report counters over completed runs.
	stats harness.RunStats

	sessionsTotal     atomic.Int64
	sessionsActive    atomic.Int64
	sessionsPeak      atomic.Int64
	sessionsCompleted atomic.Int64
	sessionsEvicted   atomic.Int64
	sessionsDisc      atomic.Int64
	sessionsFailed    atomic.Int64
	sessionsRejected  atomic.Int64
	// sessionsShed counts connections refused with a retryable Busy frame
	// under the shed admission policy (Config.Shed).
	sessionsShed atomic.Int64
	// sessionFailures counts panics converted to terminal error frames at
	// a containment boundary (session run, conn handler, teardown). One
	// incident can both fail a session (sessionsFailed, by terminal code)
	// and count here; this counter is the panic-specific alarm.
	sessionFailures atomic.Int64

	warningsStreamed atomic.Int64
}

func newMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

// sessionStarted records an admitted session and maintains the peak gauge.
func (m *Metrics) sessionStarted() {
	m.sessionsTotal.Add(1)
	n := m.sessionsActive.Add(1)
	for {
		peak := m.sessionsPeak.Load()
		if n <= peak || m.sessionsPeak.CompareAndSwap(peak, n) {
			return
		}
	}
}

// sessionEnded records a session's terminal outcome ("" = completed),
// once per session (session.end). The active gauge already dropped when
// the session finished (session.finish).
func (m *Metrics) sessionEnded(code string) {
	switch code {
	case "":
		m.sessionsCompleted.Add(1)
	case CodeEvicted:
		m.sessionsEvicted.Add(1)
	case CodeDisconnected, CodeWriteStall:
		m.sessionsDisc.Add(1)
	default:
		m.sessionsFailed.Add(1)
	}
}

// SessionInfo is one live session's gauges, as exposed on the metrics
// endpoint.
type SessionInfo struct {
	ID       uint64  `json:"id"`
	Workload string  `json:"workload"`
	Config   string  `json:"config"`
	Seed     int64   `json:"seed"`
	Repeat   int     `json:"repeat"`
	RunsDone int64   `json:"runs_done"`
	Events   int64   `json:"events"`
	Warnings int64   `json:"warnings"`
	Age      float64 `json:"age_seconds"`
}

// Snapshot is one consistent-enough read of every server counter — the
// /metrics.json body and the test-facing view.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`

	SessionsTotal        int64 `json:"sessions_total"`
	SessionsActive       int64 `json:"sessions_active"`
	SessionsPeak         int64 `json:"sessions_peak"`
	SessionsCompleted    int64 `json:"sessions_completed"`
	SessionsEvicted      int64 `json:"sessions_evicted"`
	SessionsDisconnected int64 `json:"sessions_disconnected"`
	SessionsFailed       int64 `json:"sessions_failed"`
	SessionsRejected     int64 `json:"sessions_rejected"`
	SessionsShed         int64 `json:"sessions_shed"`
	SessionFailures      int64 `json:"session_failures"`

	Runs            int64   `json:"runs"`
	Events          int64   `json:"events"`
	LiveEvents      int64   `json:"live_events"`
	EventsPerSecond float64 `json:"events_per_second"`
	ShadowBytes     int64   `json:"shadow_bytes"`

	// ReadSetPromotions sums the runs' epoch → read-set transitions (the
	// Result frame's read_set_promotions).
	ReadSetPromotions int64 `json:"read_set_promotions"`
	SyncEpochHits     int64 `json:"sync_epoch_hits"`
	SyncRebases       int64 `json:"sync_rebases"`
	SyncInflates      int64 `json:"sync_inflates"`
	// EpochHitRate is hits/(hits+rebases+inflates), the paper's headline
	// sync-side compression figure.
	EpochHitRate float64 `json:"epoch_hit_rate"`

	GCCycles          int64 `json:"gc_cycles"`
	GCWordsRetired    int64 `json:"gc_words_retired"`
	GCSyncObjsRetired int64 `json:"gc_sync_objs_retired"`

	WarningsStreamed int64 `json:"warnings_streamed"`

	// Go runtime health of the server process itself.
	Goroutines          int     `json:"goroutines"`
	HeapInuseBytes      uint64  `json:"heap_inuse_bytes"`
	HeapAllocBytes      uint64  `json:"heap_alloc_bytes"`
	GCPauseTotalSeconds float64 `json:"gc_pause_total_seconds"`
	NumGC               uint32  `json:"num_gc"`
	NumCPU              int     `json:"num_cpu"`
	GoMaxProcs          int     `json:"gomaxprocs"`

	// Pipeline is the observability layer's process-wide view: stage
	// histograms (segment applies, producer stalls, GC cycles, outbox
	// stalls) and execution counters, aggregated over every
	// session including traced ones.
	Pipeline obs.Snapshot `json:"pipeline"`

	Sessions []SessionInfo `json:"sessions,omitempty"`
}

// Snapshot reads every counter. Runs/Events/ShadowBytes cover completed
// runs; LiveEvents adds the event taps of in-flight sessions, so it moves
// while a long run streams.
func (s *Server) Snapshot() Snapshot {
	m := s.metrics
	snap := Snapshot{
		UptimeSeconds:        time.Since(m.start).Seconds(),
		Draining:             s.isDraining(),
		SessionsTotal:        m.sessionsTotal.Load(),
		SessionsActive:       m.sessionsActive.Load(),
		SessionsPeak:         m.sessionsPeak.Load(),
		SessionsCompleted:    m.sessionsCompleted.Load(),
		SessionsEvicted:      m.sessionsEvicted.Load(),
		SessionsDisconnected: m.sessionsDisc.Load(),
		SessionsFailed:       m.sessionsFailed.Load(),
		SessionsRejected:     m.sessionsRejected.Load(),
		SessionsShed:         m.sessionsShed.Load(),
		SessionFailures:      m.sessionFailures.Load(),
		Runs:                 m.stats.Runs.Load(),
		Events:               m.stats.Events.Load(),
		ShadowBytes:          m.stats.ShadowBytes.Load(),
		ReadSetPromotions:    m.stats.Promotions.Load(),
		SyncEpochHits:        m.stats.EpochHits.Load(),
		SyncRebases:          m.stats.Rebases.Load(),
		SyncInflates:         m.stats.Inflates.Load(),
		WarningsStreamed:     m.warningsStreamed.Load(),
	}
	if total := snap.SyncEpochHits + snap.SyncRebases + snap.SyncInflates; total > 0 {
		snap.EpochHitRate = float64(snap.SyncEpochHits) / float64(total)
	}

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	snap.Goroutines = runtime.NumGoroutine()
	snap.HeapInuseBytes = mem.HeapInuse
	snap.HeapAllocBytes = mem.HeapAlloc
	snap.GCPauseTotalSeconds = float64(mem.PauseTotalNs) / 1e9
	snap.NumGC = mem.NumGC
	snap.NumCPU = runtime.NumCPU()
	snap.GoMaxProcs = runtime.GOMAXPROCS(0)
	snap.Pipeline = s.obs.Snapshot()

	snap.LiveEvents = snap.Events
	now := time.Now()
	s.mu.Lock()
	for _, ss := range s.sessions {
		snap.LiveEvents += ss.tap.Total()
		snap.Sessions = append(snap.Sessions, SessionInfo{
			ID:       ss.id,
			Workload: ss.req.Workload,
			Config:   ss.cfg.Name,
			Seed:     ss.req.Seed,
			Repeat:   ss.req.Repeat,
			RunsDone: ss.runsDone.Load(),
			Events:   ss.tap.Total(),
			Warnings: ss.warnCount.Load(),
			Age:      now.Sub(ss.started).Seconds(),
		})
	}
	s.mu.Unlock()
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].ID < snap.Sessions[j].ID })
	if snap.UptimeSeconds > 0 {
		snap.EventsPerSecond = float64(snap.LiveEvents) / snap.UptimeSeconds
	}
	return snap
}

// MetricsHandler serves the metrics endpoint:
//
//	/metrics       counters in Prometheus text exposition format
//	/metrics.json  the full Snapshot, including per-session gauges
//	/healthz       200 while serving, 503 once draining
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, s.Snapshot().prometheus())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.isDraining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	// Live profiling of the serving process (CPU, heap, goroutine, block,
	// mutex), registered explicitly — the server never touches
	// http.DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// prometheus renders the snapshot in text exposition format.
func (snap Snapshot) prometheus() string {
	var b strings.Builder
	g := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP raced_%s %s\n# TYPE raced_%s gauge\nraced_%s %g\n",
			name, help, name, name, v)
	}
	c := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP raced_%s %s\n# TYPE raced_%s counter\nraced_%s %d\n",
			name, help, name, name, v)
	}
	g("uptime_seconds", "seconds since server start", snap.UptimeSeconds)
	c("sessions_total", "sessions admitted", snap.SessionsTotal)
	g("sessions_active", "sessions currently running", float64(snap.SessionsActive))
	g("sessions_peak", "maximum concurrent sessions observed", float64(snap.SessionsPeak))
	c("sessions_completed", "sessions that ran to completion", snap.SessionsCompleted)
	c("sessions_evicted", "sessions evicted under the session cap", snap.SessionsEvicted)
	c("sessions_disconnected", "sessions ended by client disconnect or write stall", snap.SessionsDisconnected)
	c("sessions_failed", "sessions ended by a run failure", snap.SessionsFailed)
	c("sessions_rejected", "connections refused before admission", snap.SessionsRejected)
	c("sessions_shed", "connections shed with a retryable busy frame", snap.SessionsShed)
	c("session_failures", "panics contained and converted to session errors", snap.SessionFailures)
	c("runs_total", "detector runs completed", snap.Runs)
	c("events_total", "events detected over completed runs", snap.Events)
	c("live_events_total", "events including in-flight sessions", snap.LiveEvents)
	g("events_per_second", "live events over uptime", snap.EventsPerSecond)
	c("shadow_bytes_total", "shadow bytes summed over completed runs", snap.ShadowBytes)
	c("read_set_promotions_total", "epoch to read-set promotions", snap.ReadSetPromotions)
	c("sync_epoch_hits_total", "clock-store release/acquire epoch hits", snap.SyncEpochHits)
	c("sync_rebases_total", "clock-store rebases", snap.SyncRebases)
	c("sync_inflates_total", "clock-store inflations to full vector clocks", snap.SyncInflates)
	g("epoch_hit_rate", "epoch hits over all clock-store operations", snap.EpochHitRate)
	c("gc_cycles_total", "shadow-gc quiescence cycles run", snap.GCCycles)
	c("gc_words_retired_total", "shadow words retired by the gc", snap.GCWordsRetired)
	c("gc_sync_objs_retired_total", "happens-before sync objects retired by the gc", snap.GCSyncObjsRetired)
	c("warnings_streamed_total", "race warnings streamed to clients", snap.WarningsStreamed)
	g("goroutines", "goroutines in the server process", float64(snap.Goroutines))
	g("heap_inuse_bytes", "Go heap bytes in use", float64(snap.HeapInuseBytes))
	g("heap_alloc_bytes", "Go heap bytes allocated and live", float64(snap.HeapAllocBytes))
	g("gc_pause_total_seconds", "cumulative Go GC stop-the-world pause seconds", snap.GCPauseTotalSeconds)
	g("gomaxprocs", "GOMAXPROCS of the server process", float64(snap.GoMaxProcs))
	g("num_cpu", "CPUs visible to the server process", float64(snap.NumCPU))
	for _, pc := range snap.Pipeline.Counters {
		c("pipeline_"+pc.Name, "pipeline counter (internal/obs)", pc.Value)
	}
	for _, h := range snap.Pipeline.Hists {
		name := "raced_pipeline_" + h.Name
		fmt.Fprintf(&b, "# HELP %s pipeline stage histogram (internal/obs, log2 buckets)\n# TYPE %s histogram\n",
			name, name)
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", name, bk.Le, bk.Count)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, h.Count)
	}
	for _, ss := range snap.Sessions {
		lbl := fmt.Sprintf("{id=%q,workload=%q,config=%q}", fmt.Sprint(ss.ID), ss.Workload, ss.Config)
		fmt.Fprintf(&b, "raced_session_runs_done%s %d\n", lbl, ss.RunsDone)
		fmt.Fprintf(&b, "raced_session_events%s %d\n", lbl, ss.Events)
		fmt.Fprintf(&b, "raced_session_warnings%s %d\n", lbl, ss.Warnings)
		fmt.Fprintf(&b, "raced_session_age_seconds%s %g\n", lbl, ss.Age)
	}
	return b.String()
}
