package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/vm"
)

// Wire protocol.
//
// Every message is one length-prefixed frame:
//
//	uint32 big-endian payload length | 1 byte frame type | JSON body
//
// A connection carries exactly one session: the client sends one
// FrameRequest and then nothing; the server answers with FrameAccepted,
// streams FrameWarning and FrameResult frames as detection progresses, and
// terminates the session with either the FrameResult marked Last or a
// FrameError. Any bytes the client sends after the request — or closing the
// connection — cancel the session. The server never reorders frames: the
// warnings of run i arrive before run i's result, in exactly the order of
// the run's detect.Report (the byte-identical bar the conformance suite
// holds the server to).

// FrameType discriminates frames on the wire.
type FrameType byte

// Frame types.
const (
	// FrameRequest (client → server): a SessionRequest body.
	FrameRequest FrameType = 'Q'
	// FrameAccepted (server → client): the session was admitted for
	// scheduling; an Accepted body.
	FrameAccepted FrameType = 'A'
	// FrameWarning (server → client): one incremental race report; a
	// WireWarning body.
	FrameWarning FrameType = 'W'
	// FrameResult (server → client): one run's final report counters; a
	// RunResult body. Last marks the session's terminal frame.
	FrameResult FrameType = 'R'
	// FrameError (server → client): the session's terminal error; a
	// WireError body.
	FrameError FrameType = 'E'
	// FrameBusy (server → client): the server shed the request under its
	// admission budget (Config.Shed); a Busy body. Terminal for the
	// connection, retryable by contract — the client Retry helper backs
	// off and re-sends, resuming at the first run the server never
	// completed.
	FrameBusy FrameType = 'B'
)

// maxFrameBytes bounds one frame's payload; anything larger is a protocol
// error (fail loud on garbage or a stream desync, never allocate from a
// corrupt length word).
const maxFrameBytes = 1 << 20

// maxRequestBytes bounds the client's request frame specifically: a
// SessionRequest is a few hundred bytes of JSON, so a length word anywhere
// near the general frame limit is garbage, not a big request — reject it
// before allocating a megabyte on an adversarial header.
const maxRequestBytes = 16 << 10

// Session error codes (WireError.Code).
const (
	// CodeBadRequest: the request frame was malformed or named an unknown
	// workload/tool/knob.
	CodeBadRequest = "bad-request"
	// CodeDraining: the server is shutting down and admits no new sessions.
	CodeDraining = "draining"
	// CodeEvicted: the session was evicted to admit a newer one under the
	// concurrent-session cap.
	CodeEvicted = "evicted"
	// CodeDisconnected: the client went away (connection error mid-session).
	CodeDisconnected = "disconnected"
	// CodeWriteStall: the client stopped reading for longer than the
	// server's write-stall budget and was declared dead.
	CodeWriteStall = "write-stall"
	// CodeShutdown: the server was closed hard while the session ran.
	CodeShutdown = "shutdown"
	// CodeRunFailed: the vm rejected or aborted the workload (step limit,
	// deadlock, invalid program).
	CodeRunFailed = "run-failed"
	// CodeTimeout: a run exceeded the server's per-run deadline
	// (raced -run-timeout).
	CodeTimeout = "run-timeout"
	// CodeInternal: the session crashed inside the server — a workload or
	// detector panic converted into this terminal frame by the session's
	// panic containment. The process survives; the session counts into
	// raced_session_failures.
	CodeInternal = "internal"
)

// SessionRequest opens a detection session: one workload under one tool
// preset, run Repeat times with consecutive seeds on the server's engine.
// It carries no pipeline knob. Fields of retired knobs that older clients
// may still send — overlap, segment_events, shards, adaptive_segments and
// the GC period — are decoded and ignored: each run overlaps detection with
// the vm once its stream is long, and runs a shadow-GC cycle every
// detect.GCPeriod events, whatever the request says.
type SessionRequest struct {
	// Workload names a registered workload (internal/workloads): a PARSEC
	// model, a data-race-test case, or synth:<seed>.
	Workload string `json:"workload"`
	// Tool selects the preset: lib, spin, nolib, nolib+locks, drd, eraser.
	Tool string `json:"tool"`
	// Window is the spin-loop basic-block window (default 7).
	Window int `json:"window,omitempty"`
	// Seed is the first scheduler seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Repeat runs seeds Seed..Seed+Repeat-1 in one session (default 1),
	// sharing the compiled workload across runs.
	Repeat int `json:"repeat,omitempty"`
}

// Accepted acknowledges a valid request.
type Accepted struct {
	SessionID uint64 `json:"session_id"`
	Workload  string `json:"workload"`
	Config    string `json:"config"`
}

// WireWarning is one race warning on the wire — every detect.Warning field,
// plus the session run it belongs to, so the client can reassemble each
// run's report byte for byte.
type WireWarning struct {
	Run      int    `json:"run"`
	Kind     string `json:"kind"`
	File     string `json:"file,omitempty"`
	Line     int    `json:"line,omitempty"`
	Addr     int64  `json:"addr"`
	Sym      string `json:"sym,omitempty"`
	Tid      int    `json:"tid"`
	Other    int    `json:"other"`
	Write    bool   `json:"write"`
	EventIdx int64  `json:"event_idx"`
}

// wireWarning converts a detector warning for the stream.
func wireWarning(run int, w detect.Warning) WireWarning {
	return WireWarning{
		Run: run, Kind: w.Kind.String(),
		File: w.Loc.File, Line: w.Loc.Line,
		Addr: w.Addr, Sym: w.Sym,
		Tid: int(w.Tid), Other: int(w.Other),
		Write: w.Write, EventIdx: w.EventIdx,
	}
}

// Warning converts back to the detector's representation.
func (w WireWarning) Warning() (detect.Warning, error) {
	var kind detect.WarningKind
	switch w.Kind {
	case detect.WarnHBRace.String():
		kind = detect.WarnHBRace
	case detect.WarnLockset.String():
		kind = detect.WarnLockset
	default:
		return detect.Warning{}, fmt.Errorf("serve: unknown warning kind %q", w.Kind)
	}
	return detect.Warning{
		Kind: kind, Loc: ir.Loc{File: w.File, Line: w.Line},
		Addr: w.Addr, Sym: w.Sym,
		Tid: event.Tid(w.Tid), Other: event.Tid(w.Other),
		Write: w.Write, EventIdx: w.EventIdx,
	}, nil
}

// RunResult carries one run's detect.Report counters and vm.Result summary.
// The run's warnings were already streamed as WireWarning frames; Warnings
// counts them so the client can detect a short stream.
type RunResult struct {
	Run  int   `json:"run"`
	Seed int64 `json:"seed"`
	// Last marks the session's terminal frame (run == Repeat-1).
	Last bool `json:"last,omitempty"`

	Config            string `json:"config"`
	Events            int64  `json:"events"`
	SpinEdges         int64  `json:"spin_edges"`
	SpinLoops         int    `json:"spin_loops"`
	InferredLockWords int    `json:"inferred_lock_words,omitempty"`
	ShadowBytes       int64  `json:"shadow_bytes"`
	// ReadSetPromotions counts the run's epoch → read-set transitions.
	ReadSetPromotions int64 `json:"read_set_promotions"`
	SyncEpochHits     int64 `json:"sync_epoch_hits"`
	SyncRebases       int64 `json:"sync_rebases"`
	SyncInflates      int64 `json:"sync_inflates"`
	Warnings          int   `json:"warnings"`
	RacyContexts      int   `json:"racy_contexts"`

	Steps   int64 `json:"steps"`
	Threads int   `json:"threads"`
}

// runResult renders one run for the stream.
func runResult(run int, seed int64, rep *detect.Report, res vm.Result, last bool) RunResult {
	return RunResult{
		Run: run, Seed: seed, Last: last,
		Config:            rep.Config.Name,
		Events:            rep.Events,
		SpinEdges:         rep.SpinEdges,
		SpinLoops:         rep.SpinLoops,
		InferredLockWords: rep.InferredLockWords,
		ShadowBytes:       rep.ShadowBytes,
		ReadSetPromotions: rep.ReadSetPromotions,
		SyncEpochHits:     rep.SyncEpochHits,
		SyncRebases:       rep.SyncRebases,
		SyncInflates:      rep.SyncInflates,
		Warnings:          len(rep.Warnings),
		RacyContexts:      rep.RacyContexts(),
		Steps:             res.Steps,
		Threads:           res.Threads,
	}
}

// Report reassembles the run's detect.Report from the result frame and the
// run's streamed warnings — the object the conformance suite fingerprints
// against a direct Prepared.Run.
func (r *RunResult) Report(warnings []WireWarning) (*detect.Report, error) {
	if len(warnings) != r.Warnings {
		return nil, fmt.Errorf("serve: run %d streamed %d warnings, result frame says %d",
			r.Run, len(warnings), r.Warnings)
	}
	rep := &detect.Report{
		Config:            detect.Config{Name: r.Config},
		Events:            r.Events,
		SpinEdges:         r.SpinEdges,
		SpinLoops:         r.SpinLoops,
		InferredLockWords: r.InferredLockWords,
		ShadowBytes:       r.ShadowBytes,
		ReadSetPromotions: r.ReadSetPromotions,
		SyncEpochHits:     r.SyncEpochHits,
		SyncRebases:       r.SyncRebases,
		SyncInflates:      r.SyncInflates,
	}
	for _, ww := range warnings {
		w, err := ww.Warning()
		if err != nil {
			return nil, err
		}
		rep.Warnings = append(rep.Warnings, w)
	}
	return rep, nil
}

// Busy is the body of a FrameBusy: the server declined the session under
// its admission budget. Unlike a WireError it carries a retry contract —
// the request was never started, so re-sending it verbatim is safe.
type Busy struct {
	// RetryAfterMs is the server's backoff suggestion.
	RetryAfterMs int64 `json:"retry_after_ms"`
	// ActiveSessions is the load at rejection time.
	ActiveSessions int64  `json:"active_sessions"`
	Reason         string `json:"reason,omitempty"`
}

// Error renders the busy rejection as a Go error, so clients can surface
// it unhandled; the Retry helper matches it with errors.As instead.
func (b *Busy) Error() string {
	if b.Reason == "" {
		return "raced: busy"
	}
	return "raced: busy: " + b.Reason
}

// WireError is the terminal frame of a failed session.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message,omitempty"`
}

// Error renders the wire error as a Go error string.
func (e *WireError) Error() string {
	if e.Message == "" {
		return "raced: " + e.Code
	}
	return fmt.Sprintf("raced: %s: %s", e.Code, e.Message)
}

// Frame is one decoded server-to-client frame: exactly one of the pointers
// is set, matching Type.
type Frame struct {
	Type     FrameType
	Accepted *Accepted
	Warning  *WireWarning
	Result   *RunResult
	Err      *WireError
	Busy     *Busy
}

// WriteFrame encodes one frame onto w.
func WriteFrame(w io.Writer, t FrameType, body any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("serve: encode frame %c: %w", t, err)
	}
	if len(payload)+1 > maxFrameBytes {
		return fmt.Errorf("serve: frame %c payload %d bytes exceeds limit", t, len(payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readRawFrame reads one frame's type and payload bytes.
func readRawFrame(r io.Reader) (FrameType, []byte, error) {
	return readRawFrameLimit(r, maxFrameBytes)
}

// readRawFrameLimit is readRawFrame under an explicit payload bound,
// checked against the length word before anything is allocated — a
// corrupt or adversarial header costs four bytes of reading, nothing
// else.
func readRawFrameLimit(r io.Reader, limit uint32) (FrameType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > limit {
		return 0, nil, fmt.Errorf("serve: frame length %d out of range", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return FrameType(payload[0]), payload[1:], nil
}

// ReadFrame reads and decodes one server-to-client frame.
func ReadFrame(r io.Reader) (*Frame, error) {
	t, body, err := readRawFrame(r)
	if err != nil {
		return nil, err
	}
	fr := &Frame{Type: t}
	var dst any
	switch t {
	case FrameAccepted:
		fr.Accepted = &Accepted{}
		dst = fr.Accepted
	case FrameWarning:
		fr.Warning = &WireWarning{}
		dst = fr.Warning
	case FrameResult:
		fr.Result = &RunResult{}
		dst = fr.Result
	case FrameError:
		fr.Err = &WireError{}
		dst = fr.Err
	case FrameBusy:
		fr.Busy = &Busy{}
		dst = fr.Busy
	default:
		return nil, fmt.Errorf("serve: unexpected frame type %q", byte(t))
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return nil, fmt.Errorf("serve: decode frame %c: %w", t, err)
	}
	return fr, nil
}

// readRequest reads the client's opening request frame. The bound is the
// tight request limit, not the general frame limit: on a garbage or
// adversarial length word the connection is rejected before any large
// allocation.
func readRequest(r io.Reader) (*SessionRequest, error) {
	t, body, err := readRawFrameLimit(r, maxRequestBytes)
	if err != nil {
		return nil, err
	}
	if t != FrameRequest {
		return nil, fmt.Errorf("serve: expected request frame, got %q", byte(t))
	}
	req := &SessionRequest{}
	if err := json.Unmarshal(body, req); err != nil {
		return nil, fmt.Errorf("serve: decode request: %w", err)
	}
	return req, nil
}

// ToolConfig resolves a tool preset name (the racedetect -tool vocabulary)
// to its detector configuration. window <= 0 uses the paper's default of 7.
func ToolConfig(tool string, window int) (detect.Config, error) {
	if window <= 0 {
		window = 7
	}
	if window > 1024 {
		return detect.Config{}, fmt.Errorf("serve: spin window %d out of range", window)
	}
	switch tool {
	case "lib":
		return detect.HelgrindPlusLib(), nil
	case "spin", "":
		return detect.HelgrindPlusLibSpin(window), nil
	case "nolib":
		return detect.HelgrindPlusNolibSpin(window), nil
	case "nolib+locks":
		return detect.HelgrindPlusNolibSpinLocks(window), nil
	case "drd":
		return detect.DRD(), nil
	case "eraser":
		return detect.Eraser(), nil
	}
	return detect.Config{}, fmt.Errorf("unknown tool %q (want lib, spin, nolib, nolib+locks, drd, eraser)", tool)
}
