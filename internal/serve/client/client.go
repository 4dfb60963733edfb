// Package client is the Go client for the raced server (internal/serve):
// it opens one session per connection, iterates the server's frame stream,
// and can reassemble each run's detect.Report from the streamed warnings —
// the object the conformance suite compares byte-for-byte against a direct
// Prepared.Run.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/serve"
)

// Client dials raced sessions on one server address.
type Client struct {
	network, addr string
	// DialTimeout bounds connection setup (default 10s).
	DialTimeout time.Duration
	// FrameTimeout bounds each frame read: a server that goes silent this
	// long mid-session fails the read with a deadline error instead of
	// hanging the caller forever (default 5m — far past any per-run gap a
	// healthy server produces; <0 disables).
	FrameTimeout time.Duration
}

// New returns a client for the server at network/addr ("tcp" or "unix").
func New(network, addr string) *Client {
	return &Client{
		network:      network,
		addr:         addr,
		DialTimeout:  10 * time.Second,
		FrameTimeout: 5 * time.Minute,
	}
}

// Session is one open detection session. Next iterates the server's
// frames; Close abandons the session (the server notices the disconnect
// and cancels the run).
type Session struct {
	// ID is the server-assigned session id (from the accepted frame).
	ID uint64
	// Config is the server-resolved tool configuration name.
	Config string

	conn         net.Conn
	br           *bufio.Reader
	frameTimeout time.Duration
	done         bool
}

// Open dials the server, sends the request, and waits for admission. The
// returned session must be closed.
func (c *Client) Open(req serve.SessionRequest) (*Session, error) {
	conn, err := net.DialTimeout(c.network, c.addr, c.DialTimeout)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(conn)
	if err := serve.WriteFrame(bw, serve.FrameRequest, &req); err != nil {
		conn.Close()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	s := &Session{conn: conn, br: bufio.NewReader(conn), frameTimeout: c.FrameTimeout}
	fr, err := s.Next()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if fr.Type != serve.FrameAccepted {
		conn.Close()
		return nil, fmt.Errorf("client: expected accepted frame, got %c", byte(fr.Type))
	}
	s.ID = fr.Accepted.SessionID
	s.Config = fr.Accepted.Config
	return s, nil
}

// Next reads the session's next frame. A server-side error frame is
// returned as an error (*serve.WireError), a shed rejection (which comes
// instead of the accepted frame) as *serve.Busy; the frame after the last
// run's result is io.EOF territory — callers stop at Result.Last or on
// error.
func (s *Session) Next() (*serve.Frame, error) {
	if s.frameTimeout > 0 {
		s.conn.SetReadDeadline(time.Now().Add(s.frameTimeout))
	}
	fr, err := serve.ReadFrame(s.br)
	if err != nil {
		return nil, err
	}
	if fr.Type == serve.FrameError {
		s.done = true
		return nil, fr.Err
	}
	if fr.Type == serve.FrameBusy {
		s.done = true
		return nil, fr.Busy
	}
	if fr.Type == serve.FrameResult && fr.Result.Last {
		s.done = true
	}
	return fr, nil
}

// Close releases the connection. Closing before the terminal frame aborts
// the session server-side.
func (s *Session) Close() error { return s.conn.Close() }

// RunOutcome is one completed run: its result frame and streamed warnings.
type RunOutcome struct {
	Result   serve.RunResult
	Warnings []serve.WireWarning
}

// Report reassembles the run's detect.Report.
func (r *RunOutcome) Report() (*detect.Report, error) {
	return r.Result.Report(r.Warnings)
}

// Outcome is a completed session: every run, in order.
type Outcome struct {
	SessionID uint64
	Config    string
	Runs      []RunOutcome
}

// Run executes one session to completion and collects every run. On a
// server-side error the partial outcome accompanies the error.
func (c *Client) Run(req serve.SessionRequest) (*Outcome, error) {
	s, err := c.Open(req)
	if err != nil {
		return nil, err
	}
	return s.collect()
}

// RunRetry is Run opened through OpenRetry: a shed request backs off and
// is sent again; once admitted, the session runs as Run's does.
func (c *Client) RunRetry(req serve.SessionRequest, p RetryPolicy) (*Outcome, error) {
	s, err := c.OpenRetry(req, p)
	if err != nil {
		return nil, err
	}
	return s.collect()
}

// collect reads the session to its terminal frame, then closes it.
func (s *Session) collect() (*Outcome, error) {
	defer s.Close()
	out := &Outcome{SessionID: s.ID, Config: s.Config}
	var warnings []serve.WireWarning
	for {
		fr, err := s.Next()
		if err != nil {
			return out, err
		}
		switch fr.Type {
		case serve.FrameWarning:
			if fr.Warning.Run != len(out.Runs) {
				return out, fmt.Errorf("client: warning for run %d during run %d", fr.Warning.Run, len(out.Runs))
			}
			warnings = append(warnings, *fr.Warning)
		case serve.FrameResult:
			if fr.Result.Run != len(out.Runs) {
				return out, fmt.Errorf("client: result for run %d, expected %d", fr.Result.Run, len(out.Runs))
			}
			out.Runs = append(out.Runs, RunOutcome{Result: *fr.Result, Warnings: warnings})
			warnings = nil
			if fr.Result.Last {
				return out, nil
			}
		default:
			return out, fmt.Errorf("client: unexpected frame %c mid-session", byte(fr.Type))
		}
	}
}

// RetryPolicy shapes OpenRetry's backoff on a Busy rejection. The zero
// value means the defaults in parentheses.
type RetryPolicy struct {
	// Attempts is the total number of tries, first included (5).
	Attempts int
	// BaseDelay is the first backoff; each retry doubles it (50ms).
	BaseDelay time.Duration
	// MaxDelay caps the doubling (2s). The server's RetryAfterMs hint on a
	// Busy rejection acts as a floor under the computed delay.
	MaxDelay time.Duration
	// Seed drives the deterministic jitter (1).
	Seed int64
	// Sleep replaces time.Sleep — the tests' clock hook.
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Retryable reports whether err invites another attempt: a Busy shed, the
// server's answer to a request it did not admit, so no run started.
// Everything else — bad requests, run failures, transport errors — is
// terminal.
func Retryable(err error) bool {
	var busy *serve.Busy
	return errors.As(err, &busy)
}

// OpenRetry is Open with capped exponential backoff (plus deterministic
// jitter) on retryable rejections. The server sheds a request before it
// accepts it, so a retry re-sends the request as it was and an admitted
// session streams exactly as Open's does.
func (c *Client) OpenRetry(req serve.SessionRequest, p RetryPolicy) (*Session, error) {
	p = p.withDefaults()
	jitter := uint64(p.Seed)
	var err error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if attempt > 0 {
			p.Sleep(retryDelay(p, attempt, err, &jitter))
		}
		var s *Session
		if s, err = c.Open(req); err == nil || !Retryable(err) {
			return s, err
		}
	}
	return nil, err
}

// retryDelay computes the attempt's backoff: base doubled per retry,
// capped, jittered to 50–100% of the cap value, floored by the server's
// Busy hint when one accompanied the last failure.
func retryDelay(p RetryPolicy, attempt int, lastErr error, jitter *uint64) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	// xorshift64: deterministic per policy seed, so tests can pin delays.
	x := *jitter
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*jitter = x
	d = d/2 + time.Duration(x%uint64(d/2+1))
	var busy *serve.Busy
	if errors.As(lastErr, &busy) {
		if hint := time.Duration(busy.RetryAfterMs) * time.Millisecond; d < hint {
			d = hint
		}
	}
	return d
}
