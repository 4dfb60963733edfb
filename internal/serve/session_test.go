package serve

import (
	"net"
	"testing"

	"adhocrace/internal/detect"
)

// TestSessionDoneOnceFinalFrameQueued pins the completion-vs-disconnect
// accounting below the conn handler, where the interleaving is fixed: the
// session's run queues its last result frame, the client reads it and
// hangs up, and only then does the reader watch look at the session. A
// client closing after its last frame is a completed session, not a
// disconnect, and a session that has streamed everything holds no
// admission slot: a client reconnecting at once is not shed.
func TestSessionDoneOnceFinalFrameQueued(t *testing.T) {
	srv := New(Config{MaxSessions: 1})
	defer srv.Close()
	ss, server, client := runToFinalFrame(t, srv)
	defer client.Close()
	client.Close()
	ss.readWatch() // returns on the client's EOF
	if ss.canceled() {
		t.Errorf("session canceled (%s) after queueing its final frame", ss.cancelCode())
	}
	if len(srv.tokens) != 1 {
		t.Errorf("admission slot still held after the final frame was queued")
	}
	if got := srv.Snapshot().SessionsActive; got != 0 {
		t.Errorf("active sessions = %d after the final frame, want 0", got)
	}
	close(ss.outbox)
	<-ss.writerDone
	server.Close()
}

// runToFinalFrame admits one two-run session on srv's only slot, the way
// the conn handler does, and runs it until its client has read the final
// result frame. The conn handler's own epilogue has not run yet.
func runToFinalFrame(t *testing.T, srv *Server) (ss *session, server, client net.Conn) {
	t.Helper()
	req := SessionRequest{Workload: "synth:3", Tool: "spin", Seed: 1, Repeat: 2}
	cfg, err := detect.Preset(req.Tool, req.Window)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := srv.cache.get(req.Workload)
	if err != nil {
		t.Fatal(err)
	}
	server, client = net.Pipe()
	ss = newSession(srv, 1, req, cfg, prep, server)
	<-srv.tokens // admitted: the session holds the only slot
	srv.metrics.sessionStarted()
	srv.mu.Lock()
	srv.sessions[ss.id] = ss
	srv.mu.Unlock()
	go ss.writeLoop()

	lastRead := make(chan error, 1)
	go func() {
		for {
			fr, err := ReadFrame(client)
			if err != nil {
				lastRead <- err
				return
			}
			if fr.Type == FrameResult && fr.Result.Last {
				lastRead <- nil
				return
			}
		}
	}()
	ss.run()
	if err := <-lastRead; err != nil {
		t.Fatalf("client read: %v", err)
	}
	return ss, server, client
}

// TestSessionCompletedOnceFinalFrameQueued pins the completion count at
// the same point: a client that has read its final result frame must find
// the session counted as completed before the conn handler's epilogue
// runs (a Snapshot right after client.Run returns), and the handler's
// epilogue must not count it a second time.
func TestSessionCompletedOnceFinalFrameQueued(t *testing.T) {
	srv := New(Config{MaxSessions: 1})
	defer srv.Close()
	ss, server, client := runToFinalFrame(t, srv)
	defer client.Close()
	if got := srv.Snapshot().SessionsCompleted; got != 1 {
		t.Errorf("completed sessions = %d once the final frame was read, want 1", got)
	}
	// The conn handler's epilogue after run returns.
	ss.finish()
	ss.end(ss.cancelCode())
	snap := srv.Snapshot()
	if snap.SessionsCompleted != 1 || snap.SessionsFailed+snap.SessionsDisconnected != 0 {
		t.Errorf("after the handler epilogue: %+v, want exactly one completed session", snap)
	}
	close(ss.outbox)
	<-ss.writerDone
	server.Close()
}
