package serve

import (
	"net"
	"testing"
)

// TestSessionDoneOnceFinalFrameQueued pins the completion-vs-disconnect
// accounting below the conn handler, where the interleaving is fixed: the
// session's run queues its last result frame, the client reads it and
// hangs up, and only then do the reader watch and an eviction scan look at
// the session. A client closing after its last frame is a completed
// session, not a disconnect, and a session that has streamed everything
// is no eviction victim: its admission slot is already free.
func TestSessionDoneOnceFinalFrameQueued(t *testing.T) {
	srv := New(Config{MaxSessions: 1})
	defer srv.Close()
	req := SessionRequest{Workload: "synth:3", Tool: "spin", Seed: 1, Repeat: 2}
	cfg, err := ToolConfig(req.Tool, req.Window)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := srv.cache.get(req.Workload)
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	defer client.Close()
	ss := newSession(srv, 1, req, cfg, prep, server)
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
	client.Close()
	ss.readWatch() // returns on the client's EOF
	srv.evictOldest()
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
