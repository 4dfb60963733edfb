package serve

import (
	"bytes"
	"testing"
)

// FuzzFrameDecode holds the frame decoders to their no-panic, fail-loud
// contract on arbitrary bytes: both the client-side ReadFrame and the
// server-side readRequest must either produce a well-formed frame or
// return an error — never panic, never allocate from a corrupt length
// word, and never hand back a frame whose typed body is missing. Decoded
// frames must survive a re-encode/decode round trip.
func FuzzFrameDecode(f *testing.F) {
	seed := func(t FrameType, body any) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, t, body); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(FrameRequest, &SessionRequest{Workload: "synth:1", Tool: "spin", Repeat: 3})
	seed(FrameAccepted, &Accepted{SessionID: 7, Workload: "synth:1", Config: "spin"})
	seed(FrameWarning, &WireWarning{Run: 1, Kind: "ww"})
	seed(FrameResult, &RunResult{Run: 0, Seed: 1, Last: true})
	seed(FrameError, &WireError{Code: CodeBadRequest, Message: "nope"})
	seed(FrameBusy, &Busy{RetryAfterMs: 200, ActiveSessions: 3, Reason: "session budget"})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'Q'})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 2, 'R', '{'})
	f.Add([]byte("\x00\x00\x00\x09Qnot json"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err == nil {
			var body any
			switch fr.Type {
			case FrameAccepted:
				body = fr.Accepted
			case FrameWarning:
				body = fr.Warning
			case FrameResult:
				body = fr.Result
			case FrameError:
				body = fr.Err
			case FrameBusy:
				body = fr.Busy
			default:
				t.Fatalf("ReadFrame accepted unknown type %q", byte(fr.Type))
			}
			if body == nil {
				t.Fatalf("frame %q decoded with a nil body", byte(fr.Type))
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, fr.Type, body); err != nil {
				t.Fatalf("re-encode %q: %v", byte(fr.Type), err)
			}
			if _, err := ReadFrame(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("round trip %q: %v", byte(fr.Type), err)
			}
		}
		req, err := readRequest(bytes.NewReader(data))
		if err == nil && req == nil {
			t.Fatalf("readRequest returned neither request nor error")
		}
	})
}
