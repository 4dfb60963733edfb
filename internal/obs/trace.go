// Chrome trace-event export: a tracing Recorder's span buffer serialized
// as the JSON object format (`{"traceEvents": [...]}`) that
// chrome://tracing and Perfetto load directly. Span tracks map to trace
// "threads" inside a per-pipeline "process" group; durations use "X"
// complete events, markers use "i" instants, and track/process names ride
// on "M" metadata events.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// traceEvent is one entry of the Chrome trace-event JSON array.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	Pid   int32          `json:"pid"`
	Tid   int32          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level trace object.
type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// WriteTrace serializes the recorded spans as Chrome trace-event JSON.
// Only meaningful on a tracing recorder; a counter-mode or nil recorder
// writes an empty (but valid) trace.
func (r *Recorder) WriteTrace(w io.Writer) error {
	var events []traceEvent
	if r != nil {
		r.mu.Lock()
		spans := append([]span(nil), r.spans...)
		procs := append([]string(nil), r.procs...)
		r.mu.Unlock()

		// Name every process group and every track that has spans.
		type key struct {
			pid int32
			tr  Track
		}
		tracks := map[key]bool{}
		for _, s := range spans {
			tracks[key{s.pid, s.track}] = true
		}
		for pid, label := range procs {
			if label == "" {
				continue
			}
			events = append(events, traceEvent{
				Name: "process_name", Phase: "M", Pid: int32(pid),
				Args: map[string]any{"name": label},
			})
		}
		keys := make([]key, 0, len(tracks))
		for k := range tracks {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].pid != keys[j].pid {
				return keys[i].pid < keys[j].pid
			}
			return keys[i].tr < keys[j].tr
		})
		for _, k := range keys {
			events = append(events, traceEvent{
				Name: "thread_name", Phase: "M", Pid: k.pid, Tid: int32(k.tr),
				Args: map[string]any{"name": trackNames[k.tr]},
			})
		}
		for _, s := range spans {
			name := s.name
			if name == "" {
				name = trackNames[s.track]
			}
			ev := traceEvent{
				Name: name, Pid: s.pid, Tid: int32(s.track),
				Ts: float64(s.start) / 1e3,
			}
			if s.dur < 0 {
				ev.Phase = "i"
				ev.Scope = "t"
			} else {
				ev.Phase = "X"
				ev.Dur = float64(s.dur) / 1e3
			}
			if s.arg != 0 {
				ev.Args = map[string]any{"n": s.arg}
			}
			events = append(events, ev)
		}
		if d := r.dropped.Load(); d > 0 {
			events = append(events, traceEvent{
				Name:  fmt.Sprintf("trace buffer full: %d spans dropped", d),
				Phase: "i", Scope: "g",
			})
		}
	}
	if events == nil {
		events = []traceEvent{}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceFile{TraceEvents: events}); err != nil {
		return err
	}
	return bw.Flush()
}

// TraceSummary is what ValidateTrace extracts from an exported trace:
// span/instant counts per named track.
type TraceSummary struct {
	// Events counts non-metadata events per track name.
	Events map[string]int
	// Total is the number of non-metadata events.
	Total int
}

// ValidateTrace parses Chrome trace-event JSON and tallies events per
// named track. It errors if the JSON does not parse, has no traceEvents,
// or contains an event with an unknown phase — the checks `make
// trace-smoke` gates on.
func ValidateTrace(rd io.Reader) (*TraceSummary, error) {
	var tf traceFile
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("trace JSON: %w", err)
	}
	if len(tf.TraceEvents) == 0 {
		return nil, fmt.Errorf("trace JSON: no traceEvents")
	}
	// First pass: thread names, per (pid, tid).
	type key struct{ pid, tid int32 }
	names := map[key]string{}
	for _, ev := range tf.TraceEvents {
		if ev.Phase == "M" && ev.Name == "thread_name" {
			if n, ok := ev.Args["name"].(string); ok {
				names[key{ev.Pid, ev.Tid}] = n
			}
		}
	}
	sum := &TraceSummary{Events: map[string]int{}}
	for _, ev := range tf.TraceEvents {
		switch ev.Phase {
		case "M":
			continue
		case "X", "i", "I":
		default:
			return nil, fmt.Errorf("trace JSON: unknown phase %q on %q", ev.Phase, ev.Name)
		}
		name := names[key{ev.Pid, ev.Tid}]
		if name == "" {
			name = ev.Name
		}
		sum.Events[name]++
		sum.Total++
	}
	return sum, nil
}
