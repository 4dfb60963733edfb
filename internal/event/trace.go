package event

// Flusher is implemented by sinks that buffer events instead of fully
// processing them inside Handle — the overlap pipeline's segments, a trace
// writer's byte buffer. The vm and the replayers flush such sinks when a
// stream ends, so a Result and its Report are never read with work still
// in flight.
type Flusher interface {
	Flush()
}

// Trace is a Sink that records the event stream for later replay —
// detector benchmarks use it to measure event processing in isolation from
// the vm that produced the stream.
type Trace struct {
	Events []Event
}

// Handle appends a copy of the event.
func (t *Trace) Handle(ev *Event) { t.Events = append(t.Events, *ev) }

// Replay feeds the recorded stream to a sink, flushing it at the end the
// way the vm does.
func (t *Trace) Replay(s Sink) {
	for i := range t.Events {
		s.Handle(&t.Events[i])
	}
	if f, ok := s.(Flusher); ok {
		f.Flush()
	}
}

// multiSink fans an event out to several sinks in order; Flush reaches the
// buffering ones.
type multiSink []Sink

func (m multiSink) Handle(ev *Event) {
	for _, s := range m {
		s.Handle(ev)
	}
}

func (m multiSink) Flush() {
	for _, s := range m {
		if f, ok := s.(Flusher); ok {
			f.Flush()
		}
	}
}
