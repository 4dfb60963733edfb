package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The traced run records a span around every call the benchmark makes into
// a layer's public functions. Spans live in memory until the run ends and
// are then written out in one file; nothing inside the program is traced.

// spanID identifies a recorded span; 0 is "no span".
type spanID int32

// span is one timed call into a layer. Spans of one operation share op
// (the id of the operation's root span); parent is the enclosing span.
type span struct {
	ID     spanID `json:"id"`
	Parent spanID `json:"parent"`
	Op     spanID `json:"op"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rootLayer marks an operation's root span: the benchmark's own code.
const rootLayer = "bench"

// tracer records spans from any goroutine.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// beginOp opens an operation's root span.
func (t *tracer) beginOp() spanID {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Op: id, Layer: rootLayer, Start: start})
	return id
}

// begin opens a span of layer inside parent.
func (t *tracer) begin(parent spanID, layer string) spanID {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.spans[parent-1].Op, Layer: layer, Start: start})
	return id
}

// end closes a span.
func (t *tracer) end(id spanID) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// call runs fn inside a span of layer.
func (t *tracer) call(parent spanID, layer string, fn func()) {
	id := t.begin(parent, layer)
	fn()
	t.end(id)
}

// attribution is one operation's wall time split across layers.
type attribution struct {
	wall  time.Duration
	layer map[string]time.Duration // includes rootLayer: the unattributed part
}

// attribute splits the wall time of every operation across layers. At
// each instant the time goes to the spans that are open and have no open
// child; when several are (concurrent jobs), it is split evenly between
// them. The parts of one operation therefore add up to its wall time
// exactly, and the root's part is the time spent outside any layer call.
func (t *tracer) attribute() []attribution {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	byOp := make(map[spanID][]span)
	var ops []spanID
	for _, s := range spans {
		if s.ID == s.Op {
			ops = append(ops, s.ID)
		}
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	out := make([]attribution, 0, len(ops))
	for _, op := range ops {
		out = append(out, attributeOp(byOp[op]))
	}
	return out
}

// attributeOp sweeps one operation's spans (its root first).
func attributeOp(spans []span) attribution {
	type edge struct {
		at    int64
		start bool
		i     int
	}
	idx := make(map[spanID]int, len(spans))
	edges := make([]edge, 0, 2*len(spans))
	for i, s := range spans {
		idx[s.ID] = i
		if s.End < s.Start {
			spans[i].End = s.Start
		}
		edges = append(edges, edge{s.Start, true, i}, edge{spans[i].End, false, i})
	}
	// At equal times ends go first, children before parents; starts go
	// parents before children. Span ids grow with creation order, so a
	// parent's id is always below its children's.
	sort.Slice(edges, func(a, b int) bool {
		ea, eb := edges[a], edges[b]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		if ea.start != eb.start {
			return !ea.start
		}
		if ea.start {
			return ea.i < eb.i
		}
		return ea.i > eb.i
	})

	active := make([]bool, len(spans))
	openChildren := make([]int, len(spans))
	leaves := make(map[string]int)
	nLeaves := 0
	parentOf := func(i int) int {
		if p, ok := idx[spans[i].Parent]; ok && spans[i].Parent != 0 {
			return p
		}
		return -1
	}
	a := attribution{layer: make(map[string]time.Duration)}
	acc := make(map[string]float64)
	prev := int64(0)
	for k, e := range edges {
		if k > 0 && nLeaves > 0 {
			dt := float64(e.at - prev)
			for l, n := range leaves {
				if n > 0 {
					acc[l] += dt * float64(n) / float64(nLeaves)
				}
			}
		}
		prev = e.at
		i := e.i
		p := parentOf(i)
		if e.start {
			active[i] = true
			if p >= 0 && active[p] {
				if openChildren[p] == 0 {
					leaves[spans[p].Layer]--
					nLeaves--
				}
				openChildren[p]++
			}
			leaves[spans[i].Layer]++
			nLeaves++
			continue
		}
		if openChildren[i] == 0 {
			leaves[spans[i].Layer]--
			nLeaves--
		}
		active[i] = false
		if p >= 0 && active[p] {
			openChildren[p]--
			if openChildren[p] == 0 {
				leaves[spans[p].Layer]++
				nLeaves++
			}
		}
	}
	for l, v := range acc {
		a.layer[l] = time.Duration(v)
	}
	a.wall = time.Duration(spans[0].End - spans[0].Start)
	return a
}

// writeSpans stores every recorded span as JSON at path.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
