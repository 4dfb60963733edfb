package event

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"adhocrace/internal/ir"
)

// testTable builds a small interning table for synthetic traces.
func testTable() *ir.Interning {
	tab := ir.NewInterning()
	tab.InternSym("FLAG")
	tab.InternSym("LOCK")
	tab.InternLoc(ir.Loc{File: "a.c", Line: 7})
	tab.InternLoc(ir.Loc{File: "b.c", Line: 42})
	return tab
}

// testEvents synthesizes n events cycling through every kind with every
// kind-valid field populated (including negative addresses and values, to
// exercise the zigzag encoding).
func testEvents(n int) []Event {
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		tid := Tid(i % 5)
		switch Kind(i % int(KindSpinExit+1)) {
		case KindRead:
			evs = append(evs, Event{Kind: KindRead, Tid: tid, Addr: int64(i * 8), Value: -int64(i), Sym: 1, Loc: 1})
		case KindWrite:
			evs = append(evs, Event{Kind: KindWrite, Tid: tid, Addr: -int64(i * 8), Value: int64(i), Sym: ir.NoSym, Loc: 2})
		case KindAtomicRead:
			evs = append(evs, Event{Kind: KindAtomicRead, Tid: tid, Addr: 16, Value: 1, Sym: 2, Loc: ir.NoLoc})
		case KindAtomicWrite:
			evs = append(evs, Event{Kind: KindAtomicWrite, Tid: tid, Addr: 16, Value: 0, Sym: 2, Loc: 1, RMW: i%2 == 0})
		case KindSyncPre:
			evs = append(evs, Event{Kind: KindSyncPre, Tid: tid, Sync: ir.SyncMutexLock, Addr: 128, Addr2: 136, Loc: 2})
		case KindSyncPost:
			evs = append(evs, Event{Kind: KindSyncPost, Tid: tid, Sync: ir.SyncMutexUnlock, Addr: 128, Loc: 1})
		case KindSpawn:
			evs = append(evs, Event{Kind: KindSpawn, Tid: tid, Child: tid + 1})
		case KindJoin:
			evs = append(evs, Event{Kind: KindJoin, Tid: tid, Child: tid + 1})
		case KindThreadStart:
			evs = append(evs, Event{Kind: KindThreadStart, Tid: tid})
		case KindThreadExit:
			evs = append(evs, Event{Kind: KindThreadExit, Tid: tid})
		case KindSpinRead:
			evs = append(evs, Event{Kind: KindSpinRead, Tid: tid, SpinLoop: int32(i % 3), Addr: 8, Value: -1, Loc: 2})
		case KindSpinExit:
			evs = append(evs, Event{Kind: KindSpinExit, Tid: tid, SpinLoop: int32(i % 3)})
		}
	}
	return evs
}

// encodeTrace writes events into a finalized trace.
func encodeTrace(t *testing.T, meta TraceMeta, tab *ir.Interning, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, meta, tab)
	for i := range evs {
		tw.Handle(&evs[i])
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

// TestTraceRoundTrip pins the format's core property: every field of
// every kind survives encode → decode exactly, along with the meta and
// interning tables.
func TestTraceRoundTrip(t *testing.T) {
	tab := testTable()
	meta := TraceMeta{Workload: "wl", Tool: "spin", Window: 7, Seed: -3}
	want := testEvents(997)
	data := encodeTrace(t, meta, tab, want)

	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if tr.Meta() != meta {
		t.Fatalf("meta round trip: got %+v want %+v", tr.Meta(), meta)
	}
	if err := tr.CheckTable(tab); err != nil {
		t.Fatalf("table round trip: %v", err)
	}
	var got []Event
	var ev Event
	for {
		ok, err := tr.Next(&ev)
		if err != nil {
			t.Fatalf("next after %d events: %v", len(got), err)
		}
		if !ok {
			break
		}
		got = append(got, ev)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream round trip: %d events decoded, %d written", len(got), len(want))
	}
	if tr.Count() != int64(len(want)) {
		t.Fatalf("count: got %d want %d", tr.Count(), len(want))
	}
	// A second Next after the end marker stays a clean end.
	if ok, err := tr.Next(&ev); ok || err != nil {
		t.Fatalf("next after end: ok=%v err=%v", ok, err)
	}
}

// TestTraceCheckTableMismatch verifies a replayer rebuilding a different
// program is rejected before any event decodes.
func TestTraceCheckTableMismatch(t *testing.T) {
	data := encodeTrace(t, TraceMeta{}, testTable(), testEvents(3))
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	other := testTable()
	other.InternSym("EXTRA")
	if err := tr.CheckTable(other); err == nil {
		t.Fatal("CheckTable accepted a mismatched table")
	}
	renamed := ir.NewInterning()
	renamed.InternSym("GALF")
	renamed.InternSym("KCOL")
	renamed.InternLoc(ir.Loc{File: "a.c", Line: 7})
	renamed.InternLoc(ir.Loc{File: "b.c", Line: 42})
	if err := tr.CheckTable(renamed); err == nil {
		t.Fatal("CheckTable accepted renamed symbols")
	}
}

// TestTraceHeaderRejection covers the header error paths: wrong magic,
// version skew, and truncation at every header prefix length.
func TestTraceHeaderRejection(t *testing.T) {
	data := encodeTrace(t, TraceMeta{Workload: "wl", Tool: "spin", Window: 7, Seed: 1}, testTable(), testEvents(5))

	bad := append([]byte("JUNK"), data[4:]...)
	if _, err := NewTraceReader(bytes.NewReader(bad)); !errors.Is(err, ErrTraceMagic) {
		t.Fatalf("bad magic: got %v, want ErrTraceMagic", err)
	}
	if _, err := NewTraceReader(bytes.NewReader(nil)); !errors.Is(err, ErrTraceMagic) {
		t.Fatalf("empty input: got %v, want ErrTraceMagic", err)
	}

	// The version is the single uvarint byte right after the magic.
	skew := append([]byte(nil), data...)
	skew[4] = TraceVersion + 1
	if _, err := NewTraceReader(bytes.NewReader(skew)); !errors.Is(err, ErrTraceVersion) {
		t.Fatalf("version skew: got %v, want ErrTraceVersion", err)
	}

	// Truncating anywhere inside the header must reject, never panic.
	// (The header of this trace ends well before byte 64.)
	for cut := 5; cut < 64 && cut < len(data); cut++ {
		if _, err := NewTraceReader(bytes.NewReader(data[:cut])); err == nil {
			// A cut can land exactly on the header/stream boundary; then
			// the reader opens fine and the stream is what's truncated.
			tr, _ := NewTraceReader(bytes.NewReader(data[:cut]))
			var ev Event
			for {
				ok, nerr := tr.Next(&ev)
				if nerr != nil {
					break
				}
				if !ok {
					t.Fatalf("cut at %d decoded a clean end from a truncated trace", cut)
				}
			}
		}
	}
}

// TestTraceTruncatedStream verifies a trace cut inside the event stream
// or missing its end marker surfaces ErrTraceCorrupt.
func TestTraceTruncatedStream(t *testing.T) {
	data := encodeTrace(t, TraceMeta{}, testTable(), testEvents(64))
	for _, cut := range []int{len(data) - 1, len(data) - 2, len(data) - 8} {
		tr, err := NewTraceReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header rejected: %v", cut, err)
		}
		var ev Event
		for {
			ok, err := tr.Next(&ev)
			if err != nil {
				if !errors.Is(err, ErrTraceCorrupt) {
					t.Fatalf("cut %d: got %v, want ErrTraceCorrupt", cut, err)
				}
				break
			}
			if !ok {
				t.Fatalf("cut %d: truncated trace decoded a clean end", cut)
			}
		}
	}

	// A forged end-marker count must be caught.
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, TraceMeta{}, testTable())
	evs := testEvents(4)
	for i := range evs {
		tw.Handle(&evs[i])
	}
	tw.count = 99 // lie about the total
	if err := tw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	tr, err := NewTraceReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	var ev Event
	for {
		ok, err := tr.Next(&ev)
		if err != nil {
			if !errors.Is(err, ErrTraceCorrupt) {
				t.Fatalf("count mismatch: got %v, want ErrTraceCorrupt", err)
			}
			return
		}
		if !ok {
			t.Fatal("count mismatch went undetected")
		}
	}
}

// TestTraceReaderZeroAlloc pins the steady-state decode loop at zero
// allocations per event — the replay hot path's budget, same bar as the
// pipeline's other 0-alloc pins.
func TestTraceReaderZeroAlloc(t *testing.T) {
	const n = 8192
	data := encodeTrace(t, TraceMeta{Workload: "wl"}, testTable(), testEvents(n))
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	var ev Event
	allocs := testing.AllocsPerRun(n/2, func() {
		if ok, err := tr.Next(&ev); !ok || err != nil {
			t.Fatalf("next: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Next allocates %.1f per event, want 0", allocs)
	}
}

// decoded is everything a reader yields for one input: the header, the
// events up to the first error, and that error (nil at a clean end).
type decoded struct {
	meta  TraceMeta
	syms  []string
	locs  []ir.Loc
	evs   []Event
	count int64
	err   error
}

// decodeAll decodes a whole trace read through r.
func decodeAll(r io.Reader) decoded {
	tr, err := NewTraceReader(r)
	if err != nil {
		return decoded{err: err}
	}
	d := decoded{meta: tr.Meta(), syms: tr.Syms(), locs: tr.Locs()}
	var ev Event
	for {
		ok, err := tr.Next(&ev)
		if err != nil || !ok {
			d.count, d.err = tr.Count(), err
			return d
		}
		d.evs = append(d.evs, ev)
	}
}

// errClass names the ErrTrace* class of a decode error ("" for nil).
func errClass(err error) string {
	for _, c := range []error{ErrTraceMagic, ErrTraceVersion, ErrTraceCorrupt} {
		if errors.Is(err, c) {
			return c.Error()
		}
	}
	if err != nil {
		return "unclassified: " + err.Error()
	}
	return ""
}

// sameDecode reports how two decodes of one input differ ("" when they
// agree on the header, every event, the count and the error class).
func sameDecode(a, b decoded) string {
	switch {
	case errClass(a.err) != errClass(b.err):
		return "error " + errClass(a.err) + " vs " + errClass(b.err)
	case a.meta != b.meta:
		return "meta"
	case !reflect.DeepEqual(a.syms, b.syms) || !reflect.DeepEqual(a.locs, b.locs):
		return "interning tables"
	case a.count != b.count || !reflect.DeepEqual(a.evs, b.evs):
		return "events"
	}
	return ""
}

// readerShapes are the input shapes a trace reader must decode alike:
// whole-buffer reads, one byte per Read, and half of every request.
var readerShapes = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"bytes", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
}

// longStringTable is testTable plus a symbol of symLen bytes and location
// files longer than the read window, so header reads refill mid-string.
func longStringTable(symLen int) *ir.Interning {
	tab := testTable()
	tab.InternSym(strings.Repeat("S", symLen))
	tab.InternLoc(ir.Loc{File: strings.Repeat("f", traceWindow+17), Line: 3})
	tab.InternLoc(ir.Loc{File: strings.Repeat("f", traceWindow+17), Line: 4})
	tab.InternLoc(ir.Loc{File: "c.c", Line: 9})
	return tab
}

// TestTraceDecodeReaderShapes decodes the same traces through every
// reader shape and requires identical headers, events and counts — the
// window's refills, at any boundary, must be invisible — and, at every
// truncation cut, the same error class and the same events before it.
func TestTraceDecodeReaderShapes(t *testing.T) {
	meta := TraceMeta{Workload: "wl", Tool: "spin", Window: 7, Seed: -3}
	traces := map[string]struct {
		tab *ir.Interning
		evs []Event
	}{
		"short":        {testTable(), testEvents(40)},
		"multi-window": {testTable(), testEvents(5000)},
		"long-strings": {longStringTable(maxStringLen), testEvents(900)},
	}
	for name, tc := range traces {
		data := encodeTrace(t, meta, tc.tab, tc.evs)
		want := decodeAll(readerShapes[0].wrap(data))
		if want.err != nil || !reflect.DeepEqual(want.evs, tc.evs) || want.count != int64(len(tc.evs)) {
			t.Fatalf("%s: round trip failed: err=%v, %d of %d events", name, want.err, len(want.evs), len(tc.evs))
		}
		for _, shape := range readerShapes[1:] {
			if diff := sameDecode(want, decodeAll(shape.wrap(data))); diff != "" {
				t.Fatalf("%s: %s reader differs from bytes.Reader: %s", name, shape.name, diff)
			}
		}
	}

	// Every cut of a trace whose header and events each span a window
	// boundary.
	data := encodeTrace(t, meta, longStringTable(100), testEvents(150))
	if len(data) < traceWindow+150 {
		t.Fatalf("truncation trace is %d bytes, want its events past the first window", len(data))
	}
	for cut := 0; cut < len(data); cut++ {
		want := decodeAll(readerShapes[0].wrap(data[:cut]))
		class := ErrTraceCorrupt
		if cut < len(traceMagic) {
			class = ErrTraceMagic
		}
		if !errors.Is(want.err, class) {
			t.Fatalf("cut %d: got %v, want %v", cut, want.err, class)
		}
		for _, shape := range readerShapes[1:] {
			// A one-byte decode costs a Read per byte; every seventh cut
			// keeps the quadratic sweep quick under -race.
			if shape.name == "one-byte" && cut%7 != 0 {
				continue
			}
			if diff := sameDecode(want, decodeAll(shape.wrap(data[:cut]))); diff != "" {
				t.Fatalf("cut %d: %s reader differs from bytes.Reader: %s", cut, shape.name, diff)
			}
		}
	}
}

// FuzzTraceDecode drives the decoder with arbitrary bytes: it must reject
// or cleanly decode every input — no panics, no unbounded allocation —
// on valid traces the decoded count must match the reader's tally, and
// decoding one byte per Read must match decoding whole buffers exactly
// (the window's refills are invisible). The larger seeds hold events and
// header strings that straddle the read window.
func FuzzTraceDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ADRT"))
	valid := func(tab *ir.Interning, n int) []byte {
		var buf bytes.Buffer
		tw := NewTraceWriter(&buf, TraceMeta{Workload: "wl", Tool: "spin", Window: 7, Seed: 1}, tab)
		evs := testEvents(n)
		for i := range evs {
			tw.Handle(&evs[i])
		}
		tw.Close()
		return buf.Bytes()
	}
	f.Add(valid(testTable(), 0))
	f.Add(valid(testTable(), 13))
	f.Add(valid(testTable(), 13)[:20])
	f.Add(valid(testTable(), 13)[:40])
	f.Add(valid(testTable(), 700))
	straddle := testTable()
	straddle.InternLoc(ir.Loc{File: strings.Repeat("f", traceWindow-40), Line: 1})
	f.Add(valid(straddle, 200))
	f.Add(valid(straddle, 200)[:traceWindow+3])
	f.Fuzz(func(t *testing.T, data []byte) {
		got := decodeAll(bytes.NewReader(data))
		if got.err == nil && got.count != int64(len(got.evs)) {
			t.Fatalf("decoded %d events, reader counted %d", len(got.evs), got.count)
		}
		if diff := sameDecode(got, decodeAll(iotest.OneByteReader(bytes.NewReader(data)))); diff != "" {
			t.Fatalf("one-byte reads differ from whole-buffer reads: %s", diff)
		}
	})
}
