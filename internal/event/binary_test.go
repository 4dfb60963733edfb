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

// Locations of testTable.
var a7, b42 = ir.Loc{File: "a.c", Line: 7}, ir.Loc{File: "b.c", Line: 42}

// testTable builds a small interning table for synthetic traces.
func testTable() *ir.Interning { return table([]string{"FLAG", "LOCK"}, a7, b42) }

// table interns syms and then locs into a fresh table.
func table(syms []string, locs ...ir.Loc) *ir.Interning {
	tab := ir.NewInterning()
	for _, s := range syms {
		tab.InternSym(s)
	}
	for _, l := range locs {
		tab.InternLoc(l)
	}
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
// the interning table's sizes and digest.
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
	nsyms, nlocs := tab.Len()
	if tr.nsyms != uint64(nsyms) || tr.nlocs != uint64(nlocs) || tr.digest != tab.Digest() {
		t.Fatalf("table round trip: got %d/%d/%016x want %d/%d/%016x",
			tr.nsyms, tr.nlocs, tr.digest, nsyms, nlocs, tab.Digest())
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
// program is rejected before any event decodes, however small the
// difference: each table below differs from the recorded one (or, for the
// boundary shift, from its twin) in one way the digest must see.
func TestTraceCheckTableMismatch(t *testing.T) {
	for _, tc := range []struct {
		name          string
		recorded, got *ir.Interning
	}{
		{"extra sym", testTable(), table([]string{"FLAG", "LOCK", "EXTRA"}, a7, b42)},
		{"renamed syms", testTable(), table([]string{"GALF", "KCOL"}, a7, b42)},
		{"line differs", testTable(), table([]string{"FLAG", "LOCK"}, a7, ir.Loc{File: "b.c", Line: 43})},
		{"syms swapped", testTable(), table([]string{"LOCK", "FLAG"}, a7, b42)},
		{"string boundary", table([]string{"ab", "c"}, a7), table([]string{"a", "bc"}, a7)},
		{"extra loc", testTable(), table([]string{"FLAG", "LOCK"}, a7, b42, ir.Loc{File: "c.c", Line: 1})},
	} {
		data := encodeTrace(t, TraceMeta{}, tc.recorded, testEvents(3))
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: reader: %v", tc.name, err)
		}
		if err := tr.CheckTable(tc.recorded); err != nil {
			t.Fatalf("%s: CheckTable rejected the recorded table: %v", tc.name, err)
		}
		if err := tr.CheckTable(tc.got); err == nil {
			t.Errorf("%s: CheckTable accepted a mismatched table", tc.name)
		}
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

	// The version is the single uvarint byte right after the magic; v1
	// is as foreign as any other.
	for _, v := range []byte{1, TraceVersion + 1} {
		skew := append([]byte(nil), data...)
		skew[4] = v
		if _, err := NewTraceReader(bytes.NewReader(skew)); !errors.Is(err, ErrTraceVersion) {
			t.Fatalf("version %d: got %v, want ErrTraceVersion", v, err)
		}
	}

	// A meta string past maxStringLen is corrupt, whatever follows.
	long := encodeTrace(t, TraceMeta{Workload: strings.Repeat("w", maxStringLen+1)}, testTable(), nil)
	if _, err := NewTraceReader(bytes.NewReader(long)); !errors.Is(err, ErrTraceCorrupt) {
		t.Fatalf("over-long workload name: got %v, want ErrTraceCorrupt", err)
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
	meta                 TraceMeta
	nsyms, nlocs, digest uint64
	evs                  []Event
	count                int64
	err                  error
}

// decodeAll decodes a whole trace read through r.
func decodeAll(r io.Reader) decoded {
	tr, err := NewTraceReader(r)
	if err != nil {
		return decoded{err: err}
	}
	d := decoded{meta: tr.Meta(), nsyms: tr.nsyms, nlocs: tr.nlocs, digest: tr.digest}
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
	case a.nsyms != b.nsyms || a.nlocs != b.nlocs || a.digest != b.digest:
		return "interning table sizes or digest"
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

// longStringMeta is trace meta whose workload name is workloadLen bytes
// and whose tool name is longer than the read window, so header reads
// refill mid-string.
func longStringMeta(workloadLen int) TraceMeta {
	return TraceMeta{Workload: strings.Repeat("w", workloadLen), Tool: strings.Repeat("t", traceWindow+17), Window: 7, Seed: -3}
}

// TestTraceDecodeReaderShapes decodes the same traces through every
// reader shape and requires identical headers, events and counts — the
// window's refills, at any boundary, must be invisible — and, at every
// truncation cut, the same error class and the same events before it.
func TestTraceDecodeReaderShapes(t *testing.T) {
	meta := TraceMeta{Workload: "wl", Tool: "spin", Window: 7, Seed: -3}
	traces := map[string]struct {
		meta TraceMeta
		evs  []Event
	}{
		"short":        {meta, testEvents(40)},
		"multi-window": {meta, testEvents(5000)},
		"long-strings": {longStringMeta(maxStringLen), testEvents(900)},
	}
	for name, tc := range traces {
		data := encodeTrace(t, tc.meta, testTable(), tc.evs)
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
	data := encodeTrace(t, longStringMeta(100), testTable(), testEvents(150))
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
// a header string that straddle the read window.
func FuzzTraceDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ADRT"))
	meta := TraceMeta{Workload: "wl", Tool: "spin", Window: 7, Seed: 1}
	valid := func(meta TraceMeta, n int) []byte {
		var buf bytes.Buffer
		tw := NewTraceWriter(&buf, meta, testTable())
		evs := testEvents(n)
		for i := range evs {
			tw.Handle(&evs[i])
		}
		tw.Close()
		return buf.Bytes()
	}
	f.Add(valid(meta, 0))
	f.Add(valid(meta, 13))
	f.Add(valid(meta, 13)[:20])
	f.Add(valid(meta, 13)[:40])
	f.Add(valid(meta, 700))
	// The workload name starts a few bytes in and ends past the window.
	straddle := meta
	straddle.Workload = strings.Repeat("w", traceWindow)
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
