package event

// Binary trace record/replay.
//
// A recorded trace is the detector's entire input — the totally ordered
// event stream plus the interning tables that give its Sym/Loc ids
// meaning — so replaying one through a fresh detector reproduces the
// original report byte for byte without running the vm at all. That is
// what the replay benchmarks measure (decode and detection, no vm) and
// what `racedetect -record/-replay` expose on the command line.
//
// Layout (all integers varint-encoded, signed fields zigzag):
//
//	"ADRT" magic | version | meta (workload, tool, window, seed)
//	sym table    | loc table          (dense, index == id)
//	events: tag(kind+1) + per-kind fields ...
//	end: tag 0 + total event count    (truncation check)
//
// Events are encoded per kind — only the fields that kind populates are
// in the stream — so a typical access costs a handful of bytes. The
// reader decodes into a caller-owned Event with no allocation in the
// steady state; all header allocations are bounded up front so a corrupt
// or adversarial header cannot balloon memory (the fuzz target's bar).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"adhocrace/internal/ir"
)

// TraceVersion is the current binary trace format version. A reader
// rejects every other version — the format carries no compatibility
// shims; re-record instead.
const TraceVersion = 1

// traceMagic brands a binary trace file ("ad-hoc race trace").
const traceMagic = "ADRT"

// Decode-side bounds: a header must not make the reader allocate more
// than these, whatever its length words claim.
const (
	maxTableEntries = 1 << 20
	maxStringLen    = 1 << 16
	// traceFlushBytes is the writer's internal buffer threshold.
	traceFlushBytes = 32 << 10
	// traceWindow is the reader's input window: it reads input in
	// chunks of up to this many bytes and decodes from the slice.
	traceWindow = 4 << 10
	// maxTid bounds decoded thread ids; a real run's ids are dense and
	// small, so anything near the cap is corruption, not scale.
	maxTid = 1 << 30
)

// Trace decode errors, distinguishable by errors.Is.
var (
	// ErrTraceMagic: the input does not start with a trace header.
	ErrTraceMagic = errors.New("event: not a binary trace (bad magic)")
	// ErrTraceVersion: the trace was written by an incompatible format
	// version.
	ErrTraceVersion = errors.New("event: unsupported trace version")
	// ErrTraceCorrupt: the header or stream is malformed or truncated.
	ErrTraceCorrupt = errors.New("event: corrupt trace")
)

// TraceMeta is the provenance a trace header carries: everything a
// replayer needs to rebuild the recording side (the workload registry
// name, the short tool name and spin window to resolve the detector
// configuration, and the scheduler seed the recording ran under).
type TraceMeta struct {
	Workload string
	Tool     string
	Window   int
	Seed     int64
}

// TraceWriter streams events into the binary trace format. It is a Sink
// (single producer goroutine, like every sink) and a Flusher; errors from
// the underlying writer are sticky and surface from Close, so the hot
// Handle path stays error-check-free for callers.
type TraceWriter struct {
	w      io.Writer
	buf    []byte
	count  uint64
	closed bool
	err    error
}

// NewTraceWriter writes the trace header (magic, version, meta, and the
// interning tables — pass the recorded program's ir.Program.Interning; nil
// means an empty table) and returns the streaming writer. The caller must
// Close it to finalize the trace.
func NewTraceWriter(w io.Writer, meta TraceMeta, tab *ir.Interning) *TraceWriter {
	if tab == nil {
		tab = ir.NewInterning()
	}
	t := &TraceWriter{w: w, buf: make([]byte, 0, traceFlushBytes)}
	t.buf = append(t.buf, traceMagic...)
	t.buf = binary.AppendUvarint(t.buf, TraceVersion)
	t.str(meta.Workload)
	t.str(meta.Tool)
	t.buf = binary.AppendUvarint(t.buf, uint64(meta.Window))
	t.buf = binary.AppendVarint(t.buf, meta.Seed)
	syms := tab.Syms()
	t.buf = binary.AppendUvarint(t.buf, uint64(len(syms)))
	for _, s := range syms {
		t.str(s)
	}
	locs := tab.Locs()
	t.buf = binary.AppendUvarint(t.buf, uint64(len(locs)))
	for _, l := range locs {
		t.str(l.File)
		t.buf = binary.AppendUvarint(t.buf, uint64(l.Line))
	}
	return t
}

// str appends a length-prefixed string.
func (t *TraceWriter) str(s string) {
	t.buf = binary.AppendUvarint(t.buf, uint64(len(s)))
	t.buf = append(t.buf, s...)
}

// Handle implements Sink: encode one event. Per-kind encoding — the
// switch mirrors the Event doc comment's field-validity table exactly,
// and the decoder's round-trip test (full-field equality against real vm
// streams) keeps the two in sync.
func (t *TraceWriter) Handle(ev *Event) {
	if t.err != nil || t.closed {
		return
	}
	b := t.buf
	b = binary.AppendUvarint(b, uint64(ev.Kind)+1)
	b = binary.AppendUvarint(b, uint64(ev.Tid))
	switch {
	case ev.Kind.IsAccess():
		b = binary.AppendVarint(b, ev.Addr)
		b = binary.AppendVarint(b, ev.Value)
		b = binary.AppendUvarint(b, uint64(ev.Sym))
		b = binary.AppendUvarint(b, uint64(ev.Loc))
		if ev.Kind == KindAtomicWrite {
			rmw := byte(0)
			if ev.RMW {
				rmw = 1
			}
			b = append(b, rmw)
		}
	case ev.Kind == KindSyncPre || ev.Kind == KindSyncPost:
		b = binary.AppendUvarint(b, uint64(ev.Sync))
		b = binary.AppendVarint(b, ev.Addr)
		b = binary.AppendVarint(b, ev.Addr2)
		b = binary.AppendUvarint(b, uint64(ev.Loc))
	case ev.Kind == KindSpawn || ev.Kind == KindJoin:
		b = binary.AppendUvarint(b, uint64(ev.Child))
	case ev.Kind == KindSpinRead:
		b = binary.AppendUvarint(b, uint64(ev.SpinLoop))
		b = binary.AppendVarint(b, ev.Addr)
		b = binary.AppendVarint(b, ev.Value)
		b = binary.AppendUvarint(b, uint64(ev.Loc))
	case ev.Kind == KindSpinExit:
		b = binary.AppendUvarint(b, uint64(ev.SpinLoop))
	}
	t.buf = b
	t.count++
	if len(t.buf) >= traceFlushBytes {
		t.flushBuf()
	}
}

// flushBuf writes the internal buffer through, keeping the first error.
func (t *TraceWriter) flushBuf() {
	if len(t.buf) == 0 || t.err != nil {
		return
	}
	_, err := t.w.Write(t.buf)
	if err != nil && t.err == nil {
		t.err = err
	}
	t.buf = t.buf[:0]
}

// Flush implements Flusher: push buffered bytes to the underlying writer.
// The trace is not finalized until Close.
func (t *TraceWriter) Flush() { t.flushBuf() }

// Count returns the events encoded so far.
func (t *TraceWriter) Count() int64 { return int64(t.count) }

// Close finalizes the trace — end marker, total event count, final flush —
// and returns the first error the underlying writer produced. Idempotent.
func (t *TraceWriter) Close() error {
	if !t.closed {
		t.closed = true
		t.buf = binary.AppendUvarint(t.buf, 0)
		t.buf = binary.AppendUvarint(t.buf, t.count)
		t.flushBuf()
	}
	return t.err
}

// TraceReader decodes a binary trace: the header eagerly (bounded
// allocation), then one event per Next call into a caller-owned Event
// with no steady-state allocation. Input is pulled through a fixed window
// of traceWindow bytes and decoded from the slice, so a one-byte varint —
// most tags, tids, syms and locs — costs a compare and an index.
type TraceReader struct {
	r     io.Reader
	rerr  error // first error r returned (io.EOF at the end of input)
	pos   int   // win[pos:end] is read but not yet decoded
	end   int
	meta  TraceMeta
	syms  []string
	locs  []ir.Loc
	count uint64
	done  bool
	win   [traceWindow]byte
}

// NewTraceReader parses the trace header and returns a reader positioned
// at the first event. Returns ErrTraceMagic, ErrTraceVersion, or
// ErrTraceCorrupt (all wrapped with detail) on a bad header. The reader
// reads ahead of the event it decodes, so r must hold nothing after the
// trace that its caller still needs.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	t := &TraceReader{r: r}
	var m [len(traceMagic)]byte
	magic, ok := t.appendN(m[:0], len(m))
	if !ok {
		return nil, fmt.Errorf("%w: input ends after %d bytes", ErrTraceMagic, len(magic))
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("%w: got %q", ErrTraceMagic, magic)
	}
	version, ok := t.uvarint()
	if !ok {
		return nil, t.corrupt("truncated version")
	}
	if version != TraceVersion {
		return nil, fmt.Errorf("%w: trace is v%d, reader is v%d", ErrTraceVersion, version, TraceVersion)
	}
	if err := t.readHeader(); err != nil {
		return nil, err
	}
	return t, nil
}

// maxEmptyReads is how many consecutive empty reads fill tolerates before
// giving up with io.ErrNoProgress (bufio's bound).
const maxEmptyReads = 100

// fill moves the undecoded bytes to the front of the window and reads
// more input behind them, reporting whether any arrived.
func (t *TraceReader) fill() bool {
	if t.rerr != nil {
		return false
	}
	t.end = copy(t.win[:], t.win[t.pos:t.end])
	t.pos = 0
	for range maxEmptyReads {
		n, err := t.r.Read(t.win[t.end:])
		t.end += n
		if err != nil {
			t.rerr = err
		}
		if n > 0 {
			return true
		}
		if err != nil {
			return false
		}
	}
	t.rerr = io.ErrNoProgress
	return false
}

// uvarint decodes an unsigned varint; false on truncation or overflow.
// A one-byte varint is a compare and an index on the window; only longer
// ones, or one the window ends inside, take the slow path.
func (t *TraceReader) uvarint() (uint64, bool) {
	if t.pos < t.end {
		if b := t.win[t.pos]; b < 0x80 {
			t.pos++
			return uint64(b), true
		}
	}
	return t.uvarintSlow()
}

// uvarintSlow decodes a multi-byte varint, refilling the window until the
// varint is whole in it.
func (t *TraceReader) uvarintSlow() (uint64, bool) {
	for {
		v, n := binary.Uvarint(t.win[t.pos:t.end])
		if n > 0 {
			t.pos += n
			return v, true
		}
		if n < 0 || !t.fill() {
			return 0, false
		}
	}
}

// varint decodes a zigzag-encoded signed varint (binary.AppendVarint).
func (t *TraceReader) varint() (int64, bool) {
	u, ok := t.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x, ok
}

// readByte decodes one raw byte.
func (t *TraceReader) readByte() (byte, bool) {
	if t.pos == t.end && !t.fill() {
		return 0, false
	}
	b := t.win[t.pos]
	t.pos++
	return b, true
}

// appendN appends the next n input bytes to dst; false when the input
// ends first. dst grows only as bytes arrive, so a length word cannot
// make it allocate more than the input holds.
func (t *TraceReader) appendN(dst []byte, n int) ([]byte, bool) {
	for n > 0 {
		if t.pos == t.end && !t.fill() {
			return dst, false
		}
		k := min(n, t.end-t.pos)
		dst = append(dst, t.win[t.pos:t.pos+k]...)
		t.pos += k
		n -= k
	}
	return dst, true
}

// headerStrings gathers a header's strings into one arena, so that every
// string the header holds is cut from a single allocation. A string equal
// to the one before it — the usual case for the location table's file
// names — is stored once and counted as a run.
type headerStrings struct {
	arena []byte
	runs  []strRun
}

// strRun is one string, ending at arena offset end, repeated count times
// in header order.
type strRun struct{ end, count int }

// read decodes one length-prefixed string, bounded by maxStringLen.
func (h *headerStrings) read(t *TraceReader) bool {
	n, ok := t.uvarint()
	if !ok || n > maxStringLen {
		return false
	}
	start := len(h.arena)
	if h.arena, ok = t.appendN(h.arena, int(n)); !ok {
		return false
	}
	if k := len(h.runs) - 1; k >= 0 {
		prev := 0
		if k > 0 {
			prev = h.runs[k-1].end
		}
		if bytes.Equal(h.arena[prev:start], h.arena[start:]) {
			h.arena = h.arena[:start]
			h.runs[k].count++
			return true
		}
	}
	h.runs = append(h.runs, strRun{end: len(h.arena), count: 1})
	return true
}

// cut converts the arena to one string and returns a function yielding
// the header's strings in order, each a slice of that string.
func (h *headerStrings) cut() func() string {
	all := string(h.arena)
	run, used, start := 0, 0, 0
	return func() string {
		r := h.runs[run]
		s := all[start:r.end]
		if used++; used == r.count {
			run, used, start = run+1, 0, r.end
		}
		return s
	}
}

// readHeader decodes meta and the interning tables.
func (t *TraceReader) readHeader() error {
	var h headerStrings
	if !h.read(t) {
		return t.corrupt("workload name")
	}
	if !h.read(t) {
		return t.corrupt("tool name")
	}
	window, ok := t.uvarint()
	if !ok || window > maxTableEntries {
		return t.corrupt("spin window")
	}
	t.meta.Window = int(window)
	if t.meta.Seed, ok = t.varint(); !ok {
		return t.corrupt("seed")
	}
	nsyms, ok := t.uvarint()
	if !ok || nsyms > maxTableEntries {
		return t.corrupt("symbol table size")
	}
	t.syms = make([]string, nsyms)
	for range t.syms {
		if !h.read(t) {
			return t.corrupt("symbol table")
		}
	}
	nlocs, ok := t.uvarint()
	if !ok || nlocs > maxTableEntries {
		return t.corrupt("location table size")
	}
	t.locs = make([]ir.Loc, nlocs)
	for i := range t.locs {
		if !h.read(t) {
			return t.corrupt("location table")
		}
		line, ok := t.uvarint()
		if !ok || line > maxTableEntries {
			return t.corrupt("location line")
		}
		t.locs[i].Line = int(line)
	}
	next := h.cut()
	t.meta.Workload = next()
	t.meta.Tool = next()
	for i := range t.syms {
		t.syms[i] = next()
	}
	for i := range t.locs {
		t.locs[i].File = next()
	}
	return nil
}

// corrupt wraps ErrTraceCorrupt with position detail.
func (t *TraceReader) corrupt(what string) error {
	return fmt.Errorf("%w: %s (after %d events)", ErrTraceCorrupt, what, t.count)
}

// Meta returns the recorded provenance.
func (t *TraceReader) Meta() TraceMeta { return t.meta }

// Syms returns the recorded symbol table (index == ir.SymID). The caller
// must not mutate it.
func (t *TraceReader) Syms() []string { return t.syms }

// Locs returns the recorded location table (index == ir.LocID).
func (t *TraceReader) Locs() []ir.Loc { return t.locs }

// Count returns the events decoded so far.
func (t *TraceReader) Count() int64 { return int64(t.count) }

// CheckTable verifies the recorded interning tables are identical to a
// replay-side table — the contract that makes the trace's Sym/Loc ids
// meaningful against a rebuilt program. Interning is deterministic for a
// given program build (function/block/instruction order), so a mismatch
// means the replayer rebuilt a different program than was recorded.
func (t *TraceReader) CheckTable(tab *ir.Interning) error {
	syms, locs := tab.Syms(), tab.Locs()
	if len(syms) != len(t.syms) || len(locs) != len(t.locs) {
		return fmt.Errorf("event: trace interning mismatch: recorded %d syms / %d locs, program has %d / %d",
			len(t.syms), len(t.locs), len(syms), len(locs))
	}
	for i := range syms {
		if syms[i] != t.syms[i] {
			return fmt.Errorf("event: trace interning mismatch: sym %d is %q, program has %q", i, t.syms[i], syms[i])
		}
	}
	for i := range locs {
		if locs[i] != t.locs[i] {
			return fmt.Errorf("event: trace interning mismatch: loc %d is %v, program has %v", i, t.locs[i], locs[i])
		}
	}
	return nil
}

// Next decodes the next event into ev, returning false at the trace's
// end marker (with the recorded count verified). Allocation-free in the
// steady state; every decoded id is bounds-checked against the header's
// tables so downstream consumers can trust the ids.
func (t *TraceReader) Next(ev *Event) (bool, error) {
	if t.done {
		return false, nil
	}
	tag, ok := t.uvarint()
	if !ok {
		return false, t.corrupt("truncated event stream")
	}
	if tag == 0 {
		n, ok := t.uvarint()
		if !ok {
			return false, t.corrupt("truncated end marker")
		}
		if n != t.count {
			return false, t.corrupt(fmt.Sprintf("event count mismatch: marker says %d", n))
		}
		t.done = true
		return false, nil
	}
	kind := Kind(tag - 1)
	if kind > KindSpinExit {
		return false, t.corrupt(fmt.Sprintf("unknown event kind %d", tag-1))
	}
	*ev = Event{Kind: kind}
	tid, ok := t.uvarint()
	if !ok || tid > maxTid {
		return false, t.corrupt("thread id")
	}
	ev.Tid = Tid(tid)
	switch {
	case kind.IsAccess():
		if err := t.readAccess(ev); err != nil {
			return false, err
		}
	case kind == KindSyncPre || kind == KindSyncPost:
		if err := t.readSync(ev); err != nil {
			return false, err
		}
	case kind == KindSpawn || kind == KindJoin:
		child, ok := t.uvarint()
		if !ok || child > maxTid {
			return false, t.corrupt("child thread id")
		}
		ev.Child = Tid(child)
	case kind == KindSpinRead:
		if err := t.readSpinRead(ev); err != nil {
			return false, err
		}
	case kind == KindSpinExit:
		loop, ok := t.uvarint()
		if !ok || loop > maxTableEntries {
			return false, t.corrupt("spin loop id")
		}
		ev.SpinLoop = int32(loop)
	}
	t.count++
	return true, nil
}

// readAccess decodes the access-kind payload.
func (t *TraceReader) readAccess(ev *Event) error {
	var ok bool
	if ev.Addr, ok = t.varint(); !ok {
		return t.corrupt("access addr")
	}
	if ev.Value, ok = t.varint(); !ok {
		return t.corrupt("access value")
	}
	sym, ok := t.uvarint()
	if !ok || sym >= uint64(len(t.syms)) {
		return t.corrupt("access sym id")
	}
	ev.Sym = ir.SymID(sym)
	loc, ok := t.uvarint()
	if !ok || loc >= uint64(len(t.locs)) {
		return t.corrupt("access loc id")
	}
	ev.Loc = ir.LocID(loc)
	if ev.Kind == KindAtomicWrite {
		rmw, ok := t.readByte()
		if !ok || rmw > 1 {
			return t.corrupt("rmw flag")
		}
		ev.RMW = rmw == 1
	}
	return nil
}

// readSync decodes the sync pre/post payload.
func (t *TraceReader) readSync(ev *Event) error {
	sk, ok := t.uvarint()
	if !ok || sk > 255 {
		return t.corrupt("sync kind")
	}
	ev.Sync = ir.SyncKind(sk)
	if ev.Addr, ok = t.varint(); !ok {
		return t.corrupt("sync addr")
	}
	if ev.Addr2, ok = t.varint(); !ok {
		return t.corrupt("sync addr2")
	}
	loc, ok := t.uvarint()
	if !ok || loc >= uint64(len(t.locs)) {
		return t.corrupt("sync loc id")
	}
	ev.Loc = ir.LocID(loc)
	return nil
}

// readSpinRead decodes the spin-read payload.
func (t *TraceReader) readSpinRead(ev *Event) error {
	loop, ok := t.uvarint()
	if !ok || loop > maxTableEntries {
		return t.corrupt("spin loop id")
	}
	ev.SpinLoop = int32(loop)
	if ev.Addr, ok = t.varint(); !ok {
		return t.corrupt("spin addr")
	}
	if ev.Value, ok = t.varint(); !ok {
		return t.corrupt("spin value")
	}
	loc, ok := t.uvarint()
	if !ok || loc >= uint64(len(t.locs)) {
		return t.corrupt("spin loc id")
	}
	ev.Loc = ir.LocID(loc)
	return nil
}

// Replay feeds the remaining events to a sink, flushing it at the end the
// way the vm does, and returns the events delivered. One Event is reused
// for every Handle call, so the sink must not retain the pointer — the
// standard Sink contract.
func (t *TraceReader) Replay(s Sink) (int64, error) {
	var ev Event
	start := t.count
	for {
		ok, err := t.Next(&ev)
		if err != nil {
			return int64(t.count - start), err
		}
		if !ok {
			break
		}
		s.Handle(&ev)
	}
	if f, ok := s.(Flusher); ok {
		f.Flush()
	}
	return int64(t.count - start), nil
}
