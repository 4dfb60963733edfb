package ir

// Symbol and location interning.
//
// The event hot path used to carry a `Sym string` and a by-value Loc
// (which holds a File string) on every runtime event, so every segment
// buffer was full of pointers the GC had to scan and the
// copies had to write-barrier. Interning replaces both with dense uint32
// ids resolved once at compile/decode time; the strings are materialized
// only at warning-formatting time (warnings are rare). Id 0 is reserved
// for "no symbol" / "unknown location" in both spaces, so the zero Event
// stays meaningful.

// SymID is an interned static symbol. 0 means no symbol (a computed
// address).
type SymID uint32

// LocID is an interned source location. 0 means the unknown location.
type LocID uint32

// NoSym / NoLoc are the reserved null ids.
const (
	NoSym SymID = 0
	NoLoc LocID = 0
)

// Interning is a symbol and location table. Ids are assigned densely in
// first-intern order, which is deterministic for a given program build —
// the record/replay format relies on that to keep ids stable between the
// recording run and a replay against a rebuilt program, and a trace names
// its table by Len and Digest alone.
//
// Concurrency: Intern* mutate and must stay on one goroutine (the eager
// Program.Interning build, or a single-threaded test). The lookup methods
// (SymName, LocAt, SymOf, LocOf, Len, Digest) are read-only and safe
// concurrently once the table is built — which is why Program.Interning
// interns every instruction up front instead of lazily per event.
type Interning struct {
	syms  []string
	locs  []Loc
	symIx map[string]SymID
	locIx map[Loc]LocID
	// symHash and locHash are FNV-1a over the entries interned so far,
	// in id order, each string framed by its length.
	symHash, locHash uint64
}

// FNV-1a 64-bit parameters (hash/fnv's).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvUint folds x's eight bytes, low first, into the FNV-1a state h.
func fnvUint(h, x uint64) uint64 {
	for range 8 {
		h = (h ^ x&0xff) * fnvPrime
		x >>= 8
	}
	return h
}

// fnvString folds s, framed by its length, into the FNV-1a state h.
func fnvString(h uint64, s string) uint64 {
	h = fnvUint(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// NewInterning returns a table holding only the null entries.
func NewInterning() *Interning {
	return &Interning{
		syms:    []string{""},
		locs:    []Loc{{}},
		symIx:   map[string]SymID{"": NoSym},
		locIx:   map[Loc]LocID{{}: NoLoc},
		symHash: fnvOffset,
		locHash: fnvOffset,
	}
}

// InternSym returns the id of the symbol, interning it if new.
func (t *Interning) InternSym(s string) SymID {
	if id, ok := t.symIx[s]; ok {
		return id
	}
	id := SymID(len(t.syms))
	t.syms = append(t.syms, s)
	t.symIx[s] = id
	t.symHash = fnvString(t.symHash, s)
	return id
}

// InternLoc returns the id of the location, interning it if new.
func (t *Interning) InternLoc(l Loc) LocID {
	if id, ok := t.locIx[l]; ok {
		return id
	}
	id := LocID(len(t.locs))
	t.locs = append(t.locs, l)
	t.locIx[l] = id
	t.locHash = fnvUint(fnvString(t.locHash, l.File), uint64(l.Line))
	return id
}

// SymOf returns the id of an already-interned symbol, or NoSym when the
// symbol is unknown to the table. Read-only.
func (t *Interning) SymOf(s string) SymID { return t.symIx[s] }

// LocOf returns the id of an already-interned location, or NoLoc when
// unknown. Read-only.
func (t *Interning) LocOf(l Loc) LocID { return t.locIx[l] }

// SymName materializes the symbol string of an id ("" for NoSym or an
// out-of-range id).
func (t *Interning) SymName(id SymID) string {
	if int(id) >= len(t.syms) {
		return ""
	}
	return t.syms[id]
}

// LocAt materializes the location of an id (the zero Loc for NoLoc or an
// out-of-range id).
func (t *Interning) LocAt(id LocID) Loc {
	if int(id) >= len(t.locs) {
		return Loc{}
	}
	return t.locs[id]
}

// Len returns the table's sizes, null entries included: every SymID is
// below syms and every LocID below locs.
func (t *Interning) Len() (syms, locs int) { return len(t.syms), len(t.locs) }

// Digest fingerprints the table's contents: equal tables, entry for entry
// in id order, have equal digests. It catches an accidental mismatch
// between builds (the trace header carries it in place of the table), not
// a forged one.
func (t *Interning) Digest() uint64 { return fnvUint(t.symHash, t.locHash) }

// Interning returns the program's symbol/location table, building it on
// first use: every instruction's Sym and Loc is interned, in function /
// block / instruction order, so the assignment is deterministic for a
// given program build and the table is complete (and therefore read-only)
// before the first event is emitted. Safe for concurrent use.
func (p *Program) Interning() *Interning {
	p.internOnce.Do(func() {
		t := NewInterning()
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					t.InternSym(b.Instrs[i].Sym)
					t.InternLoc(b.Instrs[i].Loc)
				}
			}
		}
		p.interned = t
	})
	return p.interned
}
