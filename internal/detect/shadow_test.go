package detect

import (
	"testing"

	"adhocrace/internal/ir"
)

// TestShadowPageBoundaries checks that addresses mapping to different
// pages, and neighbouring cells around a page boundary, get independent
// shadow words.
func TestShadowPageBoundaries(t *testing.T) {
	s := newShadowMem()
	pageBytes := int64(pageWords << addrWordShift)
	addrs := []int64{
		0, 8, // first page
		pageBytes - 8, pageBytes, pageBytes + 8, // straddling the boundary
		7 * pageBytes, // far page
	}
	words := make(map[*shadowWord]int64)
	for _, a := range addrs {
		w := s.word(a)
		if prev, dup := words[w]; dup {
			t.Fatalf("addresses %#x and %#x share a shadow word", prev, a)
		}
		words[w] = a
		if !w.live {
			t.Fatalf("word %#x not marked live", a)
		}
	}
	if got := len(s.pages); got != 3 {
		t.Errorf("got %d pages, want 3", got)
	}
	// Re-fetching must return the same word and not re-count liveness.
	for _, a := range addrs {
		w := s.word(a)
		if words[w] != a {
			t.Errorf("re-fetch of %#x returned a different word", a)
		}
	}
	live := 0
	for _, pg := range s.pages {
		live += pg.live
	}
	if live != len(addrs) {
		t.Errorf("live words = %d, want %d", live, len(addrs))
	}
}

// TestShadowBytesLazyClocks checks the accounting model: an untouched
// shadow memory costs nothing, a write-only word is charged the seed
// layout's per-word cost with empty-clock headers, and reads add their
// clock and read-event costs.
func TestShadowBytesLazyClocks(t *testing.T) {
	s := newShadowMem()
	if n := s.bytes(); n != 0 {
		t.Errorf("empty shadow bytes = %d, want 0", n)
	}
	w := s.word(0)
	if w.reads != (readState{}) || w.readsAtomic != (readState{}) {
		t.Error("fresh word must not carry read state or read-sets")
	}
	// Write-only word: 96 + two empty-clock headers.
	if n := s.bytes(); n != 96+24+24 {
		t.Errorf("write-only word bytes = %d, want %d", n, 96+24+24)
	}
}

// crossPageRacyProgram has two genuine races on globals that live on
// different shadow pages (a 2-page pad separates them).
func crossPageRacyProgram() *ir.Program {
	b := ir.NewBuilder("pageraces")
	x := b.Global("X")
	_ = b.GlobalArray("PAD", 2*pageWords)
	y := b.Global("Y")

	w := b.Func("writer", 0)
	w.PinLoc("race.c", 10)
	one := w.Const(1)
	w.StoreAddr(x, one)
	w.PinLoc("race.c", 11)
	w.StoreAddr(y, one)
	w.Ret(ir.NoReg)

	m := b.Func("main", 0)
	t1 := m.Spawn("writer")
	m.PinLoc("race.c", 20)
	two := m.Const(2)
	m.StoreAddr(x, two)
	m.PinLoc("race.c", 21)
	m.StoreAddr(y, two)
	m.Join(t1)
	m.Ret(ir.NoReg)
	return b.MustBuild()
}

// TestPagedShadowCrossPageRaces runs a program whose races span shadow
// pages and checks both are caught, warnings arrive in event order, and
// repeated runs are byte-identical.
func TestPagedShadowCrossPageRaces(t *testing.T) {
	run := func() *Report {
		rep, _, err := Prepare(crossPageRacyProgram()).Run(HelgrindPlusLib(), 1, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if got := rep.RacyContexts(); got != 2 {
		t.Fatalf("racy contexts = %d, want 2 (one per page)\nwarnings: %v", got, rep.Warnings)
	}
	for i := 1; i < len(rep.Warnings); i++ {
		if rep.Warnings[i-1].EventIdx > rep.Warnings[i].EventIdx {
			t.Errorf("warnings out of event order at %d: %v then %v",
				i, rep.Warnings[i-1], rep.Warnings[i])
		}
	}
	rep2 := run()
	if len(rep.Warnings) != len(rep2.Warnings) {
		t.Fatalf("run 1 had %d warnings, run 2 had %d", len(rep.Warnings), len(rep2.Warnings))
	}
	for i := range rep.Warnings {
		if rep.Warnings[i] != rep2.Warnings[i] {
			t.Errorf("warning %d differs across identical runs: %v vs %v",
				i, rep.Warnings[i], rep2.Warnings[i])
		}
	}
	if rep.ShadowBytes <= 0 {
		t.Errorf("ShadowBytes = %d, want > 0", rep.ShadowBytes)
	}
}
