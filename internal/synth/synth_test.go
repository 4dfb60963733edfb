package synth

import (
	"strings"
	"testing"

	"adhocrace/internal/spin"
)

// TestGenerateDeterminism: the same seed yields a byte-identical program
// (disassembly), fragment list, and ground truth; different seeds differ.
func TestGenerateDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1000} {
		a := Generate(seed)
		b := Generate(seed)
		if a.Describe() != b.Describe() {
			t.Fatalf("seed %d: ground truth differs across regenerations", seed)
		}
		if a.Prog.Disassemble() != b.Prog.Disassemble() {
			t.Fatalf("seed %d: disassembly differs across regenerations", seed)
		}
	}
	if Generate(1).Prog.Disassemble() == Generate(2).Prog.Disassemble() {
		t.Fatal("seeds 1 and 2 generated identical programs")
	}
}

// TestExpectationsShape: every kind carries a full, consistent prediction
// table — all four presets present, ground truth respected by the exact
// presets, and the excluded idiom explicitly categorized.
func TestExpectationsShape(t *testing.T) {
	sawExcluded := false
	for k := Kind(0); k < numKinds; k++ {
		ex := Expectations(k)
		for _, p := range PresetNames {
			if _, ok := ex[p]; !ok {
				t.Fatalf("%s: no expectation for preset %s", k, p)
			}
		}
		if ex["spin"].Proximity {
			t.Errorf("%s: spin predictions must be deterministic, not proximity-dependent", k)
		}
		if k.WithinModel() && ex["spin"].Warn != k.Racy() {
			t.Errorf("%s: within-model but spin expectation (warn=%v) disagrees with ground truth (racy=%v)",
				k, ex["spin"].Warn, k.Racy())
		}
		if !k.WithinModel() {
			sawExcluded = true
			if k.ExclusionReason() == "" {
				t.Errorf("%s: excluded kind without an exclusion reason", k)
			}
			if ex["spin"].Warn == k.Racy() {
				t.Errorf("%s: excluded kind should predict a spin mismatch with ground truth", k)
			}
		}
	}
	if !sawExcluded {
		t.Error("no excluded idiom in the fragment library")
	}
}

// TestWindowSweep: generated loop shapes classify exactly when the window
// covers their block count. The program-wide count is offset by the
// synclib primitives' own loops, so the assertion works on the delta
// against a fragment-free baseline.
func TestWindowSweep(t *testing.T) {
	empty := Assemble("sweep_base", nil)
	windows := []int{2, 3, 4, 5, 6, 7, 8}
	base := spin.Sweep(empty.Prog, windows)

	frags := []Fragment{
		{Kind: KindSpinPlain, Index: 0, Blocks: 2},
		{Kind: KindSpinPlain, Index: 1, Blocks: 5},
		{Kind: KindSpinPlain, Index: 2, Blocks: 7},
		{Kind: KindSpinRetry, Index: 3, Blocks: 3}, // never classifies
	}
	w := Assemble("sweep_frags", frags)
	pts := spin.Sweep(w.Prog, windows)
	for i, wd := range windows {
		want := 0
		for _, f := range frags {
			if f.Kind == KindSpinPlain && f.Blocks <= wd {
				want++
			}
		}
		got := pts[i].Classified - base[i].Classified
		if got != want {
			t.Errorf("window %d: %d fragment loops classified, want %d", wd, got, want)
		}
	}
}

// TestFragIndexOf: attribution parses the zero-padded prefix and larger
// hand-assembled indices alike, and rejects non-prefixed names.
func TestFragIndexOf(t *testing.T) {
	cases := []struct {
		in  string
		idx int
		ok  bool
	}{
		{"f00_FLAG", 0, true},
		{"f07_DATA", 7, true},
		{"f42_CELLS[3]", 42, true},
		{"f123_X", 123, true},
		{"f1_X", 0, false}, // prefix() always zero-pads to two digits
		{"g00_X", 0, false},
		{"f00FLAG", 0, false},
		{"fXY_FLAG", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		idx, ok := fragIndexOf(c.in)
		if ok != c.ok || (ok && idx != c.idx) {
			t.Errorf("fragIndexOf(%q) = %d,%v want %d,%v", c.in, idx, ok, c.idx, c.ok)
		}
	}
}

// TestAssembleIndexStability: shrinking-style deletion keeps surviving
// fragments' names (and thus attribution) stable.
func TestAssembleIndexStability(t *testing.T) {
	frags := []Fragment{
		{Kind: KindRacyPlain, Index: 0, Threads: 2},
		{Kind: KindSpinPlain, Index: 1, Blocks: 4},
		{Kind: KindLock, Index: 2, Threads: 2, Rounds: 1},
	}
	full := Assemble("stab_full", frags)
	sub := Assemble("stab_sub", []Fragment{frags[1]})
	var fullSyms, subSyms []string
	for _, v := range full.Vars {
		if v.Frag == 1 {
			fullSyms = append(fullSyms, v.Sym)
		}
	}
	for _, v := range sub.Vars {
		subSyms = append(subSyms, v.Sym)
	}
	if strings.Join(fullSyms, ",") != strings.Join(subSyms, ",") {
		t.Fatalf("fragment 1 symbols changed under deletion: %v vs %v", fullSyms, subSyms)
	}
}
