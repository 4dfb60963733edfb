package synth

import (
	"fmt"

	"adhocrace/internal/detect"
)

// FragOutcome is one (fragment, preset) cell of a differential run.
type FragOutcome struct {
	Frag     Fragment
	Preset   string
	Expected Expect
	Warned   bool
}

// Match reports whether the preset behaved as the oracle predicts.
func (o FragOutcome) Match() bool { return o.Warned == o.Expected.Warn }

// Disagreement is an oracle-vs-tool mismatch on one fragment of one seed.
type Disagreement struct {
	Seed     int64
	Preset   string
	Frag     Fragment
	Expected bool
	Warned   bool
	// Proximity marks mismatches of proximity-dependent predictions
	// (scheduling variance, not tool bugs); strict scoring ignores them.
	Proximity bool
}

// String renders the disagreement.
func (dis Disagreement) String() string {
	miss := "false positive"
	if dis.Expected && !dis.Warned {
		miss = "false negative"
	}
	tag := ""
	if dis.Proximity {
		tag = " [proximity]"
	}
	return fmt.Sprintf("seed %d %s on %s: unexpected %s (expected warn=%v, got warn=%v)%s",
		dis.Seed, dis.Preset, dis.Frag, miss, dis.Expected, dis.Warned, tag)
}

// Score attributes a report of w under preset (one of PresetNames) to
// w's fragments, by symbol prefix, falling back to source-file prefix,
// and returns one outcome per fragment, in fragment order.
func Score(w *Workload, preset string, rep *detect.Report) []FragOutcome {
	warned := make(map[int]bool)
	for _, warn := range rep.Warnings {
		if idx, ok := fragIndexOf(warn.Sym); ok {
			warned[idx] = true
		} else if idx, ok := fragIndexOf(warn.Loc.File); ok {
			warned[idx] = true
		}
	}
	outcomes := make([]FragOutcome, 0, len(w.Frags))
	for _, f := range w.Frags {
		outcomes = append(outcomes, FragOutcome{
			Frag:     f,
			Preset:   preset,
			Expected: Expectations(f.Kind)[preset],
			Warned:   warned[f.Index],
		})
	}
	return outcomes
}

// fragIndexOf parses the fragment namespace prefix f<digits>_ from a
// symbol or file name (at least two digits — prefix() zero-pads — but any
// longer index parses too, so hand-assembled workloads attribute as well).
func fragIndexOf(s string) (int, bool) {
	if len(s) < 4 || s[0] != 'f' {
		return 0, false
	}
	idx, i := 0, 1
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		idx = idx*10 + int(s[i]-'0')
	}
	if i < 3 || i >= len(s) || s[i] != '_' {
		return 0, false
	}
	return idx, true
}
