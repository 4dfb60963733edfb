package synth

import (
	"fmt"
	"strings"

	"adhocrace/internal/detect"
)

// Shrink reduces a workload to a minimal fragment set that still exhibits
// the given disagreement, by greedy fragment deletion: repeatedly try
// dropping each fragment other than the disagreeing one, rebuild, re-run
// the disagreeing preset at the given spin window and scheduler seed, and
// keep any deletion under which the disagreement persists. The runs are
// sequential Prepared.Run calls. The result is 1-minimal — no single
// further deletion preserves the disagreement — and deterministic.
func Shrink(w *Workload, dis Disagreement, window int, schedSeed int64) (*Workload, error) {
	cfg, err := detect.Preset(dis.Preset, window)
	if err != nil {
		return nil, fmt.Errorf("synth: %s: %w", dis.Preset, err)
	}
	frags := append([]Fragment(nil), w.Frags...)
	reproduces := func(fs []Fragment) (bool, error) {
		cand := Assemble(fmt.Sprintf("%s_shrink", w.Name), fs)
		rep, _, err := detect.Prepare(cand.Prog).Run(cfg, schedSeed, detect.RunOpts{})
		if err != nil {
			return false, fmt.Errorf("synth: %s on %s: %w", dis.Preset, cand.Name, err)
		}
		for _, o := range Score(cand, dis.Preset, rep) {
			if o.Frag.Index == dis.Frag.Index {
				return o.Warned == dis.Warned && !o.Match(), nil
			}
		}
		return false, nil
	}
	ok, err := reproduces(frags)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("synth: disagreement %q does not reproduce on the full workload", dis)
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(frags); i++ {
			if frags[i].Index == dis.Frag.Index {
				continue
			}
			candidate := append(append([]Fragment(nil), frags[:i]...), frags[i+1:]...)
			ok, err := reproduces(candidate)
			if err != nil {
				return nil, err
			}
			if ok {
				frags = candidate
				changed = true
				i--
			}
		}
	}
	min := Assemble(fmt.Sprintf("%s_min", w.Name), frags)
	min.Seed = w.Seed
	return min, nil
}

// EmitGo renders the workload as a compilable Go source file in the style
// of internal/workloads/dataracetest: a builder function that reassembles
// the exact fragment list. The output is ready to paste into that package
// (it imports internal/synth, which dataracetest may import without a
// cycle) so a shrunk reproducer becomes a pinned regression case.
func EmitGo(w *Workload, funcName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by cmd/racefuzz (synth seed %d). DO NOT EDIT.\n", w.Seed)
	b.WriteString("\npackage dataracetest\n\n")
	b.WriteString("import (\n\t\"adhocrace/internal/ir\"\n\t\"adhocrace/internal/synth\"\n)\n\n")
	fmt.Fprintf(&b, "// %s rebuilds the shrunk reproducer %q:\n", funcName, w.Name)
	for _, f := range w.Frags {
		fmt.Fprintf(&b, "//   - %s (racy=%v, within-model=%v)\n", f, f.Kind.Racy(), f.Kind.WithinModel())
	}
	fmt.Fprintf(&b, "func %s() *ir.Program {\n", funcName)
	fmt.Fprintf(&b, "\treturn %s().Prog\n}\n\n", funcName+"Workload")
	fmt.Fprintf(&b, "// %sWorkload exposes the fragment labels (ground truth) too.\n", funcName)
	fmt.Fprintf(&b, "func %sWorkload() *synth.Workload {\n", funcName)
	fmt.Fprintf(&b, "\treturn synth.Assemble(%q, []synth.Fragment{\n", w.Name)
	for _, f := range w.Frags {
		fmt.Fprintf(&b, "\t\t{Kind: synth.%s, Index: %d", f.Kind.GoName(), f.Index)
		if f.Blocks != 0 {
			fmt.Fprintf(&b, ", Blocks: %d", f.Blocks)
		}
		if f.Threads != 0 {
			fmt.Fprintf(&b, ", Threads: %d", f.Threads)
		}
		if f.Rounds > 1 {
			fmt.Fprintf(&b, ", Rounds: %d", f.Rounds)
		}
		b.WriteString("},\n")
	}
	b.WriteString("\t})\n}\n")
	return b.String()
}
