// Package workloads is the shared workload registry: one name-based lookup
// over every program source the CLIs can run — the PARSEC models, the
// 120-case data-race-test suite, and seeded synthetic programs from the
// workload synthesis engine (synth:<seed>). The cmd/racedetect,
// cmd/tracedump, and cmd/racefuzz front-ends all resolve workload names
// here instead of carrying their own copies of the lookup.
package workloads

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"adhocrace/internal/ir"
	"adhocrace/internal/synth"
	"adhocrace/internal/workloads/dataracetest"
	"adhocrace/internal/workloads/parsec"
)

// SynthPrefix is the name scheme of generated workloads: "synth:<seed>"
// builds the synthesis engine's program for that seed.
const SynthPrefix = "synth:"

// Find resolves a workload name to its program builder: a PARSEC model
// name, a data-race-test case name, or synth:<seed>.
func Find(name string) (func() *ir.Program, bool) {
	if m, ok := parsec.ByName(name); ok {
		return m.Build, true
	}
	for _, c := range dataracetest.Suite() {
		if c.Name == name {
			return c.Build, true
		}
	}
	if seedStr, ok := strings.CutPrefix(name, SynthPrefix); ok {
		seed, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return nil, false
		}
		return func() *ir.Program {
			return synth.Generate(seed).Prog
		}, true
	}
	return nil, false
}

// FormatList renders every registered workload, grouped the way -list has
// always printed them, plus the synth name scheme.
func FormatList() string {
	var b strings.Builder
	b.WriteString("PARSEC models:\n")
	for _, m := range parsec.Models() {
		fmt.Fprintf(&b, "  %-16s (%s, %d LOC)\n", m.Name, m.ParallelModel, m.LOC)
	}
	b.WriteString("data-race-test cases:\n")
	var names []string
	for _, c := range dataracetest.Suite() {
		names = append(names, fmt.Sprintf("  %-40s %s", c.Name, c.Category))
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString(n + "\n")
	}
	b.WriteString("synthetic workloads:\n")
	fmt.Fprintf(&b, "  %-40s any seeded program of the synthesis engine (cmd/racefuzz)\n", SynthPrefix+"<seed>")
	return b.String()
}
