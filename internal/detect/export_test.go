package detect

import (
	"adhocrace/internal/ir"
	"adhocrace/internal/spin"
)

// Bridges for the external test package (detect_test, used by tests that
// import the workload packages and would otherwise cycle back into
// detect): share the in-package test helpers instead of copying them.
var (
	MustRunForTest     = mustRun
	RacyProgramForTest = racyProgram
)

// MemoizedInstrumentation returns the instrumentation memoized on p for
// the spin window without computing one: nil when nothing has stored it,
// in which case the nil is memoized — so ask only after the call under
// test.
func MemoizedInstrumentation(p *ir.Program, window int) *spin.Instrumentation {
	ins, _ := p.Derived(instrumentKey(window), func() any { return (*spin.Instrumentation)(nil) }).(*spin.Instrumentation)
	return ins
}
