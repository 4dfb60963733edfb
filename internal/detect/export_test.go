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

// FullVCReads returns the configuration with the seed full-vector-clock
// read representation enabled — the reference side of the epoch
// equivalence tests.
func FullVCReads(cfg Config) Config {
	cfg.fullVCReads = true
	return cfg
}

// FullVCSync returns the configuration with the seed full-vector-clock
// happens-before engine enabled — the reference side of the clock-store
// equivalence tests.
func FullVCSync(cfg Config) Config {
	cfg.fullVCSync = true
	return cfg
}

// MemoizedInstrumentation returns the instrumentation memoized on p for
// the spin window without computing one: nil when nothing has stored it,
// in which case the nil is memoized — so ask only after the call under
// test.
func MemoizedInstrumentation(p *ir.Program, window int) *spin.Instrumentation {
	ins, _ := p.Derived(instrumentKey(window), func() any { return (*spin.Instrumentation)(nil) }).(*spin.Instrumentation)
	return ins
}
