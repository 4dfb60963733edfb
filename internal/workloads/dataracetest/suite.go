package dataracetest

// SuiteSize is the number of cases in the suite, matching the paper's
// "120 different test cases (2-16 threads)".
const SuiteSize = 120

// Suite returns the 120 labelled cases: 72 race-free (including 24
// matchable ad-hoc spin cases, 8 hard ad-hoc cases and 1 kernel-event
// case) and 48 racy ones.
func Suite() []Case {
	rf := raceFreeCases()
	cases := append(rf, racyCases(len(rf)+1)...)
	if len(cases) != SuiteSize {
		panic("dataracetest: suite size drifted")
	}
	return cases
}
