//go:build race

package detect_test

// raceEnabled reports whether the test binary runs under the race
// detector, which makes sync.Pool drop items at random on purpose.
const raceEnabled = true
