// Golden report fingerprints: the byte-identical bar every refactor of the
// detector is held to. testdata/golden_fingerprints.txt holds one line per
// (workload, preset) of the equivalence grid — the 120-case accuracy suite
// under the four paper tools plus the lock-inference variant, and synthesis
// seeds 1–500 under the spin-featured Helgrind+ and DRD, all at scheduler
// seed 1, then the 13 PARSEC models under the four paper tools at
// scheduler seeds 1 and 3 — with the event count, the warning count, and a
// sha256 prefix of harness.ReportFingerprint. TestGoldenFingerprints
// replays every entry once, rotating the pipeline shapes, and compares
// with the file.
//
// The suite and synthesis entries were first generated with all three seed oracles at once (the
// vm's switch interpreter, the full-vector-clock read side and the
// full-vector-clock happens-before engine), which matched the production
// path on every entry; those oracles now live in their own packages'
// tests. Regenerating it is a deliberate act:
//
//	go test ./internal/detect -run TestGoldenFingerprints -update
//
// External test package: it imports the workload and synthesis packages,
// which cycle back into detect for an in-package test.
package detect_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/harness"
	"adhocrace/internal/ir"
	"adhocrace/internal/synth"
	"adhocrace/internal/workloads/dataracetest"
	"adhocrace/internal/workloads/parsec"
)

var update = flag.Bool("update", false, "regenerate testdata/golden_fingerprints.txt from the current detector")

const (
	goldenPath = "testdata/golden_fingerprints.txt"
	// goldenSynthSeeds is the synthesis corpus size of the grid.
	goldenSynthSeeds = 500
	// goldenRunSeed is the scheduler seed of every suite and synthesis
	// entry.
	goldenRunSeed = 1
)

// goldenParsecSeeds are the scheduler seeds of the PARSEC entries: two of
// the five the racy-context tables average over.
var goldenParsecSeeds = []int64{1, 3}

// reportFingerprint is the shared byte-identical equality bar
// (harness.ReportFingerprint): everything a Report exposes except the
// representation-dependent shadow accounting and counters.
func reportFingerprint(rep *detect.Report) string { return harness.ReportFingerprint(rep) }

// goldenCase is one (workload, preset) entry of the grid, run at the
// given scheduler seed.
type goldenCase struct {
	workload string
	build    func() *ir.Program
	cfg      detect.Config
	seed     int64
}

// key identifies the entry in the golden file.
func (c goldenCase) key() string { return c.workload + "\t" + c.cfg.Name }

// goldenGrid lists the grid in file order.
func goldenGrid() []goldenCase {
	grid := append(goldenSuite(), goldenSynth(goldenSynthSeeds)...)
	return append(grid, goldenParsec()...)
}

// goldenSuite is the suite part of the grid: every accuracy-suite case
// under the four paper tools plus the lock-inference variant.
func goldenSuite() []goldenCase {
	var grid []goldenCase
	cfgs := append(detect.PaperTools(7), detect.HelgrindPlusNolibSpinLocks(7))
	for _, c := range dataracetest.Suite() {
		for _, cfg := range cfgs {
			grid = append(grid, goldenCase{c.Name, c.Build, cfg, goldenRunSeed})
		}
	}
	return grid
}

// goldenSynth is the synthesis part of the grid for seeds 1..seeds: two
// entries per seed, under the two presets whose semantics differ most
// (spin-featured Helgrind+ and DRD). Entry i belongs to seed i/2+1.
func goldenSynth(seeds int64) []goldenCase {
	var grid []goldenCase
	cfgs := []detect.Config{detect.HelgrindPlusLibSpin(7), detect.DRD()}
	for seed := int64(1); seed <= seeds; seed++ {
		w := synth.Generate(seed)
		for _, cfg := range cfgs {
			grid = append(grid, goldenCase{w.Name, func() *ir.Program { return w.Prog }, cfg, goldenRunSeed})
		}
	}
	return grid
}

// goldenParsec is the PARSEC part of the grid: every model under the four
// paper tools at each of goldenParsecSeeds. The seed is part of the
// workload name ("x264@seed3"), since one (model, tool) pair has an entry
// per seed.
func goldenParsec() []goldenCase {
	var grid []goldenCase
	for _, m := range parsec.Models() {
		for _, cfg := range detect.PaperTools(7) {
			for _, seed := range goldenParsecSeeds {
				grid = append(grid, goldenCase{fmt.Sprintf("%s@seed%d", m.Name, seed), m.Build, cfg, seed})
			}
		}
	}
	return grid
}

// goldenShapes are the pipeline shapes the replay rotates through, one per
// entry: every shape must be invisible in the report, so each entry is
// checked under whichever shape its position picks.
func goldenShapes() []detect.RunOpts {
	return []detect.RunOpts{
		{},
		detect.ForceOverlap(detect.RunOpts{}, event.DefaultSegmentEvents),
		detect.ForceOverlap(detect.RunOpts{}, 64),
		detect.WithGCPeriod(detect.RunOpts{}, 256),
	}
}

// goldenLine renders an entry's file line from its fingerprint text.
func goldenLine(c goldenCase, rep *detect.Report, text string) string {
	sum := sha256.Sum256([]byte(text))
	return fmt.Sprintf("%s\t%d\t%d\t%s", c.key(), rep.Events, len(rep.Warnings), hex.EncodeToString(sum[:8]))
}

const goldenHeader = `# Golden report fingerprints: workload, preset, events, warnings, and the
# first 8 bytes of sha256(harness.ReportFingerprint) in hex, at scheduler
# seed 1 (a PARSEC entry's workload names its seed, as in x264@seed3).
# Regenerate only deliberately, and record why in CHANGES.md:
#   go test ./internal/detect -run TestGoldenFingerprints -update
`

// readGolden parses the golden file into key → line, in file order.
func readGolden(t *testing.T) (map[string]string, []string) {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("open golden file (regenerate with -update): %v", err)
	}
	defer f.Close()
	lines := make(map[string]string)
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 5 {
			t.Fatalf("malformed golden line %q", line)
		}
		key := fields[0] + "\t" + fields[1]
		if _, dup := lines[key]; dup {
			t.Fatalf("duplicate golden key %q", key)
		}
		lines[key] = line
		order = append(order, key)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read golden file: %v", err)
	}
	return lines, order
}

func writeGolden(t *testing.T, lines []string) {
	t.Helper()
	text := goldenHeader + strings.Join(lines, "\n") + "\n"
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}

// replayGolden runs every case once, under the pipeline shape shape(i),
// and returns each entry's file line and fingerprint text.
func replayGolden(t *testing.T, cases []goldenCase, shape func(i int) detect.RunOpts) (lines, texts []string) {
	t.Helper()
	lines = make([]string, len(cases))
	texts = make([]string, len(cases))
	for i, c := range cases {
		rep, _, err := detect.Prepare(c.build()).Run(c.cfg, c.seed, shape(i))
		if err != nil {
			t.Fatalf("%s under %s: %v", c.workload, c.cfg.Name, err)
		}
		texts[i] = reportFingerprint(rep)
		lines[i] = goldenLine(c, rep, texts[i])
	}
	return lines, texts
}

// checkGolden replays cases and compares each with the golden file: a key
// the file lacks or a changed line fails, and each changed entry prints
// its current fingerprint text. It returns the keys it checked.
func checkGolden(t *testing.T, cases []goldenCase, shape func(i int) detect.RunOpts) map[string]bool {
	t.Helper()
	want, _ := readGolden(t)
	lines, texts := replayGolden(t, cases, shape)
	seen := make(map[string]bool, len(cases))
	for i, c := range cases {
		key := c.key()
		seen[key] = true
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("missing golden key %q (got %q)", key, lines[i])
		case w != lines[i]:
			t.Errorf("fingerprint changed (entry %d, gc=%d)\n  want %s\n  got  %s\n--- current fingerprint ---\n%s",
				i, detect.GCPeriodOf(shape(i)), w, lines[i], texts[i])
		}
	}
	return seen
}

// rotate picks shapes[i%len(shapes)] for entry i.
func rotate(shapes []detect.RunOpts) func(int) detect.RunOpts {
	return func(i int) detect.RunOpts { return shapes[i%len(shapes)] }
}

// rotatePerSeed picks one shape per synthesis seed, shared by the seed's
// two entries.
func rotatePerSeed(shapes []detect.RunOpts) func(int) detect.RunOpts {
	return func(i int) detect.RunOpts { return shapes[(i/2+1)%len(shapes)] }
}

// sequential runs every entry on the plain pipeline.
func sequential(int) detect.RunOpts { return detect.RunOpts{} }

// shortSeeds is the synthesis corpus size a sweep replays: seeds, or short
// under -short.
func shortSeeds(seeds, short int64) int64 {
	if testing.Short() {
		return short
	}
	return seeds
}

// TestGoldenFingerprints replays the whole grid and compares every entry
// with the golden file: a missing, extra or changed key fails, and each
// changed entry prints its current fingerprint text. With -update it
// rewrites the file instead.
func TestGoldenFingerprints(t *testing.T) {
	grid := goldenGrid()
	shape := rotate(goldenShapes())
	if *update {
		lines, _ := replayGolden(t, grid, shape)
		writeGolden(t, lines)
		t.Logf("wrote %d entries to %s", len(lines), goldenPath)
		return
	}
	seen := checkGolden(t, grid, shape)
	_, order := readGolden(t)
	for _, key := range order {
		if !seen[key] {
			t.Errorf("extra golden key %q not in the grid", key)
		}
	}
}

// The sweeps below each hold the production path to the golden file over
// one part of the grid under the pipeline shapes that one seed oracle was
// compared across when it lived in production. The file is that oracle's
// output (see the file comment); the direct comparison with each oracle
// lives in its own package's tests.

// syncSweepShapes are the shapes the clock store is checked across: the
// golden shapes at the default GC period, which no suite case or synth
// seed reaches. The GC retires clock-store state and so is checked on its
// own (TestShadowGCEquivalence*).
func syncSweepShapes() []detect.RunOpts {
	var out []detect.RunOpts
	for _, o := range goldenShapes() {
		if detect.GCPeriodOf(o) == detect.GCPeriod {
			out = append(out, o)
		}
	}
	return out
}

// TestDecodedEquivalenceSuite holds the pre-decoded vm dispatch to the
// switch interpreter's reports on the suite, rotating the pipeline shapes
// per (case, tool). The interpreter itself is compared by
// TestDecodedMatchesReference{Stream,Result} in package vm.
func TestDecodedEquivalenceSuite(t *testing.T) {
	checkGolden(t, goldenSuite(), rotate(goldenShapes()))
}

// TestDecodedEquivalenceSynth holds the decoded dispatch to the switch
// interpreter's reports on 300 synthesis seeds (60 under -short), rotating
// the pipeline shapes per seed.
func TestDecodedEquivalenceSynth(t *testing.T) {
	checkGolden(t, goldenSynth(shortSeeds(300, 60)), rotatePerSeed(goldenShapes()))
}

// TestEpochFullVCEquivalenceSuite holds the adaptive epoch read
// representation to the full-vector-clock reads' reports on the suite,
// run sequentially. The representation-level comparison is
// TestReadStateMatchesFullVCReads.
func TestEpochFullVCEquivalenceSuite(t *testing.T) {
	checkGolden(t, goldenSuite(), sequential)
}

// TestEpochFullVCEquivalenceSynth holds the epoch reads to the full-VC
// reads' reports on 500 synthesis seeds (80 under -short), run
// sequentially.
func TestEpochFullVCEquivalenceSynth(t *testing.T) {
	checkGolden(t, goldenSynth(shortSeeds(goldenSynthSeeds, 80)), sequential)
}

// TestSyncStoreEquivalenceSuite holds the copy-on-write clock store to the
// full-vector-clock happens-before engine's reports on the suite, rotating
// the overlap shapes per (case, tool). The engine-level
// comparison is TestStoreMatchesReferenceOnRandomStreams in package hb.
func TestSyncStoreEquivalenceSuite(t *testing.T) {
	checkGolden(t, goldenSuite(), rotate(syncSweepShapes()))
}

// TestSyncStoreEquivalenceSynth holds the clock store to the full-VC
// engine's reports on 500 synthesis seeds (80 under -short), rotating the
// overlap shapes per seed.
func TestSyncStoreEquivalenceSynth(t *testing.T) {
	checkGolden(t, goldenSynth(shortSeeds(goldenSynthSeeds, 80)), rotatePerSeed(syncSweepShapes()))
}
