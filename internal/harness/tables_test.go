package harness

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"adhocrace/internal/synth"
)

var update = flag.Bool("update", false, "regenerate testdata/tables_all.txt from the current detector")

const (
	tablesGoldenPath = "testdata/tables_all.txt"
	// tablesGoldenSynthN is the synth corpus size the golden is taken at:
	// `go run ./cmd/tables -t all -synth-n 30` prints the file byte for
	// byte.
	tablesGoldenSynthN = 30
)

// TestTablesGolden regenerates every table of the paper's evaluation and
// compares the text with testdata/tables_all.txt line by line. The file
// pins what the report fingerprints do not: the Table 4–6 cells, the
// overhead figures' shadow bytes and event counts, and the synth corpus
// rows. Regenerating it is a deliberate act, recorded in CHANGES.md:
//
//	go test ./internal/harness -run TestTablesGolden -update
func TestTablesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := newRunner().WriteTables(&buf, "all", tablesGoldenSynthN); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tablesGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", buf.Len(), tablesGoldenPath)
		return
	}
	want, err := os.ReadFile(tablesGoldenPath)
	if err != nil {
		t.Fatalf("open golden file (regenerate with -update): %v", err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(buf.String(), "\n")
	for i := 0; i < max(len(wantLines), len(gotLines)); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("table line %d changed\n  want %s\n  got  %s", i+1, w, g)
		}
	}
}

// TestTablesRunCount: with RunStats attached, each table observes exactly
// its detector runs — one per preset of each job, none twice — and runs
// the vm once per job, every preset of a (program, seed) fed by that one
// run (the synth corpus's oracle too, when it rides along). The golden
// pins the text, which a job that runs unobserved, is observed twice, or
// re-runs the vm per preset leaves intact.
func TestTablesRunCount(t *testing.T) {
	for _, c := range []struct {
		table        string
		runs, vmRuns int64
	}{
		{"1", 480, 120}, {"2", 480, 120}, {"3", 0, 0}, {"4", 100, 25}, {"5", 160, 40}, {"6", 260, 65},
		{"perf", 26, 13}, {"synth", 120, 30}, {"all", 1626, 413},
	} {
		var stats RunStats
		if err := newRunner().WithStats(&stats).WriteTables(io.Discard, c.table, tablesGoldenSynthN); err != nil {
			t.Fatal(err)
		}
		if got := stats.Runs.Load(); got != c.runs {
			t.Errorf("table %s: %d runs observed, want %d", c.table, got, c.runs)
		}
		if got := stats.VMRuns.Load(); got != c.vmRuns {
			t.Errorf("table %s: %d vm runs, want %d", c.table, got, c.vmRuns)
		}
	}
	// The synth corpus with its oracle: the oracle rides on each seed's
	// one run.
	var stats RunStats
	if _, err := newRunner().WithStats(&stats).Corpus(1, synth.GenerateSeeds(1, tablesGoldenSynthN), 1, 7, true); err != nil {
		t.Fatal(err)
	}
	if runs, vmRuns := stats.Runs.Load(), stats.VMRuns.Load(); runs != 120 || vmRuns != 30 {
		t.Errorf("synth corpus with oracle: %d runs, %d vm runs, want 120 and 30", runs, vmRuns)
	}
}
