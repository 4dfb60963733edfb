package harness

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
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
