package harness

import (
	"fmt"
	"io"

	"adhocrace/internal/workloads/parsec"
)

// TableNames are the tables WriteTables regenerates, in output order.
var TableNames = []string{"1", "2", "3", "4", "5", "6", "perf", "synth"}

// WriteTables regenerates one table by name, or every table for "all",
// and writes each followed by a blank line: the text cmd/tables prints,
// and what testdata/tables_all.txt pins for "all" at synthN 30. synthN is
// the corpus size of the synth table. The text is byte-identical for
// every worker count.
func (r *Runner) WriteTables(w io.Writer, which string, synthN int64) error {
	for _, name := range TableNames {
		if which != "all" && which != name {
			continue
		}
		text, err := r.table(name, synthN)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if _, err := fmt.Fprintln(w, text); err != nil {
			return err
		}
	}
	return nil
}

// table renders one named table.
func (r *Runner) table(name string, synthN int64) (string, error) {
	switch name {
	case "1":
		rows, err := r.AccuracyTable(Table1Configs(), 1)
		if err != nil {
			return "", err
		}
		return FormatAccuracy("Table 1 — data-race-test suite, 120 cases (slide 24)", rows), nil
	case "2":
		rows, err := r.AccuracyTable(Table2Configs(), 1)
		if err != nil {
			return "", err
		}
		return FormatAccuracy("Table 2 — spin-window sensitivity (slide 25)", rows), nil
	case "3":
		return FormatTable3(), nil
	case "4":
		return r.parsecText("Table 4 — programs without ad-hoc synchronizations (slide 27)", parsec.WithoutAdhoc())
	case "5":
		return r.parsecText("Table 5 — programs with ad-hoc synchronizations (slides 28/29)", parsec.WithAdhoc())
	case "6":
		return r.parsecText("Table 6 — universal race detector (slide 30)", parsec.Models())
	case "perf":
		rows, err := r.OverheadAll()
		if err != nil {
			return "", err
		}
		return FormatOverhead(rows), nil
	case "synth":
		rows, rep, err := r.SynthCorpus(synthN, 1)
		if err != nil {
			return "", err
		}
		return FormatSynth(fmt.Sprintf("Synth corpus — %d generated programs vs the ground-truth oracle", synthN),
			rows, rep), nil
	}
	return "", fmt.Errorf("unknown table %q", name)
}

// parsecText runs a racy-context table over models and renders it with
// the programs in the models' (the paper's) order.
func (r *Runner) parsecText(title string, models []parsec.Model) (string, error) {
	cells, tools, err := r.ParsecTable(models)
	if err != nil {
		return "", err
	}
	programs := make([]string, len(models))
	for i, m := range models {
		programs[i] = m.Name
	}
	return FormatContexts(title, programs, tools, cells), nil
}
