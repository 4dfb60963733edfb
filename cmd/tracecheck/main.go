// Command tracecheck validates a Chrome trace-event JSON file produced by
// the observability layer (racedetect/tables -trace, raced -trace-dir):
// it parses the file, tallies events per named span track, and fails if
// the JSON is malformed or a required track is missing or empty.
//
// Usage:
//
//	tracecheck [-require vm,pipeline,merge,gc] trace.json
//
// -require names the tracks that must each carry at least one event,
// comma-separated. Without it the file only has to parse and be
// non-empty. This is the check `make trace-smoke` gates CI on: a suite
// workload run with -trace must produce one span per pipeline stage.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"adhocrace/internal/obs"
)

func main() {
	require := flag.String("require", "", "comma-separated track names that must have at least one event")
	quiet := flag.Bool("q", false, "suppress the per-track summary")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-require tracks] trace.json")
		os.Exit(2)
	}
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracecheck: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	sum, err := obs.ValidateTrace(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
		os.Exit(1)
	}
	if !*quiet {
		tracks := make([]string, 0, len(sum.Events))
		for t := range sum.Events {
			tracks = append(tracks, t)
		}
		sort.Strings(tracks)
		fmt.Printf("%s: %d events on %d tracks\n", path, sum.Total, len(tracks))
		for _, t := range tracks {
			fmt.Printf("  %-12s %d\n", t, sum.Events[t])
		}
	}
	var missing []string
	for _, t := range strings.Split(*require, ",") {
		t = strings.TrimSpace(t)
		if t == "" {
			continue
		}
		if sum.Events[t] == 0 {
			missing = append(missing, t)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "tracecheck: %s: required tracks missing or empty: %s\n",
			path, strings.Join(missing, ", "))
		os.Exit(1)
	}
}
