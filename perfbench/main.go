// Command perfbench is the detector's benchmark. One invocation runs one
// workload through the repository's public entry points and prints its
// metrics, with the last line of standard output a JSON result:
//
//	perfbench --workload suite --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that attributes an operation's wall time to the layers and
// measures each layer's rates. "perfbench compare" reads two directories
// of saved results and gives a verdict per workload and metric.
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{setups: 5, warmup: time.Second}
	var trace int
	var out string
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&o.spans, "spans", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>-<seed>.json)")
	fs.StringVar(&out, "out", "", "also write the result, with workload and seed, to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := newWorkload(o.workload)
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --trace 0|1, --seconds > 0\n",
			strings.Join(workloadNames, ", "))
		return 2
	}
	o.trace = trace == 1
	if o.trace && o.spans == "" {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		o.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	}
	fmt.Fprintf(stderr, "perfbench: workload %s seed %d seconds %g trace %d GOMAXPROCS %d\n",
		o.workload, o.seed, o.seconds, trace, runtime.GOMAXPROCS(0))

	r, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	if o.trace {
		printAttribution(stdout, r)
	}
	if out != "" {
		saved := r
		saved.Workload, saved.Seed, saved.Trace = o.workload, o.seed, trace
		if err := writeResultFile(out, saved); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printAttribution shows the traced operation's wall time as the sum of
// its parts.
func printAttribution(w io.Writer, r result) {
	v := func(name string) float64 { return r.Metrics[name].Value }
	var parts []string
	sum := v("attrib.unattributed_ms")
	for _, l := range layerSelf {
		sum += v(l + ".self_ms")
		parts = append(parts, fmt.Sprintf("%s %.3f", l, v(l+".self_ms")))
	}
	fmt.Fprintf(w, "attribution (ms per op): %s + unattributed %.3f = %.3f; traced op wall %.3f; tracing overhead %+.1f%% of the untraced op\n",
		strings.Join(parts, " + "), v("attrib.unattributed_ms"), sum, v("attrib.op_wall_ms"), 100*v("attrib.tracing_overhead_share"))
}
