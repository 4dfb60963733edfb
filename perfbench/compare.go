package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// The compare mode reads the saved results of two sets of runs, a parent
// and a change, and judges each (workload, end-to-end metric) pair:
//
//   - improved: the change wins at least nine tenths of the pairs (ties
//     count for neither) and the medians differ by more than the parent's
//     interquartile distance;
//   - no worse: the change's median is worse than the parent's by no more
//     than the metric's bound, and both sides' spreads are within it;
//   - unresolved: a side's spread is wider than the bound, unless every
//     change run reads better than every parent run;
//   - worse: the change's median is worse by more than the bound.

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse"
	verdictUnresolved = "unresolved"
	verdictWorse      = "worse"
)

// judgement is one (workload, metric) comparison.
type judgement struct {
	parent, change [3]float64 // quartiles: q1, median, q3
	winShare       float64
	pairs          int
	verdict        string
}

// judge compares parent and change runs of one metric. The i-th value of
// each side form a pair; lowerBetter says which direction wins.
func judge(parent, change []float64, lowerBetter bool, bound float64) judgement {
	var j judgement
	j.parent[0], j.parent[1], j.parent[2] = quartiles(parent)
	j.change[0], j.change[1], j.change[2] = quartiles(change)
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	j.pairs = min(len(parent), len(change))
	wins := 0
	for i := 0; i < j.pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if j.pairs > 0 {
		j.winShare = float64(wins) / float64(j.pairs)
	}

	medP, medC := j.parent[1], j.change[1]
	gain := medC - medP
	if lowerBetter {
		gain = medP - medC
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	worseBy := 0.0
	if medP != 0 {
		worseBy = -gain / math.Abs(medP)
	}
	switch {
	case j.winShare >= 0.9 && gain > j.parent[2]-j.parent[0]:
		j.verdict = verdictImproved
	case spread(parent) > bound || spread(change) > bound:
		j.verdict = verdictUnresolved
		if allBetter {
			j.verdict = verdictNoWorse
		}
	case worseBy <= bound:
		j.verdict = verdictNoWorse
	default:
		j.verdict = verdictWorse
	}
	return j
}

// loadResults reads every untraced result file in dir, grouped by
// workload and ordered by seed.
func loadResults(dir string) (map[string][]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]result)
	for _, p := range paths {
		r, err := readResultFile(p)
		if err != nil {
			return nil, err
		}
		if r.Trace != 0 {
			continue
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: result names no workload", p)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	for _, rs := range out {
		sort.Slice(rs, func(a, b int) bool { return rs[a].Seed < rs[b].Seed })
	}
	return out, nil
}

func values(rs []result, metric string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parentDir := fs.String("parent", "", "directory of the parent's result files")
	changeDir := fs.String("change", "", "directory of the change's result files")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parentDir == "" || *changeDir == "" {
		fmt.Fprintln(stderr, "perfbench compare: need -parent and -change directories")
		return 2
	}
	b, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", *specPath, err)
		return 1
	}
	parent, err := loadResults(*parentDir)
	if err == nil {
		var change map[string][]result
		change, err = loadResults(*changeDir)
		if err == nil {
			return printComparison(stdout, sp, parent, change)
		}
	}
	fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
	return 1
}

// printComparison prints one row per (workload, metric) and returns 1 when
// any reads worse.
func printComparison(w io.Writer, sp spec, parent, change map[string][]result) int {
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-10s %-14s %-34s %-34s %6s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	code := 0
	for _, name := range names {
		for _, m := range sp.EndToEnd {
			p, c := values(parent[name], m.Name), values(change[name], m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			j := judge(p, c, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-10s %-14s %-34s %-34s %5.0f%%  %s (n=%d/%d, bound %g)\n", name, m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", j.parent[1], j.parent[0], j.parent[2]),
				fmt.Sprintf("%.5g [%.5g, %.5g]", j.change[1], j.change[0], j.change[2]),
				100*j.winShare, j.verdict, len(p), len(c), m.Bound)
			if j.verdict == verdictWorse {
				code = 1
			}
		}
	}
	return code
}
