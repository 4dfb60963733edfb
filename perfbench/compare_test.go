package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		name        string
		change      []float64
		lowerBetter bool
		bound       float64
		want        string
		wins        float64
	}{
		{"same runs", parent, true, 0.1, verdictNoWorse, 0},
		{"slightly slower", []float64{104, 105, 103, 104, 106, 102, 104, 105, 103, 104}, true, 0.1, verdictNoWorse, 0},
		{"much slower", []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}, true, 0.1, verdictWorse, 0},
		{"clearly faster", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, true, 0.1, verdictImproved, 1},
		{"higher is better", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, false, 0.1, verdictWorse, 0},
		{"too noisy", []float64{50, 150, 60, 140, 100, 70, 130, 80, 120, 110}, true, 0.1, verdictUnresolved, 0.5},
	}
	for _, c := range cases {
		j := judge(parent, c.change, c.lowerBetter, c.bound)
		if j.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, j.verdict, c.want)
		}
		if j.winShare != c.wins {
			t.Errorf("%s: win share %g, want %g", c.name, j.winShare, c.wins)
		}
	}
}

func TestJudgeTiesCountForNeither(t *testing.T) {
	j := judge([]float64{1, 2, 3, 4}, []float64{1, 1, 3, 5}, true, 0.5)
	if j.winShare != 0.25 || j.pairs != 4 {
		t.Errorf("win share %g over %d pairs, want 0.25 over 4", j.winShare, j.pairs)
	}
}

func TestJudgeNoisyButEveryRunBetter(t *testing.T) {
	parent := []float64{100, 200, 150, 120}
	change := []float64{40, 45, 30, 35}
	if j := judge(parent, change, true, 0.1); j.verdict != verdictImproved {
		t.Errorf("verdict %q, want improved", j.verdict)
	}
	// Same, but the medians differ by less than the parent's spread.
	if j := judge(parent, []float64{99, 98, 97, 96}, true, 0.1); j.verdict != verdictNoWorse {
		t.Errorf("verdict %q, want no worse", j.verdict)
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	want := newResult(endToEnd, map[string]float64{"op_p50_ms": 1.25, "setup_s": 0.5}, 7, 1)
	want.Workload, want.Seed = "suite", 3
	if err := writeResultFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "suite" || got.Seed != 3 || got.Attempted != 7 || got.Failed != 1 || got.Correct {
		t.Errorf("round trip lost fields: %+v", got)
	}
	for _, d := range endToEnd {
		if got.Metrics[d.name] != want.Metrics[d.name] {
			t.Errorf("%s: %+v, want %+v", d.name, got.Metrics[d.name], want.Metrics[d.name])
		}
	}
}

func TestCompareMainReadsTwoSets(t *testing.T) {
	dir := t.TempDir()
	for _, side := range []string{"parent", "change"} {
		if err := os.Mkdir(filepath.Join(dir, side), 0o755); err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 4; seed++ {
			r := newResult(endToEnd, map[string]float64{"op_p50_ms": 10 + float64(seed%2)/10}, 5, 0)
			r.Workload, r.Seed = "suite", seed
			if err := writeResultFile(filepath.Join(dir, side, r.Workload+string(rune('0'+seed))+".json"), r); err != nil {
				t.Fatal(err)
			}
		}
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(`{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := compareMain([]string{"-parent", filepath.Join(dir, "parent"), "-change", filepath.Join(dir, "change"), "-spec", specPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "suite") || !strings.Contains(out.String(), verdictNoWorse) {
		t.Errorf("unexpected comparison:\n%s", out.String())
	}
}
