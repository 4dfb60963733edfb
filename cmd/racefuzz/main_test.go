package main

import (
	"bytes"
	"strings"
	"testing"

	"adhocrace/internal/synth"
)

// TestGeneratesEachSeedOnce: racefuzz generates every seed once, whatever
// prints or consumes it (-v, -sweep, the corpus, the shrinker), and -v
// prints each seed's ground truth first, in seed order.
func TestGeneratesEachSeedOnce(t *testing.T) {
	t.Cleanup(func() { generate = synth.Generate })
	for _, args := range [][]string{
		{"-n", "30"},
		{"-n", "30", "-v"},
		{"-n", "30", "-sweep", "-v", "-no-oracle"},
		{"-n", "30", "-window", "3", "-no-oracle", "-shrink"},
	} {
		calls := 0
		generate = func(seed int64) *synth.Workload {
			calls++
			return synth.Generate(seed)
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("racefuzz %v: exit %d: %s", args, code, stderr.String())
		}
		if calls != 30 {
			t.Errorf("racefuzz %v: synth.Generate called %d times, want 30", args, calls)
		}
		if args[len(args)-1] == "-v" {
			var want strings.Builder
			for _, w := range synth.GenerateSeeds(1, 30) {
				want.WriteString(w.Describe())
			}
			if !strings.HasPrefix(stdout.String(), want.String()) {
				t.Errorf("racefuzz %v: output does not open with every seed's ground truth in order", args)
			}
		}
	}
}
