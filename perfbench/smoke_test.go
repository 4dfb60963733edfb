package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// A very short run of every workload, untraced and traced: every
// operation passes its oracle, and the traced parts add up to the wall.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			w, _ := newWorkload(name)
			if lt, ok := w.(*longtraceWorkload); ok {
				lt.windows = 8
			}
			o := options{workload: name, seed: 2, seconds: 0.3, trace: trace, setups: 1, warmup: 50 * time.Millisecond}
			r, err := measure(w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s trace=%v: %d of %d operations failed", name, trace, r.Failed, r.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(r.Metrics), len(defs))
			}
			v := func(n string) float64 { return r.Metrics[n].Value }
			if !trace {
				if v("success_rate") != 1 {
					t.Errorf("%s: success_rate %g, want 1 (error rate 0)", name, v("success_rate"))
				}
				for _, d := range endToEnd {
					if v(d.name) <= 0 {
						t.Errorf("%s: %s = %g, want > 0", name, d.name, v(d.name))
					}
				}
				continue
			}
			sum := v("attrib.unattributed_ms")
			for _, l := range layerSelf {
				sum += v(l + ".self_ms")
			}
			if wall := v("attrib.op_wall_ms"); wall <= 0 || math.Abs(sum-wall) > 1e-6*wall {
				t.Errorf("%s: layer parts sum to %g ms, traced op wall %g ms", name, sum, wall)
			}
		}
	}
}

// BENCHMARK.json must describe exactly the workloads and metrics the
// benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var desc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &desc); err != nil {
		t.Fatal(err)
	}
	if len(desc.Workloads) != len(workloadNames) {
		t.Errorf("%d workloads described, %d implemented", len(desc.Workloads), len(workloadNames))
	}
	for i, w := range desc.Workloads {
		if _, ok := newWorkload(w.Name); !ok || i >= len(workloadNames) {
			t.Errorf("described workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d described, %d printed", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: described %s %s, printed %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", desc.EndToEnd, endToEnd)
	check("per_layer", desc.PerLayer, perLayer)
}
