package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports: what a user of the
// detector sees. BENCHMARK.json lists the same names with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "ratio"},
}

// layerSelf are the layers a traced operation's wall time is attributed
// to, in the order the attribution is printed. "bench" is the benchmark's
// own code between layer calls: the unattributed remainder.
var layerSelf = []string{"ir", "spin", "vm", "event", "detect", "sched", "serve"}

// perLayer are the metrics a traced run reports. Every workload prints all
// of them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"ir.build_ms", "ms"},
	{"vm.decode_ms", "ms"},
	{"spin.instrument_ms", "ms"},
	{"vm.ns_per_event", "ns/event"},
	{"vm.us_per_run", "us"},
	{"detect.us_per_run", "us"},
	{"event.decode_ns_per_event", "ns/event"},
	{"event.bytes_per_event", "B/event"},
	{"detect.lib.ns_per_event", "ns/event"},
	{"detect.spin.ns_per_event", "ns/event"},
	{"detect.nolib.ns_per_event", "ns/event"},
	{"detect.drd.ns_per_event", "ns/event"},
	{"detect.shadow_bytes", "B"},
	{"detect.gc_cycles", "count"},
	{"detect.gc_words_retired", "count"},
	{"detect.readset_promotions_per_kevent", "1/kevent"},
	{"hb.epoch_hit_rate", "ratio"},
	{"hb.inflates_per_kevent", "1/kevent"},
	{"detect.spin_edges", "count"},
	{"sched.efficiency", "ratio"},
	{"serve.overhead_ms", "ms"},
	{"serve.frames_per_session", "count"},
	{"serve.outbox_stall_ms", "ms"},
	{"serve.evictions", "count"},
	{"serve.shed", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "B"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"ir.self_ms", "ms"},
	{"spin.self_ms", "ms"},
	{"vm.self_ms", "ms"},
	{"event.self_ms", "ms"},
	{"detect.self_ms", "ms"},
	{"sched.self_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"attrib.unattributed_ms", "ms"},
	{"attrib.op_wall_ms", "ms"},
	{"attrib.unattributed_share", "ratio"},
	{"attrib.tracing_overhead_share", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the last line the benchmark prints, and the
// record the compare mode reads back. Workload, Seed and Trace identify the
// run and are omitted from the printed line.
type result struct {
	Workload  string            `json:"workload,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
	Trace     int               `json:"trace,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult fills every metric of defs from values (absent ones read 0).
func newResult(defs []metricDef, values map[string]float64, attempted, failed int) result {
	r := result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// writeResultFile stores r, with its identifying fields, at path.
func writeResultFile(path string, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

// readResultFile loads a result written by writeResultFile (or a saved
// last line of the benchmark's output).
func readResultFile(path string) (result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return result{}, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return result{}, fmt.Errorf("%s: %w", path, err)
	}
	if r.Metrics == nil {
		return result{}, fmt.Errorf("%s: no metrics", path)
	}
	return r, nil
}
