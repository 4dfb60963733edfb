// Package detect implements the dynamic race detectors evaluated in the
// paper: the Helgrind+ hybrid (lockset + happens-before, with the spin-loop
// feature of this paper), the DRD-style pure happens-before baseline, and a
// pure Eraser lockset reference used in tests.
//
// A Detector consumes the vm event stream of one execution and produces a
// Report. The paper's four tool configurations are exposed as presets:
//
//	Helgrind+ lib          — library interception only
//	Helgrind+ lib+spin(k)  — interception plus spin detection, window k
//	Helgrind+ nolib+spin(k)— spin detection only (the universal detector)
//	DRD                    — pure happens-before baseline
package detect

import (
	"fmt"

	"adhocrace/internal/ir"
	"adhocrace/internal/spin"
)

// Tool selects the detection algorithm.
type Tool uint8

// Tools. Each tool fixes its own detection policy; no Config field
// restates it.
const (
	// HelgrindPlus is the hybrid detector: vector-clock happens-before
	// race checking with Eraser lockset classification, the first racy
	// context per address reported, unlimited access history, and the
	// spin-loop feature when SpinWindow > 0. With the spin feature off it
	// suppresses reports on any address ever accessed atomically, the
	// coarse sync-variable heuristic that the spin feature replaces with
	// exact spin-confirmed classification.
	HelgrindPlus Tool = iota
	// DRDTool is the pure happens-before baseline: every (address,
	// access site) pair reported once, a bounded segment history (two
	// accesses more than drdHistory events apart never pair into a race),
	// atomic accesses excluded from race checking, and no barrier
	// awareness (barrier waits create no happens-before edges).
	DRDTool
	// EraserTool is the classic lockset-only detector, reporting the
	// first lockset violation per address (test reference; not part of
	// the paper's tables).
	EraserTool
)

var toolNames = [...]string{"helgrind+", "drd", "eraser"}

// String names the tool.
func (t Tool) String() string {
	if int(t) < len(toolNames) {
		return toolNames[t]
	}
	return "tool(?)"
}

// Config selects a tool configuration. Zero value is not valid; use the
// preset constructors.
type Config struct {
	// Name labels the configuration in reports and tables.
	Name string
	// Tool is the detection algorithm.
	Tool Tool
	// KnownLibs is the set of library tags whose calls are intercepted:
	// their internals are hidden and replaced by semantic sync events.
	KnownLibs map[ir.LibTag]bool
	// SpinWindow is the basic-block window of the spin-loop
	// instrumentation; 0 disables the feature.
	SpinWindow int
	// InferLocks enables the paper's future-work extension: identify lock
	// words (conditions of CAS-acquire spin loops) so that fast-path
	// acquires outside the loop also synchronize. Improves the accuracy
	// of the universal detector on two-phase locks.
	InferLocks bool
}

// drdHistory is the event-distance budget modeling DRD's segment
// recycling.
const drdHistory = 2000

func pthreadGlib() map[ir.LibTag]bool {
	return map[ir.LibTag]bool{ir.LibPthread: true, ir.LibGlib: true}
}

// HelgrindPlusLib is the paper's "Helgrind+ lib" configuration: pthread and
// GLIB interception, no spin detection, atomic sync-variable heuristic.
func HelgrindPlusLib() Config {
	return Config{
		Name:      "Helgrind+ lib",
		Tool:      HelgrindPlus,
		KnownLibs: pthreadGlib(),
	}
}

// HelgrindPlusLibSpin is "Helgrind+ lib+spin(k)": interception plus the
// spin-loop feature with basic-block window k.
func HelgrindPlusLibSpin(window int) Config {
	return Config{
		Name:       fmt.Sprintf("Helgrind+ lib+spin(%d)", window),
		Tool:       HelgrindPlus,
		KnownLibs:  pthreadGlib(),
		SpinWindow: window,
	}
}

// HelgrindPlusNolibSpin is "Helgrind+ nolib+spin(k)": the universal
// detector — no library knowledge at all, spin detection only.
func HelgrindPlusNolibSpin(window int) Config {
	return Config{
		Name:       fmt.Sprintf("Helgrind+ nolib+spin(%d)", window),
		Tool:       HelgrindPlus,
		KnownLibs:  map[ir.LibTag]bool{},
		SpinWindow: window,
	}
}

// HelgrindPlusNolibSpinLocks is the universal detector with the paper's
// future-work extension enabled: lock-operation identification.
func HelgrindPlusNolibSpinLocks(window int) Config {
	cfg := HelgrindPlusNolibSpin(window)
	cfg.Name = fmt.Sprintf("Helgrind+ nolib+spin(%d)+locks", window)
	cfg.InferLocks = true
	return cfg
}

// DRD is the paper's comparison baseline.
func DRD() Config {
	return Config{
		Name:      "DRD",
		Tool:      DRDTool,
		KnownLibs: map[ir.LibTag]bool{ir.LibPthread: true},
	}
}

// Eraser is the pure lockset reference detector.
func Eraser() Config {
	return Config{
		Name:      "Eraser",
		Tool:      EraserTool,
		KnownLibs: pthreadGlib(),
	}
}

// PaperTools returns the four configurations of the paper's tables, with
// the given spin window (the paper uses 7).
func PaperTools(window int) []Config {
	return []Config{
		HelgrindPlusLib(),
		HelgrindPlusLibSpin(window),
		HelgrindPlusNolibSpin(window),
		DRD(),
	}
}

// maxWindow bounds the spin window Preset accepts.
const maxWindow = 1024

// Preset resolves a short tool name to its configuration: the one tool
// vocabulary of racedetect's -tool flag, the server's session requests
// and the differential fuzzer. window parameterizes the spin presets;
// window <= 0 uses the paper's window of 7, and a window past 1024 is an
// error.
func Preset(tool string, window int) (Config, error) {
	if window <= 0 {
		window = 7
	}
	if window > maxWindow {
		return Config{}, fmt.Errorf("detect: spin window %d out of range", window)
	}
	switch tool {
	case "lib":
		return HelgrindPlusLib(), nil
	case "spin", "":
		return HelgrindPlusLibSpin(window), nil
	case "nolib":
		return HelgrindPlusNolibSpin(window), nil
	case "nolib+locks":
		return HelgrindPlusNolibSpinLocks(window), nil
	case "drd":
		return DRD(), nil
	case "eraser":
		return Eraser(), nil
	}
	return Config{}, fmt.Errorf("unknown tool %q (want lib, spin, nolib, nolib+locks, drd, eraser)", tool)
}

// supportsSync reports whether the configuration turns the given sync kind
// into happens-before edges: every kind but DRD's barrier waits.
func (c *Config) supportsSync(k ir.SyncKind) bool {
	return c.Tool != DRDTool || k != ir.SyncBarrierWait
}

// Instrument runs the instrumentation phase of the configuration over a
// program (nil when the spin feature is off).
func (c *Config) Instrument(p *ir.Program) *spin.Instrumentation {
	if c.SpinWindow <= 0 {
		return nil
	}
	return spin.Analyze(p, c.SpinWindow)
}
