// Package synth is the workload synthesis engine: a deterministic,
// seed-driven generator that assembles ir.Programs from composable
// fragments — spin-loop variants (plain flag, atomic flag, bounded retry,
// double-checked, flag reused after reset), lock/condvar/barrier-protected
// regions, and deliberately racy accesses — while maintaining a built-in
// happens-before oracle so every generated program carries ground truth:
// which shared variables are racy, which spin loops a correct detector must
// classify as synchronization, and which idioms fall outside the paper's
// model (those are explicitly categorized, never silently skipped).
//
// The paper's accuracy claims rest on a fixed 120-case suite; the space of
// ad-hoc synchronization idioms in the wild is far larger (Xiong et al.,
// OSDI 2010). This package makes scenario coverage unbounded: Generate(seed)
// yields a labelled program per seed, Differ runs it under the spin/lib/
// drd/eraser tool presets and scores each against the oracle (FP/FN per
// idiom category), and Shrink reduces any oracle-vs-tool disagreement to a
// minimal reproducer that EmitGo renders as compilable Go source ready to
// paste into internal/workloads/dataracetest.
//
// Determinism: the same seed produces a byte-identical program (asserted on
// the disassembly), oracle, and differential report, under any worker
// count — generation draws from a private math/rand source and the
// differential runs go through the order-preserving experiment engine.
package synth

import (
	"fmt"
	"math/rand"

	"adhocrace/internal/ir"
	"adhocrace/internal/synclib"
)

// Kind enumerates the fragment idiom categories the generator composes.
type Kind uint8

// Fragment kinds. The spin variants reproduce the hand-rolled ad-hoc
// synchronization idioms the paper targets; the lib kinds exercise the
// interception path; the racy kinds plant genuine data races with known
// detectability signatures (close, window-separated, atomic/plain mixed).
const (
	// KindSpinPlain: plain-flag hand-off through a spinning read loop of
	// Blocks basic blocks. Race-free; within the paper's model.
	KindSpinPlain Kind = iota
	// KindSpinAtomic: atomic-flag hand-off with a long filler delay before
	// the flag is raised (the paired accesses are window-separated).
	// Race-free; within the model.
	KindSpinAtomic
	// KindSpinRetry: a bounded-retry wait whose loop condition involves the
	// retry counter — an induction variable, so the classifier rejects the
	// loop. Race-free in reality but outside the paper's model: the spin
	// preset is expected to false-positive here, and the oracle categorizes
	// the exclusion instead of skipping it.
	KindSpinRetry
	// KindSpinDoubleChecked: flag hand-off whose observation is re-checked
	// once more after the loop exits (double-checked style: both re-check
	// outcomes read the data). Race-free; within the model.
	KindSpinDoubleChecked
	// KindSpinFlagReuse: the flag is raised, consumed, reset by the
	// consumer, and the reset is itself awaited by the producer — a
	// ping-pong in which one flag word carries hand-offs in both
	// directions. Race-free; both loops are within the model.
	KindSpinFlagReuse
	// KindLock: Threads workers increment a shared cell Rounds times under
	// one mutex. Race-free for every preset.
	KindLock
	// KindCondvar: producer/consumer over a condition variable with a
	// mutex-protected predicate. Race-free for every preset.
	KindCondvar
	// KindBarrier: Threads workers write rotating cells of a shared array
	// across two barrier-separated phases — race-free, but only barrier-
	// aware tools can tell (DRD famously has no barrier model).
	KindBarrier
	// KindRacyPlain: Threads workers touch one cell with no synchronization
	// at all. Racy; every preset should warn.
	KindRacyPlain
	// KindRacyAdhoc: ad-hoc synchronization present but insufficient — the
	// flag is raised before the data is written. Racy; the injected spin
	// edge does not cover the late write.
	KindRacyAdhoc
	// KindRacyWindow: a genuine race whose accesses are separated by more
	// filler events than DRD's segment history, so DRD misses it.
	KindRacyWindow
	// KindRacyAtomicMix: the shared cell is written atomically by one
	// thread and plainly by another. Racy; Helgrind+ lib's coarse atomic
	// sync-variable heuristic suppresses it (the paper's recovered false
	// negative), the spin feature's exact classification restores it.
	KindRacyAtomicMix

	numKinds
)

var kindNames = [...]string{
	KindSpinPlain:         "spin-plain",
	KindSpinAtomic:        "spin-atomic",
	KindSpinRetry:         "spin-retry",
	KindSpinDoubleChecked: "spin-double-checked",
	KindSpinFlagReuse:     "spin-flag-reuse",
	KindLock:              "lock",
	KindCondvar:           "condvar",
	KindBarrier:           "barrier",
	KindRacyPlain:         "racy-plain",
	KindRacyAdhoc:         "racy-adhoc",
	KindRacyWindow:        "racy-window",
	KindRacyAtomicMix:     "racy-atomic-mix",
}

// String returns the category name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

var kindGoNames = [...]string{
	KindSpinPlain:         "KindSpinPlain",
	KindSpinAtomic:        "KindSpinAtomic",
	KindSpinRetry:         "KindSpinRetry",
	KindSpinDoubleChecked: "KindSpinDoubleChecked",
	KindSpinFlagReuse:     "KindSpinFlagReuse",
	KindLock:              "KindLock",
	KindCondvar:           "KindCondvar",
	KindBarrier:           "KindBarrier",
	KindRacyPlain:         "KindRacyPlain",
	KindRacyAdhoc:         "KindRacyAdhoc",
	KindRacyWindow:        "KindRacyWindow",
	KindRacyAtomicMix:     "KindRacyAtomicMix",
}

// GoName returns the Go identifier of the kind, for EmitGo.
func (k Kind) GoName() string {
	if int(k) < len(kindGoNames) {
		return kindGoNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Racy reports the kind's ground truth: whether a fragment of this kind
// contains at least one genuine data race.
func (k Kind) Racy() bool {
	switch k {
	case KindRacyPlain, KindRacyAdhoc, KindRacyWindow, KindRacyAtomicMix:
		return true
	}
	return false
}

// WithinModel reports whether the kind's synchronization (if any) is inside
// the paper's spin-loop model — i.e. a correct spin-aware detector resolves
// the fragment exactly. The one excluded kind is KindSpinRetry: its loop
// condition involves an induction variable, which criterion 3 of the
// classifier rejects.
func (k Kind) WithinModel() bool { return k != KindSpinRetry }

// ExclusionReason names why an out-of-model kind is excluded (empty for
// kinds within the model).
func (k Kind) ExclusionReason() string {
	if k == KindSpinRetry {
		return "loop condition involves an induction variable (retry counter); classifier criterion 3 rejects it"
	}
	return ""
}

// fillerEvents is the number of memory events the window-separating filler
// emits — comfortably more than DRD's 2000-event segment history.
const fillerEvents = 3000

// Fragment is one composable building block of a generated program. Index
// namespaces the fragment's globals (f<Index>_*) and worker functions
// (f<Index>_w*), so warnings attribute back to their fragment by symbol or
// source-file prefix even after shrinking deletes neighbours.
type Fragment struct {
	Kind  Kind
	Index int
	// Blocks is the spinning read loop's basic-block count (spin kinds;
	// 2..7 stays within the paper's default window).
	Blocks int
	// Threads is the fragment's worker count (lock/barrier/racy-plain
	// kinds; the hand-off kinds always use two).
	Threads int
	// Rounds is the per-worker repetition count (lock kind).
	Rounds int
}

// Workers returns the number of worker threads the fragment spawns.
func (f Fragment) Workers() int {
	switch f.Kind {
	case KindLock, KindBarrier, KindRacyPlain:
		return f.Threads
	default:
		return 2
	}
}

// prefix is the fragment's namespace prefix for globals and workers.
func (f Fragment) prefix() string { return fmt.Sprintf("f%02d_", f.Index) }

// String renders the fragment compactly.
func (f Fragment) String() string {
	s := fmt.Sprintf("f%02d:%s", f.Index, f.Kind)
	if f.Blocks > 0 {
		s += fmt.Sprintf("/b%d", f.Blocks)
	}
	if f.Threads > 0 {
		s += fmt.Sprintf("/t%d", f.Threads)
	}
	if f.Rounds > 1 {
		s += fmt.Sprintf("/r%d", f.Rounds)
	}
	return s
}

// VarRole classifies a fragment variable for the oracle.
type VarRole uint8

// Variable roles.
const (
	// RoleData is an ordinary shared cell; the oracle race-checks it.
	RoleData VarRole = iota
	// RoleFlag is an ad-hoc synchronization flag: its value transfers
	// carry happens-before edges and races on it are synchronization
	// races, not data races.
	RoleFlag
	// RoleScratch is thread-private filler storage.
	RoleScratch
	// RoleLib is a library primitive word (mutex/cond/barrier); its
	// accesses are hidden by interception.
	RoleLib
)

var roleNames = [...]string{"data", "flag", "scratch", "lib"}

// String names the role.
func (r VarRole) String() string {
	if int(r) < len(roleNames) {
		return roleNames[r]
	}
	return "role(?)"
}

// Var is one labelled shared variable of a generated program.
type Var struct {
	Sym   string
	Addr  int64
	Words int
	Frag  int
	Role  VarRole
	// Racy is the ground truth for RoleData variables: whether the
	// program contains a genuine race on this variable.
	Racy bool
}

// Workload is a generated program plus its ground truth.
type Workload struct {
	Name  string
	Seed  int64 // generator seed (0 for hand-assembled workloads)
	Prog  *ir.Program
	Frags []Fragment
	Vars  []Var
}

// Racy reports the program-level ground truth: true when any fragment
// plants a genuine race.
func (w *Workload) Racy() bool {
	for _, f := range w.Frags {
		if f.Kind.Racy() {
			return true
		}
	}
	return false
}

// Options bound the generator's choices.
type Options struct {
	// MinFrags/MaxFrags bound the fragment count (defaults 2 and 5).
	MinFrags, MaxFrags int
	// MaxWorkers caps the total worker-thread budget (default 14).
	MaxWorkers int
}

func (o Options) withDefaults() Options {
	if o.MinFrags <= 0 {
		o.MinFrags = 2
	}
	if o.MaxFrags < o.MinFrags {
		o.MaxFrags = o.MinFrags + 3
	}
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = 14
	}
	return o
}

// kindDeck is the weighted draw the generator picks kinds from: spin
// idioms dominate (they are the paper's subject), with enough lib-protected
// and racy fragments to keep every preset's signature exercised.
var kindDeck = []Kind{
	KindSpinPlain, KindSpinPlain, KindSpinPlain,
	KindSpinAtomic, KindSpinAtomic,
	KindSpinRetry,
	KindSpinDoubleChecked,
	KindSpinFlagReuse,
	KindLock, KindLock,
	KindCondvar,
	KindBarrier,
	KindRacyPlain, KindRacyPlain,
	KindRacyAdhoc,
	KindRacyWindow,
	KindRacyAtomicMix,
}

// Generate produces the workload for one seed. Identical seeds yield
// byte-identical workloads: the fragment list, the program disassembly, and
// the oracle all reproduce exactly.
func Generate(seed int64, opts Options) *Workload {
	o := opts.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	n := o.MinFrags + rng.Intn(o.MaxFrags-o.MinFrags+1)
	budget := o.MaxWorkers
	fillers := 0 // window-separating fragments are capped at two per program
	var frags []Fragment
	for i := 0; i < n; i++ {
		f := Fragment{Index: i}
		for {
			f.Kind = kindDeck[rng.Intn(len(kindDeck))]
			if f.Kind == KindSpinAtomic || f.Kind == KindRacyWindow {
				if fillers >= 2 {
					continue
				}
			}
			break
		}
		switch f.Kind {
		case KindSpinPlain, KindSpinAtomic, KindSpinRetry, KindSpinDoubleChecked, KindSpinFlagReuse:
			f.Blocks = 2 + rng.Intn(6) // 2..7
		case KindLock:
			f.Threads = 2 + rng.Intn(3) // 2..4
			f.Rounds = 1 + rng.Intn(3)  // 1..3
		case KindBarrier:
			f.Threads = 2 + rng.Intn(3)
		case KindRacyPlain:
			f.Threads = 2 + rng.Intn(2) // 2..3
		}
		if f.Rounds == 0 {
			f.Rounds = 1
		}
		if f.Workers() > budget {
			// Out of thread budget: fall back to the cheapest two-thread
			// fragment, or stop composing entirely.
			if budget < 2 {
				break
			}
			f = Fragment{Index: i, Kind: KindSpinPlain, Blocks: 2 + rng.Intn(6), Rounds: 1}
		}
		if f.Kind == KindSpinAtomic || f.Kind == KindRacyWindow {
			fillers++
		}
		budget -= f.Workers()
		frags = append(frags, f)
	}
	w := Assemble(fmt.Sprintf("synth_%d", seed), frags)
	w.Seed = seed
	return w
}

// Assemble builds a workload from an explicit fragment list. Fragment
// Index fields must be unique; they are preserved so shrinking keeps stable
// names. Used by Generate, by the shrinker, and by emitted reproducers.
func Assemble(name string, frags []Fragment) *Workload {
	w := &Workload{Name: name, Frags: append([]Fragment(nil), frags...)}
	b := ir.NewBuilder(name)
	lib := synclib.Install(b, ir.LibPthread)
	var workers []string
	for _, f := range w.Frags {
		workers = append(workers, emitFragment(w, b, lib, f)...)
	}
	m := b.Func("main", 0)
	m.SetLoc("main.c", 1)
	tids := make([]int, len(workers))
	for i, name := range workers {
		tids[i] = m.Spawn(name)
	}
	for _, tid := range tids {
		m.Join(tid)
	}
	m.Ret(ir.NoReg)
	w.Prog = b.MustBuild()
	return w
}

// Describe renders the workload's ground truth deterministically: the
// fragment list and every labelled variable. Determinism tests compare this
// string (and the program disassembly) across regenerations.
func (w *Workload) Describe() string {
	s := fmt.Sprintf("workload %s (seed %d, racy=%v)\n", w.Name, w.Seed, w.Racy())
	for _, f := range w.Frags {
		s += fmt.Sprintf("  %s racy=%v within-model=%v", f, f.Kind.Racy(), f.Kind.WithinModel())
		if r := f.Kind.ExclusionReason(); r != "" {
			s += " excluded: " + r
		}
		s += "\n"
	}
	for _, v := range w.Vars {
		s += fmt.Sprintf("  var %-22s @%-6d words=%d frag=f%02d role=%s racy=%v\n",
			v.Sym, v.Addr, v.Words, v.Frag, v.Role, v.Racy)
	}
	return s
}
