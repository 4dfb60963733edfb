// Package fault is the deterministic failpoint registry behind the chaos
// suite and raced's -failpoints flag: named injection sites threaded
// through the detection pipeline and the serve layer, armed per process
// with an explicit spec or a seeded firing rate.
//
// The contract mirrors internal/obs: every site calls Fire on a
// possibly-nil *Registry, and the disabled path is exactly one nil check —
// no map lookup, no atomics, no allocation (pinned by the AllocsPerRun
// tests). An enabled registry with the site unarmed costs one read of an
// immutable map. Arming happens entirely before the registry is shared;
// after that only the per-point atomic counters mutate, so concurrent
// sessions may fire the same registry freely.
//
// A fired point either returns an *Injected error (errors.Is-matchable
// against ErrInjected) or panics with one, per its armed mode. Sites with
// no error path escalate a returned error to a panic themselves — at those
// sites an injection is a stage crash by construction, which is precisely
// what the panic-containment boundary (session recovery in internal/serve)
// is tested against.
package fault

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Failpoint site names. Pipeline sites (through detect.RunOpts.Fault):
const (
	// SegmentRotate fires when the overlap pipeline hands a segment to the
	// consumer (event.Segmented.rotate). Reached only by a run whose
	// stream passes event.OverlapThreshold events.
	SegmentRotate = "segment.rotate"
	// DetectMerge fires when the run's report is assembled (Detector.Report).
	DetectMerge = "detect.merge"
	// GCCycle fires at the start of each quiescence GC cycle.
	GCCycle = "gc.cycle"
)

// Serve-layer sites (through serve.Config.Fault):
const (
	// CacheBuild fires before a workload is compiled into the prepared
	// cache (first request for that workload name).
	CacheBuild = "cache.build"
	// ServeAccept fires as a connection handler starts.
	ServeAccept = "serve.accept"
	// ServeFrameRead fires before the request frame is read.
	ServeFrameRead = "serve.frame.read"
	// ServeFrameWrite fires before each frame write to the client.
	ServeFrameWrite = "serve.frame.write"
	// ServeOutboxSend fires before each frame is queued on the outbox.
	ServeOutboxSend = "serve.outbox.send"
	// ServeTeardown fires at the start of session teardown.
	ServeTeardown = "serve.teardown"
)

// Names returns every registered failpoint site, pipeline sites first —
// the list the chaos conformance suite iterates to prove each one fires.
func Names() []string {
	return []string{
		SegmentRotate, DetectMerge, GCCycle,
		CacheBuild, ServeAccept, ServeFrameRead, ServeFrameWrite,
		ServeOutboxSend, ServeTeardown,
	}
}

// Mode selects what a fired point does.
type Mode uint8

// Modes.
const (
	// ModeError returns an *Injected from Fire. Sites with no error path
	// escalate it to a panic.
	ModeError Mode = iota
	// ModePanic panics with an *Injected inside Fire.
	ModePanic
	// ModeSleep sleeps sleepDelay and returns nil — a latency fault, for
	// exercising stall and deadline paths without failing the operation.
	ModeSleep
)

// sleepDelay is ModeSleep's fixed injected latency.
const sleepDelay = 10 * time.Millisecond

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeSleep:
		return "sleep"
	}
	return "mode(?)"
}

// ErrInjected is the sentinel every injected failure matches via errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// Injected is one injected failure, as returned (ModeError) or panicked
// (ModePanic) by a fired point.
type Injected struct {
	// Name is the failpoint site that fired.
	Name string
}

// Error implements error.
func (e *Injected) Error() string { return "fault: injected failure at " + e.Name }

// Is matches ErrInjected.
func (e *Injected) Is(target error) bool { return target == ErrInjected }

// point is one armed site. hits counts evaluations, budget the remaining
// fires, fired the fires taken — all atomics, everything else immutable
// after arming.
type point struct {
	mode Mode
	// at fires on exactly this 1-based evaluation (0 = every evaluation,
	// subject to rate).
	at int64
	// rate > 1 fires seed-deterministically on ~1/rate of evaluations.
	rate int64
	seed uint64

	hits   atomic.Int64
	budget atomic.Int64
	fired  atomic.Int64
}

// Registry is one armed failpoint set. The nil Registry is the disabled
// registry: Fire on it is a nil check.
type Registry struct {
	points map[string]*point
}

// New returns an enabled registry with nothing armed.
func New() *Registry { return &Registry{points: make(map[string]*point)} }

// Arm arms one site. mode/at/count follow the point semantics: at is the
// 1-based evaluation to fire on (0 = every evaluation), count bounds total
// fires (<= 0 means unlimited). Must be called before the registry is
// shared. Unknown names are rejected so a typo cannot silently arm nothing.
func (r *Registry) Arm(name string, mode Mode, at, count int64) error {
	if !known(name) {
		return fmt.Errorf("fault: unknown failpoint %q", name)
	}
	if count <= 0 {
		count = math.MaxInt64
	}
	p := &point{mode: mode, at: at}
	p.budget.Store(count)
	r.points[name] = p
	return nil
}

// ArmSeeded arms one site to fire seed-deterministically on ~1/rate of its
// evaluations, with unlimited budget. The decision for evaluation i is a
// pure function of (seed, name, i), so equal seeds reproduce equal firing
// patterns across runs.
func (r *Registry) ArmSeeded(name string, mode Mode, rate, seed int64) error {
	if !known(name) {
		return fmt.Errorf("fault: unknown failpoint %q", name)
	}
	if rate < 1 {
		rate = 1
	}
	p := &point{mode: mode, rate: rate, seed: mix(uint64(seed), hashName(name))}
	p.budget.Store(math.MaxInt64)
	r.points[name] = p
	return nil
}

// Seeded arms every site with ModeError at the given rate — the blanket
// chaos configuration soak-style tests use.
func Seeded(seed, rate int64) *Registry {
	r := New()
	for _, name := range Names() {
		r.ArmSeeded(name, ModeError, rate, seed)
	}
	return r
}

// Parse builds a registry from a comma-separated spec, the -failpoints
// flag syntax:
//
//	name=mode[@hit][%rate[/seed]][xcount]
//
// mode is error, panic, or sleep. @hit fires on exactly that 1-based
// evaluation; %rate fires seed-deterministically on ~1/rate of
// evaluations (seed defaults to 1). Without either, the point fires on
// every evaluation. xcount bounds total fires; the default is one fire
// for @hit/plain specs and unlimited for %rate specs.
func Parse(spec string) (*Registry, error) {
	r := New()
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fault: spec %q: want name=mode[@hit][%%rate[/seed]][xcount]", part)
		}
		var at, rate, seed, count int64
		seed = 1
		if i := strings.IndexByte(rest, 'x'); i >= 0 {
			n, err := strconv.ParseInt(rest[i+1:], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: spec %q: bad count: %v", part, err)
			}
			count, rest = n, rest[:i]
		}
		if i := strings.IndexByte(rest, '%'); i >= 0 {
			rs := rest[i+1:]
			rest = rest[:i]
			if j := strings.IndexByte(rs, '/'); j >= 0 {
				n, err := strconv.ParseInt(rs[j+1:], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: spec %q: bad seed: %v", part, err)
				}
				seed, rs = n, rs[:j]
			}
			n, err := strconv.ParseInt(rs, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("fault: spec %q: bad rate %q", part, rs)
			}
			rate = n
		}
		if i := strings.IndexByte(rest, '@'); i >= 0 {
			n, err := strconv.ParseInt(rest[i+1:], 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("fault: spec %q: bad hit %q", part, rest[i+1:])
			}
			at, rest = n, rest[:i]
		}
		var mode Mode
		switch rest {
		case "error":
			mode = ModeError
		case "panic":
			mode = ModePanic
		case "sleep":
			mode = ModeSleep
		default:
			return nil, fmt.Errorf("fault: spec %q: unknown mode %q", part, rest)
		}
		var err error
		if rate > 0 {
			if at > 0 {
				return nil, fmt.Errorf("fault: spec %q: @hit and %%rate are exclusive", part)
			}
			err = r.ArmSeeded(name, mode, rate, seed)
			if count > 0 {
				r.points[name].budget.Store(count)
			}
		} else {
			if count <= 0 {
				count = 1
			}
			err = r.Arm(name, mode, at, count)
		}
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Fire evaluates one site. On a nil registry, or with the site unarmed, it
// returns nil; an armed site that decides to fire returns an *Injected
// (ModeError), panics with one (ModePanic), or sleeps (ModeSleep).
func (r *Registry) Fire(name string) error {
	if r == nil {
		return nil
	}
	p := r.points[name]
	if p == nil {
		return nil
	}
	hit := p.hits.Add(1)
	switch {
	case p.at > 0:
		if hit != p.at {
			return nil
		}
	case p.rate > 1:
		if mix(p.seed, uint64(hit))%uint64(p.rate) != 0 {
			return nil
		}
	}
	if p.budget.Add(-1) < 0 {
		return nil
	}
	p.fired.Add(1)
	switch p.mode {
	case ModeSleep:
		time.Sleep(sleepDelay)
		return nil
	case ModePanic:
		panic(&Injected{Name: name})
	}
	return &Injected{Name: name}
}

// Hits returns how many times the site has been evaluated.
func (r *Registry) Hits(name string) int64 {
	if r == nil || r.points[name] == nil {
		return 0
	}
	return r.points[name].hits.Load()
}

// FiredCount returns how many times the site actually fired.
func (r *Registry) FiredCount(name string) int64 {
	if r == nil || r.points[name] == nil {
		return 0
	}
	return r.points[name].fired.Load()
}

// Fired returns per-site fire counts for every armed site.
func (r *Registry) Fired() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64, len(r.points))
	for name, p := range r.points {
		out[name] = p.fired.Load()
	}
	return out
}

func known(name string) bool {
	for _, n := range Names() {
		if n == name {
			return true
		}
	}
	return false
}

// mix is splitmix64 over the xor of its inputs — the deterministic firing
// decision for seeded points.
func mix(a, b uint64) uint64 {
	z := (a ^ b) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashName is FNV-1a, folding the site name into seeded decisions so two
// sites armed with one seed fire on different evaluations.
func hashName(name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return h
}
