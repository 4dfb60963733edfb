package fault

import (
	"errors"
	"testing"
)

// TestFireDisabled: the nil registry and an unarmed site never fire.
func TestFireDisabled(t *testing.T) {
	var nilReg *Registry
	for _, name := range Names() {
		if err := nilReg.Fire(name); err != nil {
			t.Fatalf("nil registry fired %s: %v", name, err)
		}
	}
	r := New()
	if err := r.Fire(SegmentRotate); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
	if r.Hits(SegmentRotate) != 0 || nilReg.Hits(SegmentRotate) != 0 {
		t.Fatalf("unarmed sites counted hits")
	}
}

// TestFireModes: error mode returns an *Injected matching ErrInjected,
// panic mode panics with one, sleep mode returns nil but counts the fire.
func TestFireModes(t *testing.T) {
	r := New()
	if err := r.Arm(DetectMerge, ModeError, 0, 1); err != nil {
		t.Fatal(err)
	}
	err := r.Fire(DetectMerge)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("error mode: err = %v, want ErrInjected match", err)
	}
	var inj *Injected
	if !errors.As(err, &inj) || inj.Name != DetectMerge {
		t.Fatalf("error mode: err = %#v, want *Injected{%s}", err, DetectMerge)
	}
	if r.FiredCount(DetectMerge) != 1 {
		t.Fatalf("fired count = %d, want 1", r.FiredCount(DetectMerge))
	}
	// Budget exhausted: no further fires.
	for i := 0; i < 5; i++ {
		if err := r.Fire(DetectMerge); err != nil {
			t.Fatalf("fired past budget: %v", err)
		}
	}

	r = New()
	r.Arm(GCCycle, ModePanic, 0, 1)
	func() {
		defer func() {
			rec := recover()
			inj, ok := rec.(*Injected)
			if !ok || inj.Name != GCCycle {
				t.Fatalf("panic mode: recovered %#v, want *Injected{%s}", rec, GCCycle)
			}
		}()
		r.Fire(GCCycle)
		t.Fatalf("panic mode did not panic")
	}()

	r = New()
	r.Arm(SegmentRotate, ModeSleep, 0, 2)
	if err := r.Fire(SegmentRotate); err != nil {
		t.Fatalf("sleep mode returned %v, want nil", err)
	}
	if r.FiredCount(SegmentRotate) != 1 {
		t.Fatalf("sleep fire not counted")
	}
}

// TestFireAtHit: @hit fires on exactly that evaluation.
func TestFireAtHit(t *testing.T) {
	r := New()
	r.Arm(ServeFrameWrite, ModeError, 3, 1)
	for i := 1; i <= 5; i++ {
		err := r.Fire(ServeFrameWrite)
		if (err != nil) != (i == 3) {
			t.Fatalf("hit %d: err = %v", i, err)
		}
	}
	if r.Hits(ServeFrameWrite) != 5 || r.FiredCount(ServeFrameWrite) != 1 {
		t.Fatalf("hits=%d fired=%d, want 5/1", r.Hits(ServeFrameWrite), r.FiredCount(ServeFrameWrite))
	}
}

// TestSeededDeterminism: equal seeds reproduce the exact firing pattern;
// different seeds or sites produce different ones.
func TestSeededDeterminism(t *testing.T) {
	pattern := func(seed int64, name string) []bool {
		r := New()
		if err := r.ArmSeeded(name, ModeError, 10, seed); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		for i := range out {
			out[i] = r.Fire(name) != nil
		}
		return out
	}
	eq := func(a, b []bool) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	count := func(a []bool) int {
		n := 0
		for _, v := range a {
			if v {
				n++
			}
		}
		return n
	}
	a := pattern(7, ServeOutboxSend)
	if !eq(a, pattern(7, ServeOutboxSend)) {
		t.Fatalf("same seed produced different firing patterns")
	}
	if eq(a, pattern(8, ServeOutboxSend)) {
		t.Fatalf("different seeds produced the same pattern")
	}
	if eq(a, pattern(7, ServeFrameWrite)) {
		t.Fatalf("different sites fired identically under one seed")
	}
	// Rate 10 over 200 evaluations: the realized rate must be in the right
	// ballpark (seeded mixing, not a pathological constant).
	if n := count(a); n < 5 || n > 60 {
		t.Fatalf("rate 10 fired %d/200 times", n)
	}
}

// TestParse covers the -failpoints grammar and its error cases.
func TestParse(t *testing.T) {
	r, err := Parse("detect.merge=error@2, gc.cycle=panicx3,serve.outbox.send=sleep%10/7")
	if err != nil {
		t.Fatal(err)
	}
	if r.Fire(DetectMerge) != nil {
		t.Fatalf("@2 fired on hit 1")
	}
	if r.Fire(DetectMerge) == nil {
		t.Fatalf("@2 did not fire on hit 2")
	}
	// gc.cycle=panic x3: fires (panics) on the first three evaluations.
	for i := 0; i < 3; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("panic spec did not panic on hit %d", i+1)
				}
			}()
			r.Fire(GCCycle)
		}()
	}
	if err := r.Fire(GCCycle); err != nil {
		t.Fatalf("panic spec fired past its x3 budget: %v", err)
	}

	for _, bad := range []string{
		"nosuchpoint=error",            // unknown name
		"detect.merge",                 // no mode
		"detect.merge=explode",         // unknown mode
		"detect.merge=error@0",         // hit must be >= 1
		"detect.merge=error%0",         // rate must be >= 1
		"detect.merge=error@2%5",       // @hit and %rate exclusive
		"detect.merge=errorxtwo",       // bad count
		"serve.accept=error%10/banana", // bad seed
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
	if _, err := Parse(""); err != nil {
		t.Errorf("empty spec: %v", err)
	}
}

// TestSeededBlanket: Seeded arms every site.
func TestSeededBlanket(t *testing.T) {
	r := Seeded(3, 2)
	for _, name := range Names() {
		fired := false
		for i := 0; i < 64 && !fired; i++ {
			fired = r.Fire(name) != nil
		}
		if !fired {
			t.Errorf("site %s never fired at rate 2 over 64 evaluations", name)
		}
	}
}

// TestDisabledZeroAlloc pins the zero-cost contract: Fire on the nil
// registry, on an enabled registry with the site unarmed, and on an armed
// site that decides not to fire must all allocate nothing. The same
// AllocsPerRun pattern internal/obs pins its disabled probes with.
func TestDisabledZeroAlloc(t *testing.T) {
	var nilReg *Registry
	if n := testing.AllocsPerRun(1000, func() { nilReg.Fire(SegmentRotate) }); n != 0 {
		t.Errorf("nil registry: %v allocs/op, want 0", n)
	}
	unarmed := New()
	if n := testing.AllocsPerRun(1000, func() { unarmed.Fire(SegmentRotate) }); n != 0 {
		t.Errorf("unarmed site: %v allocs/op, want 0", n)
	}
	late := New()
	late.Arm(SegmentRotate, ModeError, 1<<40, 1) // armed, never reaches its hit
	if n := testing.AllocsPerRun(1000, func() { late.Fire(SegmentRotate) }); n != 0 {
		t.Errorf("armed non-firing site: %v allocs/op, want 0", n)
	}
}
