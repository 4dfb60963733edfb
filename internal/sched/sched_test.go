package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDefaultsToGOMAXPROCS(t *testing.T) {
	if w := Default().Workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers() = %d, want GOMAXPROCS = %d", w, runtime.GOMAXPROCS(0))
	}
	if w := New(Options{Workers: 3}).Workers(); w != 3 {
		t.Errorf("Workers() = %d, want 3", w)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, e := range []*Engine{New(Options{Workers: 1}), Default(), New(Options{Workers: 3})} {
		out, err := Map(e, items, func(v int) (int, error) { return v * v, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
			}
		}
	}
}

func TestForEachRunsEveryJobOnce(t *testing.T) {
	const n = 1000
	counts := make([]atomic.Int32, n)
	e := New(Options{Workers: 8})
	if err := e.ForEach(n, func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 4
	var cur, peak atomic.Int32
	e := New(Options{Workers: workers})
	err := e.ForEach(200, func(int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent jobs, bound is %d", p, workers)
	}
}

// TestErrorMatchesSequential pins the determinism contract for errors:
// the one-worker engine runs jobs inline and stops at the first error, and
// the parallel batch surfaces the error of the lowest failing index —
// exactly the error the one-worker run stops at.
func TestErrorMatchesSequential(t *testing.T) {
	fail := map[int]bool{7: true, 3: true, 42: true}
	var ran atomic.Int32
	job := func(i int) error {
		ran.Add(1)
		if fail[i] {
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	}
	seqErr := New(Options{Workers: 1}).ForEach(100, job)
	if n := ran.Load(); n != 4 {
		t.Errorf("one-worker batch ran %d jobs, want 4 (stop at the first error, job 3)", n)
	}
	parErr := New(Options{Workers: 8}).ForEach(100, job)
	if seqErr == nil || parErr == nil {
		t.Fatal("both modes must fail")
	}
	if seqErr.Error() != parErr.Error() {
		t.Errorf("one-worker error %q != parallel error %q", seqErr, parErr)
	}
	if want := "job 3 failed"; parErr.Error() != want {
		t.Errorf("got %q, want %q (lowest failing index)", parErr, want)
	}
}

func TestMapReturnsNilOnError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(Default(), []int{1, 2, 3}, func(v int) (int, error) {
		if v == 2 {
			return 0, boom
		}
		return v, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if out != nil {
		t.Errorf("out = %v, want nil on error", out)
	}
}

func TestPanicPropagatesOriginalValue(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected re-panic on the submitting goroutine")
		}
		// The lowest panicking job's value must arrive intact, exactly as
		// sequential execution would deliver it.
		if got, want := fmt.Sprint(r), "bad job 5"; got != want {
			t.Errorf("recovered %q, want %q (lowest panicking job, original value)", got, want)
		}
	}()
	_ = New(Options{Workers: 4}).ForEach(20, func(i int) error {
		if i == 5 || i == 11 {
			panic(fmt.Sprintf("bad job %d", i))
		}
		return nil
	})
}

// TestErrorBeforePanicWins pins the outcome ordering: when a lower index
// errors and a higher index panics, the error wins — sequential execution
// would have stopped at the error and never reached the panicking job.
func TestErrorBeforePanicWins(t *testing.T) {
	err := New(Options{Workers: 4}).ForEach(20, func(i int) error {
		if i == 2 {
			return errors.New("job 2 failed")
		}
		if i == 5 {
			panic("job 5 panicked")
		}
		return nil
	})
	if err == nil || err.Error() != "job 2 failed" {
		t.Errorf("err = %v, want the lower-index job's error", err)
	}
}

func TestZeroAndOneJob(t *testing.T) {
	if err := Default().ForEach(0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
	ran := 0
	if err := Default().ForEach(1, func(int) error { ran++; return nil }); err != nil {
		t.Errorf("n=1: %v", err)
	}
	if ran != 1 {
		t.Errorf("n=1 ran %d times", ran)
	}
}

// TestStress hammers the pool with many batches of tiny jobs touching
// shared atomics — the cnosdb/imptest-style `-race` regression pattern:
// the test's value is running under `go test -race`.
func TestStress(t *testing.T) {
	var total atomic.Int64
	engines := []*Engine{
		New(Options{Workers: 1}),
		New(Options{Workers: 2}),
		New(Options{Workers: runtime.GOMAXPROCS(0)}),
		New(Options{Workers: 4 * runtime.GOMAXPROCS(0)}),
	}
	const batches, jobs = 50, 64
	want := int64(0)
	for b := 0; b < batches; b++ {
		e := engines[b%len(engines)]
		if err := e.ForEach(jobs, func(i int) error {
			total.Add(int64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want += jobs * (jobs - 1) / 2
	}
	if got := total.Load(); got != want {
		t.Errorf("total = %d, want %d", got, want)
	}
}

// TestStressNested exercises batches submitted from inside jobs (the
// shape AccuracyTable-over-Accuracy would have had): it must not
// deadlock and must stay race-free.
func TestStressNested(t *testing.T) {
	outer := New(Options{Workers: 4})
	inner := New(Options{Workers: 2})
	var total atomic.Int64
	if err := outer.ForEach(16, func(int) error {
		return inner.ForEach(16, func(j int) error {
			total.Add(1)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if got := total.Load(); got != 16*16 {
		t.Errorf("total = %d, want %d", got, 16*16)
	}
}
