// Shadow-GC precision contract: the named cases below are exactly the
// places where retiring a dominated shadow word could change what the
// detector reports — per-address deduplication, atomic-ever suppression,
// long-run MSM arming, DRD's bounded history, and Eraser's reported bit.
// Each case replays a two-phase spawn-join program racing on one address,
// with the GC cycling every event so the word is provably retired between
// the phases, and pins the exact warning count plus byte-identical
// equality with the unbounded detector. The counts are the unbounded
// detector's — the contract is a precision delta of zero, carried by the
// sticky-flag side table (gc.go's retiredFlags).
package detect_test

import (
	"fmt"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/ir"
)

// gcPhase is one spawn-join round of buildPhasedRace: a worker stores to
// the shared X, and main optionally stores to it concurrently (the race),
// atomically or not, after an optional run of padding loads that stretch
// the event distance from the worker's store.
type gcPhase struct {
	race   bool
	atomic bool
	pad    int
}

// buildPhasedRace builds the two-phase program: per phase, spawn a worker
// that writes X, optionally pad, optionally race on X from main, then
// join. Every join makes X's shadow word dominated, so a GC cycling every
// event retires it between the phases.
func buildPhasedRace(phases []gcPhase) *ir.Program {
	b := ir.NewBuilder("gc-contract")
	x := b.Global("X")
	pad := b.Global("PAD")
	for i, ph := range phases {
		w := b.Func(fmt.Sprintf("worker%d", i), 0)
		if ph.atomic {
			w.AtomicStore(w.Addr(x, "X"), w.Const(int64(i+1)), "X")
		} else {
			w.StoreAddr(x, w.Const(int64(i+1)))
		}
		w.Ret(ir.NoReg)
	}
	m := b.Func("main", 0)
	for i, ph := range phases {
		tid := m.Spawn(fmt.Sprintf("worker%d", i))
		if ph.pad > 0 {
			idx := m.Mov(m.Const(0))
			lim := m.Const(int64(ph.pad))
			one := m.Const(1)
			head, body, done := m.NewBlock(), m.NewBlock(), m.NewBlock()
			m.Jmp(head)
			m.SetBlock(head)
			m.Br(m.CmpLT(idx, lim), body, done)
			m.SetBlock(body)
			m.LoadAddr(pad)
			m.BinTo(ir.OpAdd, idx, idx, one)
			m.Jmp(head)
			m.SetBlock(done)
		}
		if ph.race {
			if ph.atomic {
				m.AtomicStore(m.Addr(x, "X"), m.Const(int64(100+i)), "X")
			} else {
				m.StoreAddr(x, m.Const(int64(100+i)))
			}
		}
		m.Join(tid)
	}
	m.Ret(ir.NoReg)
	return b.MustBuild()
}

func TestShadowGCPrecisionContract(t *testing.T) {
	longRun := detect.HelgrindPlusLib()
	longRun.Name = "helgrind+lib+longrun"
	longRun.LongRunMSM = true

	cases := []struct {
		name   string
		cfg    detect.Config
		phases []gcPhase
		want   int // exact warning count, GC on and off alike
	}{
		// Per-address dedup: phase 1's report sets the sticky reported
		// bit; retirement must not resurrect the address for phase 2.
		{"dedup-resurrection", detect.HelgrindPlusLib(),
			[]gcPhase{{race: true}, {race: true}}, 1},
		// Atomic-ever suppression: phase 1's atomic pair never races but
		// brands the address; phase 2's plain race stays suppressed only
		// if the brand survives retirement.
		{"atomic-suppression", detect.HelgrindPlusLib(),
			[]gcPhase{{race: true, atomic: true}, {race: true}}, 0},
		// Long-run MSM: phase 1's race arms the suspected bit silently;
		// phase 2's race reports only if the arming survives retirement —
		// a lost bit would re-arm and report nothing.
		{"longrun-arming", longRun,
			[]gcPhase{{race: true}, {race: true}}, 1},
		// DRD bounded history: phase 1 is race-free (and retired); phase
		// 2's conflicting pair is padded past the 2000-event window, so
		// the unbounded detector suppresses it too.
		{"drd-window", detect.DRD(),
			[]gcPhase{{}, {race: true, pad: 2100}}, 0},
		// Eraser: the var state is the report and is never collected, but
		// the reported bit lives in the shadow word — retirement must not
		// re-report phase 2's identical violation.
		{"eraser-reported", detect.Eraser(),
			[]gcPhase{{race: true}, {race: true}}, 1},
	}

	for _, tc := range cases {
		for shape, opts := range []detect.RunOpts{
			detect.WithGCPeriod(detect.RunOpts{}, 1),
			detect.ForceOverlap(detect.WithGCPeriod(detect.RunOpts{}, 1), 64),
		} {
			gc, _, err := detect.Prepare(buildPhasedRace(tc.phases)).Run(tc.cfg, 1, opts)
			if err != nil {
				t.Fatalf("%s (gc, shape %d): %v", tc.name, shape, err)
			}
			ref, _, err := detect.Prepare(buildPhasedRace(tc.phases)).Run(tc.cfg, 1, detect.NoGC(detect.RunOpts{}))
			if err != nil {
				t.Fatalf("%s (unbounded): %v", tc.name, err)
			}
			if len(ref.Warnings) != tc.want {
				t.Errorf("%s: unbounded detector reported %d warnings, the contract expects %d",
					tc.name, len(ref.Warnings), tc.want)
			}
			if len(gc.Warnings) != tc.want {
				t.Errorf("%s (shape %d): GC detector reported %d warnings, want %d",
					tc.name, shape, len(gc.Warnings), tc.want)
			}
			if got, want := reportFingerprint(gc), reportFingerprint(ref); got != want {
				t.Errorf("%s (shape %d): GC report differs from unbounded detector\n--- unbounded ---\n%s--- gc ---\n%s",
					tc.name, shape, want, got)
			}
			// The proof only binds if the word was actually retired
			// between the phases.
			if gc.GCCycles == 0 || gc.GCWordsRetired == 0 {
				t.Errorf("%s (shape %d): GC never retired anything (cycles=%d words=%d); the case proves nothing",
					tc.name, shape, gc.GCCycles, gc.GCWordsRetired)
			}
		}
	}
}
