// Unknownlib demonstrates the universal race detector: a program that
// synchronizes through an OpenMP-style runtime the detector has no
// interceptors for. With library knowledge alone the detector floods with
// false positives on correctly locked data; with spin detection it
// recognizes the runtime's own spinning read loops (every blocking
// primitive bottoms out in one) and goes quiet — no library upgrade needed.
//
//	go run ./examples/unknownlib
package main

import (
	"fmt"
	"log"

	"adhocrace/internal/detect"
	"adhocrace/internal/ir"
	"adhocrace/internal/synclib"
)

func build() *ir.Program {
	b := ir.NewBuilder("unknownlib")
	omp := synclib.Install(b, ir.LibOMP) // unknown to the pthread/GLIB detector
	mu := b.Global("MU")
	shared := b.GlobalArray("SHARED", 8)

	for t := 0; t < 4; t++ {
		f := b.Func(fmt.Sprintf("omp_worker%d", t), 0)
		f.SetLoc(fmt.Sprintf("worker%d.c", t), 10)
		for i := 0; i < 8; i++ {
			omp.Lock(f, mu, "MU")
			one := f.Const(1)
			idx := f.Const(int64(i))
			v := f.LoadIdx(shared, idx, "SHARED")
			idx2 := f.Const(int64(i))
			f.StoreIdx(shared, idx2, f.Add(v, one), "SHARED")
			omp.Unlock(f, mu, "MU")
		}
		f.Ret(ir.NoReg)
	}
	m := b.Func("main", 0)
	var tids []int
	for t := 0; t < 4; t++ {
		tids = append(tids, m.Spawn(fmt.Sprintf("omp_worker%d", t)))
	}
	for _, tid := range tids {
		m.Join(tid)
	}
	m.Ret(ir.NoReg)
	return b.MustBuild()
}

func main() {
	prep := detect.Prepare(build())
	for _, cfg := range []detect.Config{
		detect.HelgrindPlusLib(),        // knows pthread+GLIB; OpenMP is alien
		detect.HelgrindPlusLibSpin(7),   // spin detection sees through it
		detect.HelgrindPlusNolibSpin(7), // no library knowledge at all
	} {
		rep, res, err := prep.Run(cfg, 1, detect.RunOpts{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s warnings=%-3d racy contexts=%-3d spin edges=%d\n",
			cfg.Name, len(rep.Warnings), rep.RacyContexts(), rep.SpinEdges)
		_ = res
	}
	fmt.Println("\nthe program is race-free: every cell is mutex-protected —")
	fmt.Println("only the spin-aware configurations can prove it without interceptors")
}
