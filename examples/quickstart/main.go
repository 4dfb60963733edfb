// Quickstart: build a tiny multithreaded program in the IR, run it under a
// race detector, and read the report.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"adhocrace/internal/detect"
	"adhocrace/internal/ir"
	"adhocrace/internal/synclib"
)

func main() {
	// A program with one protected counter and one forgotten lock.
	b := ir.NewBuilder("quickstart")
	lib := synclib.Install(b, ir.LibPthread)
	mu := b.Global("MU")
	good := b.Global("GOOD")
	bad := b.Global("BAD")

	for i := 0; i < 2; i++ {
		f := b.Func(fmt.Sprintf("worker%d", i), 0)
		f.SetLoc("worker.c", 10+i*20)

		// Correct: increment GOOD under the mutex.
		lib.Lock(f, mu, "MU")
		one := f.Const(1)
		v := f.LoadAddr(good)
		f.StoreAddr(good, f.Add(v, one))
		lib.Unlock(f, mu, "MU")

		// Bug: increment BAD with no lock at all.
		w := f.LoadAddr(bad)
		f.StoreAddr(bad, f.Add(w, one))
		f.Ret(ir.NoReg)
	}

	m := b.Func("main", 0)
	t1 := m.Spawn("worker0")
	t2 := m.Spawn("worker1")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)

	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Run it under the paper's best configuration.
	rep, res, err := detect.Prepare(prog).Run(detect.HelgrindPlusLibSpin(7), 1, detect.RunOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed %d steps across %d threads\n", res.Steps, res.Threads)
	fmt.Printf("GOOD = %d (mutex-protected), BAD = %d (racy)\n", res.Memory(8), res.Memory(16))
	fmt.Printf("warnings: %d\n", len(rep.Warnings))
	for _, w := range rep.Warnings {
		fmt.Printf("  %s\n", w)
	}
}
