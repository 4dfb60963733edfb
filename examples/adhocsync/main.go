// Adhocsync reproduces the paper's motivating example (slide 15): a flag
// hand-off through a spinning read loop. A conventional detector reports
// false races on both the data and the flag; the spin-aware detector
// classifies the loop during the instrumentation phase, injects the
// happens-before edge at run time, and stays silent.
//
//	go run ./examples/adhocsync
package main

import (
	"fmt"
	"log"

	"adhocrace/internal/detect"
	"adhocrace/internal/ir"
	"adhocrace/internal/spin"
)

func buildSlide15() *ir.Program {
	b := ir.NewBuilder("slide15")
	flag := b.Global("FLAG")
	data := b.Global("DATA")

	// Thread 1: DATA++; FLAG = 1
	w := b.Func("thread1", 0)
	w.SetLoc("thread1.c", 3)
	one := w.Const(1)
	d := w.LoadAddr(data)
	w.StoreAddr(data, w.Add(d, one))
	w.StoreAddr(flag, one)
	w.Ret(ir.NoReg)

	// Thread 2: while (FLAG == 0) {} ; DATA--
	r := b.Func("thread2", 0)
	r.SetLoc("thread2.c", 3)
	zero := r.Const(0)
	one2 := r.Const(1)
	header := r.NewBlock()
	body := r.NewBlock()
	exit := r.NewBlock()
	r.Jmp(header)
	r.SetBlock(header)
	v := r.LoadAddr(flag)
	r.Br(r.CmpEQ(v, zero), body, exit)
	r.SetBlock(body)
	r.Yield()
	r.Jmp(header)
	r.SetBlock(exit)
	d2 := r.LoadAddr(data)
	r.StoreAddr(data, r.Sub(d2, one2))
	r.Ret(ir.NoReg)

	m := b.Func("main", 0)
	t1 := m.Spawn("thread1")
	t2 := m.Spawn("thread2")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)
	return b.MustBuild()
}

func main() {
	prog := buildSlide15()
	prep := detect.Prepare(prog)

	// What the instrumentation phase finds.
	ins := spin.Analyze(prog, spin.DefaultWindow)
	fmt.Printf("instrumentation phase: %d spinning read loop(s)\n", ins.NumLoops())
	for _, l := range ins.Loops {
		fmt.Printf("  %s (condition symbols %v)\n", l, l.CondSyms)
	}

	for _, cfg := range []detect.Config{
		detect.HelgrindPlusLib(),        // no spin awareness
		detect.HelgrindPlusLibSpin(7),   // the paper's contribution
		detect.HelgrindPlusNolibSpin(7), // the universal detector
	} {
		rep, _, err := prep.Run(cfg, 1, detect.RunOpts{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: %d warning(s), %d spin edge(s)\n", cfg.Name, len(rep.Warnings), rep.SpinEdges)
		for _, w := range rep.Warnings {
			fmt.Printf("  false positive: %s\n", w)
		}
	}
}
