// Taskqueue contrasts two hand-rolled task queues under the spin-aware
// detector:
//
//   - a condvar-based queue (mutex + condition variable): its wait loop
//     classifies as a spinning read loop, the dependency analysis finds the
//     producer's counterpart write, and the pipeline verifies race-free;
//
//   - the "obscure" lock-free ring queue (consumers claim indices with a
//     CAS on the head): the classifier matches the claim loop, but the
//     inferred dependency runs through the head pointer and misses the
//     producer's slot publication — residual false positives, the failure
//     mode the paper reports for ferret and x264.
//
//     go run ./examples/taskqueue
package main

import (
	"fmt"
	"log"

	"adhocrace/internal/detect"
	"adhocrace/internal/ir"
	"adhocrace/internal/synclib"
)

func buildCVQueue() *ir.Program {
	b := ir.NewBuilder("cvqueue")
	lib := synclib.Install(b, ir.LibPthread)
	payload := b.GlobalArray("PAYLOAD", 8)
	q := synclib.NewQueue(lib, "q", 16)

	p := b.Func("producer", 0)
	p.SetLoc("producer.c", 10)
	for i := 0; i < 8; i++ {
		one := p.Const(int64(i + 1))
		idx := p.Const(int64(i))
		p.StoreIdx(payload, idx, one, "PAYLOAD")
		iv := p.Const(int64(i))
		q.Put(p, "q", iv)
	}
	p.Ret(ir.NoReg)

	c := b.Func("consumer", 0)
	c.SetLoc("consumer.c", 10)
	for k := 0; k < 8; k++ {
		v := q.Get(c, "q")
		_ = c.LoadIdx(payload, v, "PAYLOAD")
	}
	c.Ret(ir.NoReg)

	m := b.Func("main", 0)
	t1 := m.Spawn("producer")
	t2 := m.Spawn("consumer")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)
	return b.MustBuild()
}

func buildRingQueue() *ir.Program {
	b := ir.NewBuilder("ringqueue")
	payload := b.GlobalArray("PAYLOAD", 8)
	_ = synclib.NewRingQueue(b, "rq", 8)

	p := b.Func("producer", 0)
	p.SetLoc("producer.c", 10)
	for i := 0; i < 8; i++ {
		one := p.Const(int64(i + 1))
		idx := p.Const(int64(i))
		p.StoreIdx(payload, idx, one, "PAYLOAD")
		iv := p.Const(int64(i))
		p.Call("rq_put", iv)
	}
	p.Ret(ir.NoReg)

	c := b.Func("consumer", 0)
	c.SetLoc("consumer.c", 10)
	for k := 0; k < 8; k++ {
		v := c.Call("rq_get")
		_ = c.LoadIdx(payload, v, "PAYLOAD")
	}
	c.Ret(ir.NoReg)

	m := b.Func("main", 0)
	t1 := m.Spawn("producer")
	t2 := m.Spawn("consumer")
	m.Join(t1)
	m.Join(t2)
	m.Ret(ir.NoReg)
	return b.MustBuild()
}

func main() {
	cfg := detect.HelgrindPlusNolibSpin(7)
	for _, build := range []struct {
		name string
		f    func() *ir.Program
	}{
		{"condvar queue (well-structured)", buildCVQueue},
		{"ring queue (obscure claim loop)", buildRingQueue},
	} {
		rep, _, err := detect.Prepare(build.f()).Run(cfg, 1, detect.RunOpts{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s spin loops=%d edges=%d warnings=%d\n",
			build.name, rep.SpinLoops, rep.SpinEdges, len(rep.Warnings))
		for _, w := range rep.Warnings {
			fmt.Printf("    residual: %s\n", w)
		}
	}
}
