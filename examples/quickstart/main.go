// Quickstart: a detectably recoverable sorted set surviving a simulated
// power failure in the middle of an insert — recovered with a single
// Runtime.RecoverAll call, no caller bookkeeping.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro"
)

func main() {
	rt := repro.New(repro.Config{Procs: 1, CrashSim: true})
	l := rt.NewList()
	p := rt.Proc(0)

	for _, k := range []uint64{10, 20, 30} {
		l.Apply(p, repro.Op{Kind: repro.OpInsert, Arg: k})
	}
	fmt.Println("initial keys:", l.Keys())

	// Begin is the system-side invocation step: it retires the previous
	// operation's announcement so the recovery report below can only
	// describe the operation in flight.
	l.Begin(p)

	// Arm a crash a few memory accesses into the next operation: the
	// machine "loses power" while Insert(25) is half-done.
	rt.ScheduleCrash(12)
	if rt.Run(func() { l.Apply(p, repro.Op{Kind: repro.OpInsert, Arg: 25}) }) {
		fmt.Println("the crash missed the operation window")
		rt.CancelCrash()
	} else {
		fmt.Println("crash! volatile state lost mid-insert")
		rt.Restart() // unflushed cache lines are gone; NVRAM remains

		// Registry-routed recovery: each process's persistent announcement
		// record says which structure it was operating on and with what
		// operation; RecoverAll routes every one through the structure
		// registry and resolves it. (A process absent from the report
		// crashed before announcing — its operation had no effect and can
		// simply be re-submitted.)
		reps := rt.RecoverAll()
		if len(reps) == 0 {
			l.Apply(p, repro.Op{Kind: repro.OpInsert, Arg: 25})
			fmt.Println("crash preceded the announcement; re-submitted")
		}
		for _, rep := range reps {
			leg := rep.Legs[0] // a single operation is a vector of one leg
			fmt.Printf("recovered: proc %d, %s #%d, op (kind=%d, arg=%d) → %s\n",
				rep.Proc, rt.Structure(leg.StructID).Kind(), leg.StructID,
				leg.Op.Kind, leg.Op.Arg, leg.Resp)
		}
	}

	fmt.Println("keys after recovery:", l.Keys())
	found := l.Apply(p, repro.Op{Kind: repro.OpFind, Arg: 25}).Bool()
	if !found {
		panic("key 25 missing after detectable recovery")
	}
	fmt.Println("Find(25):", found)
}
