// exchange: pairs of goroutines swap values through the detectably
// recoverable exchanger, then the elimination stack shows pushes and pops
// cancelling in flight without touching the central stack.
//
//	go run ./examples/exchange
package main

import (
	"fmt"
	"sync"

	"repro"
)

func main() {
	rt := repro.New(repro.Config{Procs: 8, CrashSim: true, HeapWords: 1 << 22})

	// Part 1: direct exchanges. Four pairs of processes swap values.
	ex := rt.NewExchanger()
	var wg sync.WaitGroup
	results := make([]uint64, 8)
	oks := make([]bool, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], oks[i] = ex.Exchange(rt.Proc(i), uint64(100+i), 1<<22)
		}(i)
	}
	wg.Wait()
	exchanged := 0
	for i, ok := range oks {
		if ok {
			exchanged++
			fmt.Printf("proc %d offered %d and received %d\n", i, 100+i, results[i])
		}
	}
	fmt.Printf("%d of 8 processes exchanged (pairs: %d)\n\n", exchanged, exchanged/2)
	if exchanged%2 != 0 {
		panic("odd number of exchange successes")
	}

	// Part 2: the elimination stack. A pusher and a popper run
	// concurrently; with a wide elimination window most operations pair up
	// through the exchanger instead of contending on the stack top.
	s := rt.NewStack(1 << 14)
	var pushed, popped sync.Map
	wg.Add(2)
	go func() {
		defer wg.Done()
		p := rt.Proc(0)
		for v := uint64(1); v <= 100; v++ {
			s.Apply(p, repro.Op{Kind: repro.OpPush, Arg: v})
			pushed.Store(v, true)
		}
	}()
	go func() {
		defer wg.Done()
		p := rt.Proc(1)
		for i := 0; i < 100; i++ {
			if v, ok := s.Apply(p, repro.Op{Kind: repro.OpPop}).Value(); ok {
				popped.Store(v, true)
			}
		}
	}()
	wg.Wait()

	nPopped, onStack := 0, len(s.Values())
	popped.Range(func(k, v any) bool { nPopped++; return true })
	fmt.Printf("elimination stack: 100 pushed, %d popped, %d remain on the stack\n",
		nPopped, onStack)
	if nPopped+onStack != 100 {
		panic("values lost or duplicated")
	}
	fmt.Println("conservation holds: pops + stack contents = pushes")
}
