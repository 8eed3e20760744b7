// taskqueue: a crash-tolerant work pipeline. Producers enqueue tasks and
// consumers HAND each task OFF — dequeue from the work queue and insert
// into a durable results map — as ONE two-structure transaction
// (Runtime.ApplyTxn) while the machine repeatedly crashes. The single
// durable commit point between the legs is what makes the handoff
// exactly-once: no crash can lose a dequeued task (dequeued but never
// recorded) or double-deliver one (recorded but re-dequeued), which the
// final audit verifies across the whole storm.
//
// Recovery is the transaction report: after each crash the group runs one
// RecoverAll; a consumer whose handoff was interrupted reads its
// atomic report — every leg no-effect (re-submit the same attempt), or both
// answered (the insert re-driven from the durable dequeue response if need
// be) — through repro.MatchReport, exactly as a batch caller would.
// Unique identities riding the announced Args (task IDs on enqueues,
// attempt counters on dequeues) reject stale reports, so no Begin psync
// is spent per operation.
//
//	go run ./examples/taskqueue
package main

import (
	"fmt"
	"sync"
	"time"

	"repro"
)

const (
	producers = 2
	consumers = 2
	tasksEach = 250
	crashGap  = 1800
)

func main() {
	procs := producers + consumers
	rt := repro.New(repro.Config{Procs: procs, CrashSim: true, HeapWords: 1 << 23})
	q := rt.NewQueue()     // the work queue
	m := rt.NewHashMap(16) // the durable results map: handed-off tasks
	totalTasks := producers * tasksEach

	group := repro.NewCrashGroup(rt, procs, crashGap)

	// applyOne runs one single-structure operation to a definite response,
	// riding the recovery report across any number of crashes. The task ID
	// in op.Arg is the identity that makes a stale report unmatchable.
	applyOne := func(w int, p *repro.Proc, s repro.Structure, op repro.Op) repro.Resp {
		var resp repro.Resp
		ok := rt.Run(func() { resp = s.Apply(p, op) })
		for !ok {
			group.Park()
			if rep, hit := group.Report(w); hit {
				if n := repro.MatchReport(rep, []repro.Op{op}, func(_ int, _ repro.Op, r repro.Resp) {
					resp = r
				}); n == 1 {
					ok = true
					continue
				}
			}
			ok = rt.Run(func() { resp = s.Apply(p, op) })
		}
		return resp
	}

	// handoff runs one dequeue→insert transaction to definite responses.
	// The attempt counter on the dequeue leg is this transaction's durable
	// identity; the insert leg's argument is derived from the dequeue's
	// response (ArgFromLeg1), so the inserted key IS the dequeued task —
	// and when the queue is empty the insert is elided (r2.Skipped()).
	handoff := func(w int, p *repro.Proc, attempt uint64) (repro.Resp, repro.Resp) {
		leg1 := repro.TxnLeg{S: q, Op: repro.Op{Kind: repro.OpDeq, Arg: attempt}}
		leg2 := repro.TxnLeg{S: m, Op: repro.Op{Kind: repro.OpInsert}, ArgFromLeg1: true}
		var r1, r2 repro.Resp
		ok := rt.Run(func() { r1, r2 = rt.ApplyTxn(p, leg1, leg2) })
		for !ok {
			group.Park()
			if rep, hit := group.Report(w); hit {
				if n := repro.MatchReport(rep, []repro.Op{leg1.Op, leg2.Op}, func(i int, _ repro.Op, r repro.Resp) {
					if i == 0 {
						r1 = r
					} else {
						r2 = r
					}
				}); n == 2 {
					ok = true
					continue
				}
			}
			// No report, a stale report, or a no-effect transaction:
			// provably neither structure changed — re-submit the SAME
			// attempt.
			ok = rt.Run(func() { r1, r2 = rt.ApplyTxn(p, leg1, leg2) })
		}
		return r1, r2
	}

	var wg sync.WaitGroup
	// Producers enqueue globally unique task ids.
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer group.Leave()
			p := rt.Proc(w)
			for i := 0; i < tasksEach; i++ {
				task := uint64(w)*1_000_000 + uint64(i) + 1
				applyOne(w, p, q, repro.Op{Kind: repro.OpEnq, Arg: task})
			}
		}(w)
	}
	// Consumers hand tasks off until the results map holds all of them.
	var seenMu sync.Mutex
	delivered, duplicates := 0, 0
	for w := 0; w < consumers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer group.Leave()
			id := producers + w
			p := rt.Proc(id)
			for n := uint64(1); ; n++ {
				seenMu.Lock()
				done := delivered >= totalTasks
				seenMu.Unlock()
				if done {
					return
				}
				attempt := uint64(id)<<32 | n
				r1, r2 := handoff(id, p, attempt)
				if _, got := r1.Value(); !got {
					// Empty queue: the insert leg was elided. Yield before
					// polling again — every poll allocates an Info record
					// in the never-reused arena (the paper assumes GC), so
					// an unthrottled busy-wait would burn heap proportional
					// to wall-clock time.
					if !r2.Skipped() {
						panic("empty dequeue must elide the insert leg")
					}
					time.Sleep(50 * time.Microsecond)
					continue
				}
				seenMu.Lock()
				if r2.Bool() {
					delivered++
				} else {
					// The task was already in the results map: the queue
					// handed it out twice. The audit fails on this.
					duplicates++
				}
				seenMu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// Audit at quiescence: the durable results map must hold exactly the
	// produced task set — nothing lost, nothing doubled.
	missing := 0
	inMap := map[uint64]bool{}
	for _, k := range m.Keys() {
		inMap[k] = true
	}
	for w := 0; w < producers; w++ {
		for i := 0; i < tasksEach; i++ {
			if !inMap[uint64(w)*1_000_000+uint64(i)+1] {
				missing++
			}
		}
	}
	fmt.Printf("%d tasks produced, %d handed off, %d crashes survived (one RecoverAll each), %d duplicates, %d missing\n",
		totalTasks, delivered, group.Crashes(), duplicates, missing)
	if delivered != totalTasks || duplicates != 0 || missing != 0 || len(inMap) != totalTasks {
		panic("exactly-once handoff violated")
	}
	fmt.Println("audit passed: every task dequeued and recorded exactly once across crashes")
}
