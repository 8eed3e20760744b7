package list

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/crash"
	"repro/internal/isb"
	"repro/internal/pmem"
)

// Individual process failures (the paper's footnote 1): in the private
// cache model, a single process may crash and recover while the others keep
// running. These tests sweep the failure point across every access of an
// operation, after every failure of the one before it (crash.SweepAfter),
// and also run concurrent survivors.

func TestIndividualCrashSweepPrivateModel(t *testing.T) {
	ops := []struct {
		name      string
		kind, key uint64
		want      []uint64
	}{
		{"insert", OpInsert, 20, []uint64{10, 20, 30}},
		{"delete", OpDelete, 30, []uint64{10, 20}},
	}
	for i, c := range ops {
		t.Run(c.name, func(t *testing.T) {
			crash.SweepAfter(t, func() []crash.Instance {
				h := pmem.NewHeap(pmem.Config{
					Words: 1 << 20, Procs: 1, Tracked: true, Model: pmem.PrivateCache,
				})
				l := NewWithEngine(h, isb.NewEngine(h))
				p := h.Proc(0)
				l.Insert(p, 10)
				l.Insert(p, 30)
				var steps []crash.Instance
				for _, c := range ops[:i+1] {
					// No heap reset: only this process's volatile state is
					// lost; in the private cache model shared memory is
					// persistent.
					in := crash.Direct(h, l, crash.Op{Kind: c.kind, Arg: c.key}, isb.RespTrue, func() string {
						if ks := l.Keys(); !slices.Equal(ks, c.want) {
							return fmt.Sprintf("keys %v, want %v", ks, c.want)
						}
						return l.CheckInvariants()
					})
					in.Individual = true
					steps = append(steps, in)
				}
				return steps
			}, []uint64{isb.RespTrue})
		})
	}
}

// TestIndividualCrashWithSurvivors: one process keeps failing and
// recovering while others operate concurrently; the failed process's tags
// never wedge the survivors (they help and move on), and every response
// stays consistent.
func TestIndividualCrashWithSurvivors(t *testing.T) {
	const survivors = 3
	h := pmem.NewHeap(pmem.Config{
		Words: 1 << 23, Procs: survivors + 1, Tracked: true, Model: pmem.PrivateCache,
	})
	l := NewWithEngine(h, isb.NewEngine(h))
	var wg sync.WaitGroup

	// Survivors on disjoint ranges: all their ops must succeed.
	for id := 0; id < survivors; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(id)
			base := uint64(id*1000 + 1)
			for i := uint64(0); i < 150; i++ {
				if !l.Insert(p, base+i) {
					t.Errorf("survivor %d: Insert(%d) failed", id, base+i)
					return
				}
			}
			for i := uint64(0); i < 150; i += 2 {
				if !isb.Bool(l.ApplyOp(p, OpDelete, base+i)) {
					t.Errorf("survivor %d: Delete(%d) failed", id, base+i)
					return
				}
			}
		}(id)
	}

	// The failing process: crashes every few accesses, always recovers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := h.Proc(survivors)
		base := uint64(900_001)
		for i := uint64(0); i < 100; i++ {
			key := base + i
			l.Begin(p)
			p.ScheduleSelfCrash(uint64(7 + i%23))
			ok := pmem.RunOp(func() { l.Insert(p, key) })
			// Crash during recovery too, but with a growing window so the
			// operation eventually completes (a process that crashes faster
			// than it can recover makes no progress by definition).
			for attempt := uint64(1); !ok; attempt++ {
				p.ScheduleSelfCrash(11 + attempt*29)
				ok = pmem.RunOp(func() { l.RecoverLeg(p, 0, OpInsert, key) })
			}
			p.CancelSelfCrash()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if msg := l.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	// The failing process inserted 100 distinct keys exactly once each.
	count := 0
	for _, k := range l.Keys() {
		if k >= 900_001 {
			count++
		}
	}
	if count != 100 {
		t.Fatalf("failing process's keys present: %d, want 100", count)
	}
}
