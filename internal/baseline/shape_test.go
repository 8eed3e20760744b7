// Package baseline_test pins the shape of the paper's evaluation as counts:
// the persistence instructions per operation of ISB-tracking next to the
// capsule, log and detectable-CAS transformations it is compared against.
// The counts are what the evaluation's throughput figures are made of, and
// unlike throughput they do not depend on the machine.
package baseline_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/baseline/capsqueue"
	"repro/internal/baseline/capsules"
	"repro/internal/baseline/dtlist"
	"repro/internal/baseline/harris"
	"repro/internal/baseline/logqueue"
	"repro/internal/baseline/msqueue"
	"repro/internal/isb"
	"repro/internal/list"
	"repro/internal/pmem"
	"repro/internal/queue"
)

type set interface {
	Insert(p *pmem.Proc, key uint64) bool
	Delete(p *pmem.Proc, key uint64) bool
	Find(p *pmem.Proc, key uint64) bool
}

type fifo interface {
	Enqueue(p *pmem.Proc, v uint64)
	Dequeue(p *pmem.Proc) (uint64, bool)
}

// isbSet and isbFIFO give the ISB structures, which speak ApplyOp, the
// baselines' typed surface.
type (
	isbSet  struct{ *list.List }
	isbFIFO struct{ *queue.Queue }
)

func (l isbSet) Delete(p *pmem.Proc, key uint64) bool {
	return isb.Bool(l.ApplyOp(p, list.OpDelete, key))
}

func (l isbSet) Find(p *pmem.Proc, key uint64) bool {
	return isb.Bool(l.ApplyOp(p, list.OpFind, key))
}

func (q isbFIFO) Enqueue(p *pmem.Proc, v uint64) { q.ApplyOp(p, queue.OpEnq, v) }

func (q isbFIFO) Dequeue(p *pmem.Proc) (uint64, bool) {
	r := q.ApplyOp(p, queue.OpDeq, 0)
	return isb.DecodeValue(r), isb.IsValue(r)
}

// The paper's curve labels for the lists; harrisLL is the non-recoverable
// original.
const (
	isbList     = "Isb"
	isbOpt      = "Isb-Opt"
	capsGeneral = "Capsules"
	capsOpt     = "Capsules-Opt"
	dtOpt       = "DT-Opt"
	harrisLL    = "Harris-LL"
)

var lists = map[string]func(*pmem.Heap) set{
	isbList:     func(h *pmem.Heap) set { return isbSet{list.NewWithEngine(h, isb.NewEngine(h))} },
	isbOpt:      func(h *pmem.Heap) set { return isbSet{list.NewWithEngine(h, isb.NewEngineOpt(h))} },
	capsGeneral: func(h *pmem.Heap) set { return capsules.New(h, capsules.General) },
	capsOpt:     func(h *pmem.Heap) set { return capsules.New(h, capsules.Normalized) },
	dtOpt:       func(h *pmem.Heap) set { return dtlist.New(h) },
	harrisLL:    func(h *pmem.Heap) set { return harris.New(h) },
}

var queues = []struct {
	name     string
	original bool // not recoverable: issues no persistence instruction
	new      func(*pmem.Heap) fifo
}{
	{"ISB-Queue", false, func(h *pmem.Heap) fifo { return isbFIFO{queue.NewWithEngine(h, isb.NewEngine(h))} }},
	{"Log-Queue", false, func(h *pmem.Heap) fifo { return logqueue.New(h) }},
	{"Capsules-General", false, func(h *pmem.Heap) fifo { return capsqueue.New(h, capsqueue.General) }},
	{"Capsules-Normal", false, func(h *pmem.Heap) fifo { return capsqueue.New(h, capsqueue.Normal) }},
	{"MS-Queue", true, func(h *pmem.Heap) fifo { return msqueue.New(h) }},
}

// measure runs body on threads Procs at once and returns the persistence
// instructions they issued, over threads*opsPerThread operations.
func measure(h *pmem.Heap, threads, opsPerThread int, body func(p *pmem.Proc, id int)) isb.Stats {
	h.ResetAllStats()
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(h.Proc(id), id)
		}()
	}
	wg.Wait()
	return isb.Stats{Ops: uint64(threads * opsPerThread), Mem: h.TotalStats()}
}

// runList is the paper's list experiment at one data point: 128 keys,
// prefilled with 64 random inserts, then 800 operations per thread, 70%
// finds and the rest split between inserts and deletes.
func runList(algo string, threads int, model pmem.Model) isb.Stats {
	const keyRange, ops, seed = 128, 800, 9
	h := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: threads + 1, Model: model})
	s := lists[algo](h)
	pre, rng := h.Proc(threads), rand.New(rand.NewSource(seed+7))
	for i := 0; i < keyRange/2; i++ {
		s.Insert(pre, uint64(rng.Int63n(keyRange))+1)
	}
	return measure(h, threads, ops, func(p *pmem.Proc, id int) {
		r := rand.New(rand.NewSource(seed*131 + int64(id)))
		for i := 0; i < ops; i++ {
			k := uint64(r.Int63n(keyRange)) + 1
			switch c := r.Intn(100); {
			case c < 70:
				s.Find(p, k)
			case c < 85:
				s.Insert(p, k)
			default:
				s.Delete(p, k)
			}
		}
	})
}

// runQueue is the paper's queue experiment: 500 values prefilled, then 300
// enqueue-dequeue pairs on each of two threads.
func runQueue(newQueue func(*pmem.Heap) fifo) isb.Stats {
	const threads, pairs = 2, 300
	h := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: threads + 1})
	q := newQueue(h)
	for i := 0; i < 500; i++ {
		q.Enqueue(h.Proc(threads), uint64(i)+1)
	}
	return measure(h, threads, 2*pairs, func(p *pmem.Proc, id int) {
		base := uint64(id+1) * 10_000_000
		for i := 0; i < pairs; i++ {
			q.Enqueue(p, base+uint64(i))
			q.Dequeue(p)
		}
	})
}

// TestShapeCapsulesGeneralIsSlowest: the general durability transformation
// must issue an order of magnitude more barriers per op than every
// hand-tuned or ISB algorithm — the root cause of its collapsed throughput
// in Figure 1. Logs the persistence cost of every algorithm, lists then
// queues, as one table; only the two non-recoverable originals may be free.
func TestShapeCapsulesGeneralIsSlowest(t *testing.T) {
	barriers := map[string]float64{}
	row := func(name string, original bool, st isb.Stats) {
		t.Logf("%-17s %v", name, st)
		if free := st.Mem.Barriers+st.Mem.Flushes+st.Mem.Syncs == 0; free != original {
			t.Errorf("%s: issues no persistence instructions = %v, want %v", name, free, original)
		}
	}
	for _, algo := range []string{capsGeneral, isbList, isbOpt, capsOpt, dtOpt, harrisLL} {
		st := runList(algo, 2, pmem.SharedCache)
		barriers[algo] = st.PBarriersPerOp()
		row(algo, algo == harrisLL, st)
	}
	for _, q := range queues {
		row(q.name, q.original, runQueue(q.new))
	}
	for _, algo := range []string{isbList, isbOpt, capsOpt, dtOpt} {
		if barriers[capsGeneral] < 5*barriers[algo] {
			t.Fatalf("Capsules barriers/op (%.1f) not ≫ %s (%.1f)",
				barriers[capsGeneral], algo, barriers[algo])
		}
	}
}

// TestShapeIsbConstantBarriers: ISB barriers per operation must stay flat
// as threads increase (the paper's core scalability claim, Figure 1b).
func TestShapeIsbConstantBarriers(t *testing.T) {
	for _, algo := range []string{isbList, isbOpt} {
		b1 := runList(algo, 1, pmem.SharedCache).PBarriersPerOp()
		b4 := runList(algo, 4, pmem.SharedCache).PBarriersPerOp()
		if b4 > 2.0*b1+1 {
			t.Fatalf("%s: barriers/op grew from %.2f (1 thread) to %.2f (4 threads)", algo, b1, b4)
		}
	}
}

// TestShapeIsbOptFlushHeavy: Isb-Opt performs more stand-alone flushes per
// op than the other hand-tuned algorithms (CP_q, RD_q, ... — Figure 1c).
func TestShapeIsbOptFlushHeavy(t *testing.T) {
	fIsbOpt := runList(isbOpt, 2, pmem.SharedCache).FlushesPerOp()
	for _, algo := range []string{capsOpt, dtOpt} {
		f := runList(algo, 2, pmem.SharedCache).FlushesPerOp()
		if fIsbOpt <= f {
			t.Fatalf("Isb-Opt flushes/op (%.2f) not above %s (%.2f)", fIsbOpt, algo, f)
		}
	}
}

// TestShapePrivateCacheFree: in the private cache model no algorithm incurs
// persistence instructions.
func TestShapePrivateCacheFree(t *testing.T) {
	st := runList(isbList, 2, pmem.PrivateCache)
	if st.Mem.Barriers != 0 || st.Mem.Flushes != 0 || st.Mem.Syncs != 0 {
		t.Fatalf("private cache model counted persistence instructions: %v", st)
	}
}
