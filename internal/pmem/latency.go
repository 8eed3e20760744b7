package pmem

import (
	"slices"
	"sync"
	"time"
)

// Latency simulation. The paper simulates pwb with clflush and psync with
// mfence on x86; here we burn a calibrated number of CPU iterations instead,
// so that (a) relative algorithm throughput is governed by how many
// persistence instructions each algorithm issues — the quantity the paper's
// analysis attributes performance differences to — and (b) the simulated
// costs do not depend on timer resolution (time.Now is far too coarse for
// ~100ns events to be measured one at a time).

var (
	calibrateOnce  sync.Once
	itersPerMicro  float64 // spin iterations per microsecond, measured
	defaultPerMico = 300.0 // fallback if calibration is degenerate
)

// spinIters converts a duration into calibrated spin iterations.
func spinIters(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	calibrateOnce.Do(calibrate)
	it := int64(float64(d.Nanoseconds()) * itersPerMicro / 1000.0)
	if it < 1 {
		it = 1
	}
	return it
}

// calibrate measures how many spin iterations fit in a microsecond of a
// persistence instruction. It times PSync itself, spinning about as long as
// DefaultPSyncLatency asks, so the instruction's fixed cost is in the rate.
// Every latency of the process inherits this one reading, so it is taken
// after a warm-up (a core that was just woken runs slow) and as the median
// of many batches each far shorter than a time slice (a preempted batch
// does not count).
func calibrate() {
	const (
		warmUp     = 5 * time.Millisecond
		batches    = 101
		calls      = 2000 // per batch: about 0.2 ms
		probeIters = 100
	)
	p := &Proc{h: &Heap{psyncSpin: probeIters}}
	batch := func() float64 {
		t0 := time.Now()
		for range calls {
			p.PSync()
		}
		return float64(time.Since(t0).Nanoseconds())
	}
	for t0 := time.Now(); time.Since(t0) < warmUp; {
		batch()
	}
	var ns [batches]float64
	for b := range ns {
		ns[b] = batch()
	}
	spinGuard = p.spinSink
	slices.Sort(ns[:])
	if med := ns[batches/2]; med > 0 {
		itersPerMicro = calls * probeIters * 1000 / med
	}
	if itersPerMicro < 1 {
		itersPerMicro = defaultPerMico
	}
}

// spinGuard keeps the calibration's spins (and per-proc spins via spinSink)
// observable so the compiler cannot delete them.
var spinGuard uint64

// spin burns approximately iters calibrated iterations.
func (p *Proc) spin(iters int64) {
	s := p.spinSink
	for i := int64(0); i < iters; i++ {
		s += uint64(i) ^ (s << 1)
	}
	p.spinSink = s
}

// DefaultPWBLatency and DefaultPSyncLatency approximate the cost class of
// clflush and mfence on the paper's hardware. Benchmarks use these unless
// overridden; tests use zero.
const (
	DefaultPWBLatency   = 90 * time.Nanosecond
	DefaultPSyncLatency = 100 * time.Nanosecond
)
