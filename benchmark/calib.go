package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"syscall"
	"time"

	"repro/internal/pmem"
)

// The simulator turns a persistence latency into spin iterations with a
// one-shot calibration the first time a heap with latencies is built
// (internal/pmem/latency.go). That calibration is a few milliseconds of
// one loop at process start and lands anywhere within about +-30% of the
// truth, which alone moves in-process throughput by a quarter. It is a
// process-wide sync.Once, so the only way to draw again from outside is a
// new process: the guard measures what a PSync really costs and re-execs
// the benchmark until the reading is within tolerance.

const (
	calibTolerance   = 0.08
	calibMaxAttempts = 12
	calibCalls       = 300_000
	calibBatches     = 60
	calibBackoff     = 100 * time.Millisecond
	// calibEnv carries the attempt number across re-execs.
	calibEnv = "REPRO_BENCH_CALIB_ATTEMPT"
)

// calibration is the guard's accepted reading.
type calibration struct {
	attempts       int // processes it took, this one included
	psyncNs, pwbNs float64
}

// warmCore spins for d, so the calibration that follows runs on a core
// that is awake and at speed rather than one the process was just
// scheduled onto.
func warmCore(d time.Duration) uint64 {
	var sink uint64
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := range 10_000 {
			sink += uint64(i) ^ (sink << 1)
		}
	}
	return sink
}

// timeCalls reports the cost of one call of f in ns as the median of
// calibBatches batches of half a millisecond, so a batch that was preempted
// does not count. The batches are short for the case where other tenants
// keep both cores busy: a time slice then holds several whole batches (of
// twelve contended processes ten read 99-106 ns and two 84 and 40 ns with
// every quartile low, so miscalibrated, not mismeasured), where ten batches
// of 3 ms each held a preemption and their median read 230-400 ns.
func timeCalls(f func()) float64 {
	per := make([]float64, calibBatches)
	for b := range per {
		t0 := time.Now()
		for range calibCalls / calibBatches {
			f()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / (calibCalls / calibBatches)
	}
	return median(per)
}

// readCalibration triggers the simulator's calibration on a throw-away
// heap and measures what PSync and PWB cost under it.
func readCalibration() (psyncNs, pwbNs float64) {
	warmCore(20 * time.Millisecond)
	h := pmem.NewHeap(pmem.Config{Words: 1 << 14, Procs: 1, PWBLatency: pwbLatency, PSyncLatency: syncLatency})
	p := h.Proc(0)
	a := p.Alloc(pmem.WordsPerLine)
	return timeCalls(p.PSync), timeCalls(func() { p.PWB(a) })
}

// calibrate is the guard. It returns the accepted reading or re-execs this
// binary (it does not return then). Process calibMaxAttempts keeps whatever
// it reads and says so on standard error: whoever reads the numbers of many
// runs is served better by one run off by the simulator's share of the
// error than by no run, and the reading is in every traced report.
func calibrate() (calibration, error) {
	attempt := 1
	if v := os.Getenv(calibEnv); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return calibration{}, fmt.Errorf("bad %s=%q", calibEnv, v)
		}
		attempt = n
	}
	// Bad readings come in runs of about a second (the simulator's probe
	// was preempted and PSync is short, or the clock was still settling
	// after a process that held a large heap has exited and it is long), so
	// later attempts wait longer before drawing again.
	time.Sleep(time.Duration(attempt-1) * calibBackoff)
	psync, pwb := readCalibration()
	want := float64(syncLatency.Nanoseconds())
	dev := psync/want - 1
	if attempt >= calibMaxAttempts && math.Abs(dev) > calibTolerance {
		fmt.Fprintf(os.Stderr, "benchmark: WARNING: pmem calibration: PSync measured %.1f ns, want %.0f ns +-%.0f%%, after %d processes; measuring with it\n",
			psync, want, calibTolerance*100, attempt)
	}
	if attempt >= calibMaxAttempts || math.Abs(dev) <= calibTolerance {
		return calibration{attempts: attempt, psyncNs: psync, pwbNs: pwb}, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return calibration{}, fmt.Errorf("pmem calibration: find own binary to re-exec: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: calibration attempt %d: PSync measured %.1f ns, re-executing\n", attempt, psync)
	env := slices.DeleteFunc(os.Environ(), func(kv string) bool { return len(kv) > len(calibEnv) && kv[:len(calibEnv)+1] == calibEnv+"=" })
	env = append(env, calibEnv+"="+strconv.Itoa(attempt+1))
	// Exec replaces this process: no child to wait for, same PID for
	// whoever started us.
	return calibration{}, fmt.Errorf("pmem calibration: re-exec: %w", syscall.Exec(exe, os.Args, env))
}
