// Package crash drives detectably recoverable data structures through
// randomized system-wide crash storms, playing the role of "the system" in
// the paper's model: it decides when a crash happens, discards all volatile
// state, and re-invokes each failed process's recovery function with the
// same arguments its interrupted operation had. Multiple crashes may hit a
// single operation or its recovery, and processes recover asynchronously.
//
// Every completed operation (directly or through recovery) is recorded with
// logical start/end timestamps, producing a history the linearize package
// can check. Detectability itself is asserted structurally: recovery always
// yields a definite response.
//
// The package's tests run off two tables over one vocabulary of engines and
// structures. The storm table (storm_test.go) gives each storm test its shape:
// the test runs Run once per engine variant and seed, as subtests
// engine/seed=N, and checks every history with one oracle. The conformance
// matrix (matrix.go) drives Sweep, a crash at every access offset of one
// process's admission. Sweep is also the serve layer's one fault sweep: a
// server's pipeline crashed at every access offset and recovered by the
// server itself, and the wire sweep's connection cut at every byte offset.
// Every storm and sweep failure prints the go test line that re-runs its
// leaf (Rerun).
package crash

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/linearize"
	"repro/internal/pmem"
)

// Op is one operation invocation: a structure-specific kind and argument.
type Op struct {
	Kind uint64
	Arg  uint64
}

// Applier is the part of the operation surface every structure package
// embeds (isb.Ops) that the storms and the raw sweeps drive, which is what
// lets them drive every structure without per-structure glue. Begin is the
// system-side invocation step of the paper's model (persistently set
// CP_q := 0 just before the operation starts, here by raising the process's
// admission number, which CP_q is read against); if it crashes, the system
// simply retries it — the operation is not yet considered invoked, so no
// recovery obligation exists. ApplyOp runs an operation to completion;
// RecoverLeg at index 0 is its recovery function, called with the same kind
// and argument after a crash (possibly several times). Both return the
// encoded response.
type Applier interface {
	Begin(p *pmem.Proc)
	ApplyOp(p *pmem.Proc, kind, arg uint64) uint64
	RecoverLeg(p *pmem.Proc, seq int, kind, arg uint64) uint64
}

// Config parameterises a storm.
type Config struct {
	Heap *pmem.Heap
	// Target is the structure under test.
	Target     Applier
	Procs      int
	OpsPerProc int
	// Gen produces the i-th operation of proc id.
	Gen func(id, i int, rng *rand.Rand) Op
	// Crashes is how many system-wide crashes to inject.
	Crashes int
	// MeanAccessGap spaces the crash triggers: the mean number of pmem
	// accesses between two crashes (jittered ±50%). Crashes fire at access
	// granularity, inside whichever operation crosses the threshold.
	MeanAccessGap int
	Seed          int64
}

// Result of a storm: every completed operation, and how many crashes fired
// and how many operations took their response from recovery.
type Result struct {
	History      []linearize.Operation
	CrashesFired int
	RecoveredOps int
}

// coordinator rendezvous-es crashed workers, resets the heap, and arms the
// next scheduled crash.
type coordinator struct {
	h       *pmem.Heap
	mu      sync.Mutex
	cond    *sync.Cond
	gen     int
	waiting int
	active  int
	fired   int
	want    int
	meanGap int
	rng     *rand.Rand
}

func newCoordinator(h *pmem.Heap, active, want, meanGap int, rng *rand.Rand) *coordinator {
	c := &coordinator{h: h, active: active, want: want, meanGap: meanGap, rng: rng}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// armLocked schedules the next crash if any remain (mu held, quiesced).
func (c *coordinator) armLocked() {
	if c.fired < c.want {
		gap := c.meanGap/2 + c.rng.Intn(c.meanGap+1)
		c.h.ScheduleCrashAt(c.h.AccessCount() + uint64(gap))
	}
}

// maybeReset must run with mu held: once every live worker is parked, the
// volatile image is discarded, the next crash is armed, and everyone is
// released.
func (c *coordinator) maybeReset() {
	if c.h.Crashing() && c.waiting == c.active {
		c.fired++
		c.h.ResetAfterCrash()
		c.gen++
		c.waiting = 0
		c.armLocked()
		c.cond.Broadcast()
	}
}

// park blocks the calling worker until the crash is fully handled.
func (c *coordinator) park() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.waiting++
	g := c.gen
	c.maybeReset()
	for c.gen == g {
		c.cond.Wait()
	}
}

// leave deregisters a worker that finished its workload.
func (c *coordinator) leave() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.active--
	c.maybeReset()
}

// procRand is process id's operation stream under seed: the rng Run hands
// Config.Gen.
func procRand(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(id*7919+1)))
}

// Run executes the storm and returns the recorded history. A panic in any
// process — recovery's attempt bound, say — ends that process's share of the
// storm; once the others finish, Run re-raises the first such panic, with the
// stack it was raised on, in the caller's goroutine.
func Run(cfg Config) Result {
	if cfg.Procs <= 0 || cfg.OpsPerProc <= 0 {
		return Result{}
	}
	if cfg.MeanAccessGap <= 0 {
		cfg.MeanAccessGap = 600
	}
	trigRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5bf03635))
	c := newCoordinator(cfg.Heap, cfg.Procs, cfg.Crashes, cfg.MeanAccessGap, trigRng)
	var clock, recoveredOps atomic.Uint64
	var failure atomic.Pointer[string]
	hist := make([][]linearize.Operation, cfg.Procs)
	var wg sync.WaitGroup

	// Arm the first crash before the workers start.
	c.mu.Lock()
	c.armLocked()
	c.mu.Unlock()

	for id := 0; id < cfg.Procs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer c.leave()
			defer func() {
				if r := recover(); r != nil {
					msg := fmt.Sprintf("proc %d: %v\n%s", id, r, debug.Stack())
					failure.CompareAndSwap(nil, &msg)
				}
			}()
			p := cfg.Heap.Proc(id)
			rng := procRand(cfg.Seed, id)
			for i := 0; i < cfg.OpsPerProc; i++ {
				op := cfg.Gen(id, i, rng)
				// System-side invocation step: retried (not recovered)
				// if a crash interrupts it.
				for !pmem.RunOp(func() { cfg.Target.Begin(p) }) {
					c.park()
				}
				start := clock.Add(1)
				var resp uint64
				ok := pmem.RunOp(func() { resp = cfg.Target.ApplyOp(p, op.Kind, op.Arg) })
				if !ok {
					recoveredOps.Add(1)
				}
				for !ok {
					c.park()
					ok = pmem.RunOp(func() { resp = cfg.Target.RecoverLeg(p, 0, op.Kind, op.Arg) })
				}
				hist[id] = append(hist[id], linearize.Operation{
					Proc: id, Kind: op.Kind, Arg: op.Arg, Resp: resp, Start: start, End: clock.Add(1),
				})
			}
		}(id)
	}

	wg.Wait()
	if msg := failure.Load(); msg != nil {
		panic(*msg)
	}
	res := Result{CrashesFired: c.fired, RecoveredOps: int(recoveredOps.Load())}
	for _, h := range hist {
		res.History = append(res.History, h...)
	}
	return res
}
