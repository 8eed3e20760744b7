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
package crash

import (
	"math/rand"
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

// Target is a detectably recoverable structure under test. Begin is the
// system-side invocation step of the paper's model (persistently set
// CP_q := 0 just before the operation starts); if it crashes, the system
// simply retries it — the operation is not yet considered invoked, so no
// recovery obligation exists. Invoke runs an operation to completion;
// Recover is the operation's recovery function, called with the same Op
// after a crash (possibly several times). Both return the encoded response.
type Target interface {
	Begin(p *pmem.Proc)
	Invoke(p *pmem.Proc, op Op) uint64
	Recover(p *pmem.Proc, op Op) uint64
}

// Applier is the uniform operation surface the structure packages share:
// Begin (system-side invocation step), ApplyOp (run one operation, encoded
// response) and RecoverOp (resolve an interrupted operation). Adapt turns
// any of them into a Target, which is what lets the storms and the sweep
// drive every structure without per-structure glue.
type Applier interface {
	Begin(p *pmem.Proc)
	ApplyOp(p *pmem.Proc, kind, arg uint64) uint64
	RecoverOp(p *pmem.Proc, kind, arg uint64) uint64
}

// applierTarget adapts an Applier to the Target interface.
type applierTarget struct{ a Applier }

func (t applierTarget) Begin(p *pmem.Proc) { t.a.Begin(p) }
func (t applierTarget) Invoke(p *pmem.Proc, op Op) uint64 {
	return t.a.ApplyOp(p, op.Kind, op.Arg)
}
func (t applierTarget) Recover(p *pmem.Proc, op Op) uint64 {
	return t.a.RecoverOp(p, op.Kind, op.Arg)
}

// Adapt wraps an Applier as a Target.
func Adapt(a Applier) Target { return applierTarget{a} }

// Event is one completed operation in the recorded history.
type Event struct {
	Proc      int
	Op        Op
	Resp      uint64
	Start     uint64
	End       uint64
	Recovered bool // response obtained via Recover after ≥1 crash
}

// Config parameterises a storm.
type Config struct {
	Heap       *pmem.Heap
	Target     Target
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

// Result of a storm.
type Result struct {
	History      []linearize.Operation
	Events       []Event
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

// Run executes the storm and returns the recorded history.
func Run(cfg Config) Result {
	if cfg.Procs <= 0 || cfg.OpsPerProc <= 0 {
		return Result{}
	}
	if cfg.MeanAccessGap <= 0 {
		cfg.MeanAccessGap = 600
	}
	trigRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5bf03635))
	c := newCoordinator(cfg.Heap, cfg.Procs, cfg.Crashes, cfg.MeanAccessGap, trigRng)
	var clock atomic.Uint64
	events := make([][]Event, cfg.Procs)
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
			p := cfg.Heap.Proc(id)
			rng := rand.New(rand.NewSource(cfg.Seed ^ int64(id*7919+1)))
			for i := 0; i < cfg.OpsPerProc; i++ {
				op := cfg.Gen(id, i, rng)
				// System-side invocation step: retried (not recovered)
				// if a crash interrupts it.
				for !pmem.RunOp(func() { cfg.Target.Begin(p) }) {
					c.park()
				}
				start := clock.Add(1)
				var resp uint64
				recovered := false
				ok := pmem.RunOp(func() { resp = cfg.Target.Invoke(p, op) })
				for !ok {
					recovered = true
					c.park()
					ok = pmem.RunOp(func() { resp = cfg.Target.Recover(p, op) })
				}
				end := clock.Add(1)
				events[id] = append(events[id], Event{
					Proc: id, Op: op, Resp: resp,
					Start: start, End: end, Recovered: recovered,
				})
			}
		}(id)
	}

	wg.Wait()

	var res Result
	res.CrashesFired = c.fired
	for _, evs := range events {
		for _, e := range evs {
			res.Events = append(res.Events, e)
			if e.Recovered {
				res.RecoveredOps++
			}
			res.History = append(res.History, linearize.Operation{
				Proc: e.Proc, Kind: e.Op.Kind, Arg: e.Op.Arg,
				Resp: e.Resp, Start: e.Start, End: e.End,
			})
		}
	}
	return res
}
