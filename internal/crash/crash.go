// Package crash drives detectably recoverable data structures through
// seeded system-wide crash storms, playing the role of "the system" in the
// paper's model: it decides when a crash happens, discards all volatile
// state, and re-invokes each failed process's recovery function with the
// same arguments its interrupted operation had. Multiple crashes may hit a
// single operation or its recovery, and processes recover asynchronously.
// The storm's interleaving is seeded too — a PCT schedule that runs one
// process at a time (Run) — so a storm is a function of its Config.
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
// matrix (matrix_test.go) drives Sweep, a crash at every access offset of one
// process's admission.
//
// Sweep is the repository's one fault sweep, and the package is a leaf for
// it: its non-test code imports only pmem and linearize, so every package's
// tests but those two can run their crash-offset tests on it. The matrix, the
// serve layer's crash and wire sweeps and every structure, engine and
// baseline package's own crash sweeps do, each over the span its run
// measured, a sequence's later operation after every crash of the ones before
// it (SweepAfter), and every failure prints the go test line that re-runs its
// leaf (Rerun). Storm failures print it too.
package crash

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"

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

// pctDepth is the d of Run's schedules, PCT (Burckhardt et al., A Randomized
// Scheduler with Probabilistic Guarantees of Finding Bugs, ASPLOS'10): random
// distinct Proc priorities plus d−1 priority-change points, which give every
// bug that needs d ordering constraints a probability of showing up that
// depends on the seed, not on the machine.
const pctDepth = 3

// spinAccesses is how many accesses a Proc makes without a store or CAS
// before it yields the baton: a Proc spinning on another's progress — the
// exchanger's wait loop, whose window is stack.DefaultElimSpins loads — must
// let it run, or no elimination would ever collide. A long read-only
// traversal yields too. The count is the Proc's own and survives handoffs and
// crashes, so where a Proc yields depends on what it ran before: a recovery
// that follows a spin yields within its first reads.
const spinAccesses = 16

// A Proc of a storm is runnable (at an access, or not yet started), parked
// (its crash caught, waiting for the heap's reset) or finished.
const (
	runnable = iota
	parked
	finished
)

// sched is one storm's state: the baton scheduler that serializes its Procs,
// the crash schedule, and what the Procs record. Only the Proc holding the
// baton runs, and the baton is handed over on a channel, so no field needs a
// lock or an atomic.
type sched struct {
	cfg    Config
	wake   []chan struct{} // Proc id waits on wake[id] for the baton
	state  []int
	prio   []int
	quiet  []int    // per Proc: its accesses since it last wrote or yielded
	writes []uint64 // per Proc: its stores and CASes as of its last access
	steps  uint64   // accesses so far, every Proc's
	change []uint64 // the PCT change points, ascending steps
	next   int      // how many change points have passed
	low    int      // the priority the next spinning Proc drops to
	rng    *rand.Rand

	crashRng *rand.Rand
	fired    int

	clock     uint64
	recovered int
	failure   string
}

// newSched draws cfg's schedule: the change points, over the span the crash
// schedule covers, and the first priorities.
func newSched(cfg Config) *sched {
	n := cfg.Procs
	s := &sched{
		cfg: cfg, wake: make([]chan struct{}, n), state: make([]int, n), prio: make([]int, n),
		quiet: make([]int, n), writes: make([]uint64, n),
		rng:      rand.New(rand.NewSource(cfg.Seed ^ 0x2545f491)),
		crashRng: rand.New(rand.NewSource(cfg.Seed ^ 0x5bf03635)),
	}
	for id := range s.wake {
		s.wake[id] = make(chan struct{})
	}
	span := cfg.MeanAccessGap * (cfg.Crashes + 1)
	for range pctDepth - 1 {
		s.change = append(s.change, uint64(s.rng.Intn(span))+1)
	}
	slices.Sort(s.change)
	s.shuffle()
	return s
}

// shuffle draws every Proc a fresh random priority above the change points'.
// Every restart draws anew: processes recover asynchronously, and fixed
// priorities would let the same Proc recover first after every crash, before
// any other could change what its interrupted operation had tagged.
func (s *sched) shuffle() {
	for id, r := range s.rng.Perm(len(s.prio)) {
		s.prio[id] = pctDepth + r
	}
}

// step is the heap's access hook: p, the baton's holder, is about to access
// the heap. At the i-th change point p drops to priority i; after
// spinAccesses accesses without a write it drops below every Proc. Either
// hands the baton to the highest-priority runnable Proc.
func (s *sched) step(p *pmem.Proc) {
	id := p.ID()
	s.steps++
	st := p.Stats()
	if w := st.Stores + st.CASes; w != s.writes[id] {
		s.writes[id], s.quiet[id] = w, 0
	} else {
		s.quiet[id]++
	}
	yield := false
	for s.next < len(s.change) && s.steps == s.change[s.next] {
		s.next++
		s.prio[id], yield = s.next, true
	}
	if s.quiet[id] >= spinAccesses {
		s.quiet[id] = 0
		s.prio[id], yield = s.low, true
		s.low--
	}
	if yield {
		s.pass(id)
	}
}

// leave moves Proc id to state st, parked (its crash caught by RunOp) or
// finished, and passes the baton on: a parked Proc holds it again after the
// heap's reset.
func (s *sched) leave(id, st int) {
	s.state[id] = st
	s.pass(id)
}

// pass hands the baton from Proc id to the highest-priority runnable Proc and,
// unless that is id or id finished, waits until id holds it again. With no
// Proc runnable and a crash pending, every Proc has parked or finished: pass
// discards the volatile image, arms the next crash and releases every parked
// Proc first.
func (s *sched) pass(id int) {
	to := s.pick()
	if to < 0 && s.cfg.Heap.Crashing() {
		s.fired++
		s.cfg.Heap.ResetAfterCrash()
		s.arm()
		s.shuffle()
		for i, st := range s.state {
			if st == parked {
				s.state[i] = runnable
			}
		}
		to = s.pick()
	}
	if to < 0 || to == id {
		return
	}
	wait := s.state[id] != finished
	s.wake[to] <- struct{}{}
	if wait {
		<-s.wake[id]
	}
}

// pick returns the highest-priority runnable Proc, or -1.
func (s *sched) pick() int {
	to := -1
	for id, st := range s.state {
		if st == runnable && (to < 0 || s.prio[id] > s.prio[to]) {
			to = id
		}
	}
	return to
}

// arm schedules the next crash if any remain: MeanAccessGap accesses away,
// jittered ±50%.
func (s *sched) arm() {
	if gap := s.cfg.MeanAccessGap; s.fired < s.cfg.Crashes {
		h := s.cfg.Heap
		h.ScheduleCrashAt(h.AccessCount() + uint64(gap/2+s.crashRng.Intn(gap+1)))
	}
}

// procRand is process id's operation stream under seed: the rng Run hands
// Config.Gen.
func procRand(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(id*7919+1)))
}

// Run executes the storm and returns the recorded history. The storm is a
// function of cfg: its Procs run one at a time on a seeded PCT schedule (see
// pctDepth), installed as the heap's access hook for the storm's duration, so
// one seed replays one interleaving, crashes included. A Proc that blocks
// other than at a heap access would stop the storm: a Target must take no Go
// lock across a heap access. The reclaimer's slab directory does
// (pmem.Reclaimer), so storms run on the arena allocator.
//
// A panic in any process — recovery's attempt bound, say — ends that
// process's share of the storm; once the others finish, Run re-raises the
// first such panic, with the stack it was raised on, in the caller's
// goroutine.
func Run(cfg Config) Result {
	if cfg.Procs <= 0 || cfg.OpsPerProc <= 0 {
		return Result{}
	}
	if cfg.MeanAccessGap <= 0 {
		cfg.MeanAccessGap = 600
	}
	s := newSched(cfg)
	cfg.Heap.SetAccessHook(s.step)
	defer cfg.Heap.SetAccessHook(nil)
	s.arm()
	hist := make([][]linearize.Operation, cfg.Procs)
	var wg sync.WaitGroup
	for id := 0; id < cfg.Procs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer s.leave(id, finished)
			defer func() {
				if r := recover(); r != nil && s.failure == "" {
					s.failure = fmt.Sprintf("proc %d: %v\n%s", id, r, debug.Stack())
				}
			}()
			<-s.wake[id]
			p := cfg.Heap.Proc(id)
			rng := procRand(cfg.Seed, id)
			for i := 0; i < cfg.OpsPerProc; i++ {
				op := cfg.Gen(id, i, rng)
				// System-side invocation step: retried (not recovered)
				// if a crash interrupts it.
				for !pmem.RunOp(func() { cfg.Target.Begin(p) }) {
					s.leave(id, parked)
				}
				s.clock++
				start := s.clock
				var resp uint64
				ok := pmem.RunOp(func() { resp = cfg.Target.ApplyOp(p, op.Kind, op.Arg) })
				if !ok {
					s.recovered++
				}
				for !ok {
					s.leave(id, parked)
					ok = pmem.RunOp(func() { resp = cfg.Target.RecoverLeg(p, 0, op.Kind, op.Arg) })
				}
				s.clock++
				hist[id] = append(hist[id], linearize.Operation{
					Proc: id, Kind: op.Kind, Arg: op.Arg, Resp: resp, Start: start, End: s.clock,
				})
			}
		}(id)
	}
	s.wake[s.pick()] <- struct{}{}
	wg.Wait()
	if s.failure != "" {
		panic(s.failure)
	}
	res := Result{CrashesFired: s.fired, RecoveredOps: s.recovered}
	for _, h := range hist {
		res.History = append(res.History, h...)
	}
	return res
}
