package repro

import "sync"

// CrashGroup coordinates a fixed set of worker goroutines sharing one
// crash-simulated Runtime: it plays "the system" in the paper's model.
// When a scheduled crash fires, every worker's Run unwinds with false and
// calls Park; the last worker to park performs the system's whole
// crash-handling duty — Restart, then exactly ONE RecoverAll — stores the
// per-process reports for the workers to consume (Report), re-arms the
// next crash while any worker remains active, and releases the group.
//
// Leave retires a finished worker. If a pending crash was waiting only on
// the leaver, the leaver runs the recovery on the survivors' behalf — and
// the next crash is re-armed exactly as Park would have, so the survivors'
// remaining work stays under crash coverage instead of running its whole
// tail crash-free (the regression TestCrashGroupReArmsAfterLeave pins).
// When the last worker leaves, any armed-but-unfired crash is cancelled so
// post-run audits (Keys walks) cannot trip it.
//
// The report is handed out per worker and nowhere else: as in the paper's
// model, each failed process receives the durable record of its own
// operation, and the group's lock is held only around the runtime, never
// around a caller's code.
type CrashGroup struct {
	rt    *Runtime
	every uint64 // accesses between re-armed crashes; 0 = externally armed

	mu         sync.Mutex
	cond       *sync.Cond
	active     int
	parked     int
	generation int
	crashes    int
	reports    map[int]ProcReport
}

// NewCrashGroup builds a group of workers sharing rt and, when crashEvery
// is nonzero, arms the first crash (Config.CrashSim must be on in that
// case). crashEvery = 0 leaves arming to the caller; the group still
// handles whatever crashes fire.
func NewCrashGroup(rt *Runtime, workers int, crashEvery uint64) *CrashGroup {
	g := &CrashGroup{rt: rt, every: crashEvery, active: workers, reports: map[int]ProcReport{}}
	g.cond = sync.NewCond(&g.mu)
	if crashEvery > 0 {
		rt.ScheduleCrash(crashEvery)
	}
	return g
}

// recoverLocked runs the system's crash-handling duty. Callers hold g.mu
// and have established that every active worker is parked.
func (g *CrashGroup) recoverLocked() {
	g.rt.Restart()
	reps := g.rt.RecoverAll()
	g.reports = make(map[int]ProcReport, len(reps))
	for _, rep := range reps {
		g.reports[rep.Proc] = rep
	}
	g.crashes++
	g.generation++
	g.parked = 0
	if g.every > 0 && g.active > 0 {
		g.rt.ScheduleCrash(g.every)
	}
	g.cond.Broadcast()
}

// Park blocks a worker whose Run unwound (or that was notified of a crash
// in progress) until the whole group has parked and the system recovered.
// A worker that arrives after the crash was already handled — an idle
// worker woken late — returns immediately.
func (g *CrashGroup) Park() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.rt.Crashing() {
		return
	}
	g.parked++
	if g.parked == g.active {
		g.recoverLocked()
		return
	}
	for gen := g.generation; g.generation == gen; {
		g.cond.Wait()
	}
}

// Leave retires a finished worker from the group (see the type comment for
// the re-arm obligation it carries).
func (g *CrashGroup) Leave() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.active--
	if g.active == 0 {
		if g.rt.Crashing() {
			g.recoverLocked() // leave the heap recovered for post-run audits
		} else {
			g.rt.CancelCrash()
		}
		return
	}
	if g.parked == g.active && g.rt.Crashing() {
		g.recoverLocked()
	}
}

// Report fetches — and consumes — worker w's entry of the latest
// RecoverAll report, if the sweep resolved an operation for it.
func (g *CrashGroup) Report(w int) (ProcReport, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rep, ok := g.reports[w]
	delete(g.reports, w)
	return rep, ok
}

// Crashes reports how many crashes the group has recovered from.
func (g *CrashGroup) Crashes() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.crashes
}
