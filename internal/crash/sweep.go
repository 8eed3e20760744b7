package crash

import (
	"fmt"
	"testing"

	"repro/internal/pmem"
)

// SweepCase is one deterministic single-process operation the crash-point
// sweep drives through every shared-memory access: the operation, the
// response the sequential model requires, and a name for the subtest.
type SweepCase struct {
	Name     string
	Op       Op
	WantResp uint64
}

// SweepInstance is one freshly built structure under sweep. Build functions
// return the heap the structure lives on, the adapted Target, and a Verify
// callback that checks the structure's post-state (final contents plus
// structural invariants) once a case's operation has resolved; Verify
// returns a description of the first violation, or "".
type SweepInstance struct {
	Heap   *pmem.Heap
	Target Target
	Verify func(c SweepCase) string
	// RecoverAll, when non-nil, replaces Target.Recover in the crashed
	// replays: the sweep's registry-routed mode, where recovery is driven
	// by the runtime (announcement record + structure registry) instead of
	// the harness re-supplying the operation. The callback must resolve the
	// crashed operation — typically by invoking Runtime.RecoverAll and, if
	// the crash preceded the durable announcement (so the operation
	// provably had no effect and is absent from the report), re-invoking it
	// — and return the encoded response.
	RecoverAll func(p *pmem.Proc, op Op) uint64
}

// RunCase is the sweep core: it measures the case's tracked access count on
// an uninterrupted run, then replays the operation once per access offset
// with a system-wide crash armed exactly there, checking response and
// post-state each time. It returns how many offsets actually interrupted
// the operation, or the first conformance violation.
func RunCase(build func() SweepInstance, c SweepCase) (crashPoints int, err error) {
	// Measure the operation's access count on an identical run (tracked
	// heaps count accesses unconditionally). Count Invoke's accesses only:
	// the replays below run Begin before arming, so offsets past Invoke's
	// span could never interrupt the operation and would be wasted rebuilds.
	in := build()
	p := in.Heap.Proc(0)
	in.Target.Begin(p)
	before := in.Heap.AccessCount()
	if got := in.Target.Invoke(p, c.Op); got != c.WantResp {
		return 0, fmt.Errorf("uninterrupted %s: response %d, want %d", c.Name, got, c.WantResp)
	}
	total := in.Heap.AccessCount() - before
	if total == 0 {
		return 0, fmt.Errorf("%s: operation made no tracked accesses", c.Name)
	}
	if msg := in.Verify(c); msg != "" {
		return 0, fmt.Errorf("uninterrupted %s: %s", c.Name, msg)
	}

	for off := uint64(1); off <= total; off++ {
		in := build()
		p := in.Heap.Proc(0)
		// System-side invocation step: a crash inside Begin leaves no
		// recovery obligation; the system simply retries it.
		for !pmem.RunOp(func() { in.Target.Begin(p) }) {
			in.Heap.ResetAfterCrash()
		}
		in.Heap.ScheduleCrashAt(in.Heap.AccessCount() + off)
		var resp uint64
		if pmem.RunOp(func() { resp = in.Target.Invoke(p, c.Op) }) {
			in.Heap.DisarmCrash() // the crash would land after completion
		} else {
			crashPoints++
			in.Heap.ResetAfterCrash()
			rec := in.Target.Recover
			if in.RecoverAll != nil {
				rec = in.RecoverAll
			}
			if !pmem.RunOp(func() { resp = rec(p, c.Op) }) {
				return crashPoints, fmt.Errorf("%s off=%d: recovery crashed with no crash armed", c.Name, off)
			}
		}
		if resp != c.WantResp {
			return crashPoints, fmt.Errorf("%s off=%d: response %d, want %d", c.Name, off, resp, c.WantResp)
		}
		if msg := in.Verify(c); msg != "" {
			return crashPoints, fmt.Errorf("%s off=%d: %s", c.Name, off, msg)
		}
	}
	if crashPoints == 0 {
		return 0, fmt.Errorf("%s: no crash point actually interrupted the operation", c.Name)
	}
	return crashPoints, nil
}

// SweepAllPoints is the structure-agnostic crash-point conformance sweep:
// RunCase per case, as subtests. Each crashed replay must recover to the
// sequential model's response and post-state — this is the paper's
// detectability bar, checked exhaustively rather than sampled, and it holds
// every engine variant to the same standard (a batched phase must be
// recoverable whether the crash left it fully persisted or fully absent).
//
// build must return a fresh, identically prefilled instance on every call
// (the sweep rebuilds once per crash offset). Cases run on Proc 0.
func SweepAllPoints(t *testing.T, build func() SweepInstance, cases []SweepCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			if _, err := RunCase(build, c); err != nil {
				t.Fatal(err)
			}
		})
	}
}
