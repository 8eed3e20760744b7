package crash

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/pmem"
)

// Instance is one freshly built, deterministic single-process admission
// under sweep — a single operation, a batch window or a transaction — as the
// one sweep loop sees it.
type Instance struct {
	Heap *pmem.Heap
	// Prepare, when non-nil, is the system-side step that runs before the
	// crash is armed (Target.Begin); its accesses are not swept.
	Prepare func()
	// Run is the admission itself: it returns the responses, in order.
	Run func() []uint64
	// Resolve runs after a crash interrupted Run and the heap was reset: it
	// recovers, re-submits whatever recovery proves had no effect, and
	// returns the full response vector.
	Resolve func() ([]uint64, error)
	// Verify checks the post-state once every response is in: final
	// contents plus structural invariants. It returns a description of the
	// first violation, or "".
	Verify func() string
	// After, when non-nil, runs at every offset once Verify passed: a
	// duplicate recovery pass, which must re-report the same responses and —
	// Verify runs again after it — change nothing.
	After func() string
}

// Sweep is the crash-point sweep every conformance test in this package
// runs on: it measures Run's tracked access count on an uninterrupted
// instance, then replays it once per access offset on a fresh instance with a
// system-wide crash armed exactly there, resolving each crash through
// Resolve and checking the responses against want, the post-state, and
// duplicate-recovery idempotence each time. It returns how many offsets
// actually interrupted Run, or the first conformance violation.
//
// Each crashed replay must recover to the sequential model's responses and
// post-state — this is the paper's detectability bar, checked exhaustively
// rather than sampled, and it holds every engine variant to the same standard
// (a batched phase must be recoverable whether the crash left it fully
// persisted or fully absent). build must return a fresh, identically
// prefilled instance on every call. Everything runs on Proc 0.
func Sweep(name string, build func() Instance, want []uint64) (crashPoints int, err error) {
	check := func(in Instance, got []uint64, off uint64) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s off=%d: %d responses, want %d", name, off, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("%s off=%d: response %d is %d, want %d", name, off, i, got[i], want[i])
			}
		}
		if msg := in.Verify(); msg != "" {
			return fmt.Errorf("%s off=%d: %s", name, off, msg)
		}
		return nil
	}

	// Tracked heaps count accesses unconditionally. Count Run's accesses
	// only: the replays below run Prepare before arming, so offsets past
	// Run's span could never interrupt it and would be wasted rebuilds.
	in := build()
	if in.Prepare != nil {
		in.Prepare()
	}
	before := in.Heap.AccessCount()
	got := in.Run()
	total := in.Heap.AccessCount() - before
	if err := check(in, got, 0); err != nil {
		return 0, fmt.Errorf("uninterrupted %v", err)
	}
	if total == 0 {
		return 0, fmt.Errorf("%s: made no tracked accesses", name)
	}

	for off := uint64(1); off <= total; off++ {
		in := build()
		if in.Prepare != nil {
			in.Prepare()
		}
		in.Heap.ScheduleCrashAt(in.Heap.AccessCount() + off)
		var got []uint64
		if pmem.RunOp(func() { got = in.Run() }) {
			in.Heap.DisarmCrash() // the crash would land after completion
		} else {
			crashPoints++
			in.Heap.ResetAfterCrash()
			var rerr error
			if !pmem.RunOp(func() { got, rerr = in.Resolve() }) {
				return crashPoints, fmt.Errorf("%s off=%d: recovery crashed with no crash armed", name, off)
			}
			if rerr != nil {
				return crashPoints, fmt.Errorf("%s off=%d: %v", name, off, rerr)
			}
		}
		if err := check(in, got, off); err != nil {
			return crashPoints, err
		}
		if in.After != nil {
			if msg := in.After(); msg != "" {
				return crashPoints, fmt.Errorf("%s off=%d: duplicate recovery: %s", name, off, msg)
			}
			if msg := in.Verify(); msg != "" {
				return crashPoints, fmt.Errorf("%s off=%d: after duplicate recovery: %s", name, off, msg)
			}
		}
	}
	if crashPoints == 0 {
		return 0, fmt.Errorf("%s: no crash point actually interrupted it", name)
	}
	return crashPoints, nil
}

// sweepCases runs one sweep per case as subtests, logging how many crash
// points each covered.
func sweepCases[C any](t *testing.T, cases []C, name func(C) string, run func(C) (int, error)) {
	t.Helper()
	for _, c := range cases {
		t.Run(name(c), func(t *testing.T) {
			n, err := run(c)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d crash points swept", n)
		})
	}
}

// SweepCase is one single operation to sweep: the operation, the response
// the sequential model requires, and a name for the subtest.
type SweepCase struct {
	Name     string
	Op       Op
	WantResp uint64
}

// SweepInstance is one freshly built structure under single-operation sweep:
// the heap it lives on, the adapted Target, and the post-state check.
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

// instance is the single operation c on in as Sweep drives it: Begin, Invoke,
// Recover. The duplicate pass is recovery itself, run again: a completed
// operation's recovery re-reports its response (and a read's re-executes it).
func (in SweepInstance) instance(c SweepCase) Instance {
	p, rec := in.Heap.Proc(0), in.Target.Recover
	if in.RecoverAll != nil {
		rec = in.RecoverAll
	}
	resolve := func() ([]uint64, error) { return []uint64{rec(p, c.Op)}, nil }
	return Instance{
		Heap:    in.Heap,
		Prepare: func() { in.Target.Begin(p) },
		Run:     func() []uint64 { return []uint64{in.Target.Invoke(p, c.Op)} },
		Resolve: resolve,
		Verify:  func() string { return in.Verify(c) },
		After:   func() string { return sameResponses(resolve, []uint64{c.WantResp}) },
	}
}

// RunCase sweeps one single operation at every crash point.
func RunCase(build func() SweepInstance, c SweepCase) (crashPoints int, err error) {
	return Sweep(c.Name, func() Instance { return build().instance(c) }, []uint64{c.WantResp})
}

// sameResponses is the duplicate pass of a sweep whose resolver is safe to
// run twice: it must answer want again.
func sameResponses(resolve func() ([]uint64, error), want []uint64) string {
	got, err := resolve()
	if err != nil {
		return err.Error()
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("response %d is %d, want %d", i, got[i], want[i])
		}
	}
	return ""
}

// SweepAllPoints is the structure-agnostic single-operation conformance
// sweep: RunCase per case, as subtests.
func SweepAllPoints(t *testing.T, build func() SweepInstance, cases []SweepCase) {
	t.Helper()
	sweepCases(t, cases, func(c SweepCase) string { return c.Name },
		func(c SweepCase) (int, error) { return RunCase(build, c) })
}

// vector is a window or transaction under sweep: an announced vector of more
// than one leg, submitted through the Runtime and resolved the way a real
// application would — through RecoverAll's report, re-submitting exactly the
// legs the report proves had no effect.
type vector struct {
	rt     *repro.Runtime
	legs   []repro.TxnLeg
	atomic bool
	// pre, for an atomic vector, reports "" exactly when every structure
	// still holds its pre-admission state: the atomicity check behind a
	// no-effect report.
	pre func() string
}

// submit admits legs[from:] and returns their responses.
func (v vector) submit(from int) []uint64 {
	p := v.rt.Proc(0)
	if v.atomic {
		r1, r2 := v.rt.ApplyTxn(p, v.legs[0], v.legs[1])
		return []uint64{r1.Raw(), r2.Raw()}
	}
	ops := make([]repro.Op, 0, len(v.legs))
	for _, l := range v.legs[from:] {
		ops = append(ops, l.Op)
	}
	var out []uint64
	for _, r := range v.rt.ApplyBatch(p, v.legs[0].S, ops) {
		out = append(out, r.Raw())
	}
	return out
}

// instance is the vector as Sweep drives it.
func (v vector) instance(verify func() string, want []uint64) Instance {
	return Instance{
		Heap:    v.rt.Heap(),
		Run:     func() []uint64 { return v.submit(0) },
		Resolve: v.resolve,
		Verify:  verify,
		After:   func() string { return v.duplicate(want) },
	}
}

// resolve turns a crashed replay into the full response vector: completed
// and in-flight legs take their reported responses and the no-effect suffix
// — for an atomic vector that is all of it or none — is re-submitted. No
// report, or a report of another shape (the prefill's last single operation,
// idempotently re-confirmed: the crash landed before this vector's record
// became durable), proves the vector never announced, so every leg is
// re-submitted. Whenever the whole of an atomic vector is re-submitted, pre
// must hold first: neither structure changed.
//
// It also checks the report's shape: the legs are the announced ones, and
// their statuses form a completed prefix, exactly one in-flight leg and a
// no-effect suffix, in that order — except that an atomic report is either
// wholly no-effect or has no no-effect leg at all.
func (v vector) resolve() ([]uint64, error) {
	reps := v.rt.RecoverAll()
	if len(reps) > 1 {
		return nil, fmt.Errorf("single-proc sweep produced %d report entries", len(reps))
	}
	got := make([]uint64, len(v.legs))
	from := 0
	if len(reps) == 1 && len(reps[0].Legs) == len(v.legs) && reps[0].Atomic == v.atomic {
		legs := reps[0].Legs
		for i, leg := range legs {
			if leg.Op != v.legs[i].Op || leg.StructID != v.legs[i].S.ID() {
				return nil, fmt.Errorf("leg %d reported as %+v on struct %d, announced %+v on %d",
					i, leg.Op, leg.StructID, v.legs[i].Op, v.legs[i].S.ID())
			}
			got[i] = leg.Resp.Raw()
		}
		completed := 0
		for completed < len(legs) && legs[completed].Status == repro.OpCompleted {
			completed++
		}
		if completed < len(legs) && legs[completed].Status == repro.OpInFlight {
			from = completed + 1
		} else if !v.atomic || completed > 0 {
			return nil, fmt.Errorf("no in-flight leg after %d completed ones: %+v", completed, legs)
		}
		for i := from; i < len(legs); i++ {
			if legs[i].Status != repro.OpNoEffect {
				return nil, fmt.Errorf("leg %d is %v after the in-flight leg %d: %+v", i, legs[i].Status, from-1, legs)
			}
		}
		if v.atomic && from != 0 && from != len(legs) {
			return nil, fmt.Errorf("atomic report resolves %d of %d legs: %+v", from, len(legs), legs)
		}
	}
	if v.atomic && from == 0 {
		if msg := v.pre(); msg != "" {
			return nil, fmt.Errorf("no-effect transaction but pre-state check failed: %s", msg)
		}
	}
	if from < len(v.legs) {
		copy(got[from:], v.submit(from))
	}
	return got, nil
}

// duplicate is the exactly-once check under a duplicate recovery pass — the
// path a rebooted application drives when it recovers twice: a second
// RecoverAll must re-report the last announced vector (the whole admission,
// or the suffix resolve re-submitted) with every leg resolved to the same
// response.
func (v vector) duplicate(want []uint64) string {
	reps := v.rt.RecoverAll()
	if len(reps) != 1 || reps[0].Atomic != v.atomic || len(reps[0].Legs) > len(v.legs) {
		return fmt.Sprintf("reported %+v", reps)
	}
	tail := len(v.legs) - len(reps[0].Legs)
	for i, leg := range reps[0].Legs {
		if leg.Status == repro.OpNoEffect || leg.Op != v.legs[tail+i].Op || leg.Resp.Raw() != want[tail+i] {
			return fmt.Sprintf("leg %d of %d re-reported as %+v, want %+v → %d", tail+i, len(v.legs), leg, v.legs[tail+i].Op, want[tail+i])
		}
	}
	return ""
}
