package crash

import (
	"errors"
	"fmt"
	"maps"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/isb"
	"repro/internal/linearize"
	"repro/internal/pmem"
)

// Instance is one freshly built, deterministic admission under sweep — a
// single operation, a batch window or a transaction on Proc 0, or a server's
// request pipeline — as the one sweep loop sees it.
type Instance struct {
	Heap *pmem.Heap
	// Prepare, when non-nil, is the system-side step that runs before the
	// fault is armed (Applier.Begin, a bare begin, eager under either
	// engine); its accesses are not swept.
	Prepare func()
	// Run is the admission itself: it returns the responses, in order, or
	// why it could not.
	Run func() ([]uint64, error)
	// Resolve runs after a crash interrupted Run and the heap was reset: it
	// recovers, re-submits whatever recovery proves had no effect, and
	// returns the full response vector. An instance that recovers from a
	// crash itself, on its own goroutines, has none: a server reboots and
	// Run still collects every reply.
	Resolve func() ([]uint64, error)
	// Verify checks the post-state once every response is in: final
	// contents plus structural invariants. It returns a description of the
	// first violation, or "".
	Verify func() string
	// After, when non-nil, runs at every offset once Verify passed: a
	// duplicate recovery pass, which must re-report the same responses and —
	// Verify runs again after it — change nothing.
	After func() string
	// Kill, when non-nil, makes the fault index a byte offset of a
	// connection's stream instead of a heap access: Kill(off) plans the cut
	// at byte off before Run, and Carried reports the bytes the stream
	// carried during Run. A cut at off carries off-1 bytes, so it fired
	// exactly when Carried() < off; the uninterrupted run's Carried is the
	// span swept.
	Kill    func(off uint64)
	Carried func() uint64
	// Close, when non-nil, ends the instance before its heap is recycled: a
	// server shuts down here.
	Close func()
	// Persist widens every crash point into one per cache line the crash
	// left dirty, plus none: at the crash, before the reset, that one line
	// also reaches persistent memory, as an eviction or another process's
	// write-back of a shared line would have taken it there. With three dirty
	// lines or more each line also gives its complement, every dirty line but
	// that one persisted: a barrier the crash cut short after all but one of
	// its lines, in whatever order (Px86), or evictions that beat it. The
	// fault index becomes (offset, line) or (offset, all but line).
	Persist bool
	// Interfere, when non-nil, runs after the reset and before Resolve: one
	// fixed operation on Proc 1 that writes the AffectSet of Proc 0's
	// interrupted operation, so that Proc 0 recovers against a structure
	// another process changed since the crash. It returns the check that
	// replaces the comparison with want: the history of the interloper and
	// Resolve's responses must linearize.
	Interfere func() (check func(got []uint64) error)
}

// Sweep is the one fault-point sweep: the conformance matrix and the serve
// layer's crash and wire sweeps all run on it. It runs an uninterrupted
// instance to fix the span — Run's tracked heap accesses, or the bytes its
// connection carried — then replays a fresh instance once per fault index
// with the fault armed exactly there: a system-wide crash at that access, or
// the connection cut at that byte. Every index is a crash point — a fault
// that does not fire is a violation: a crash must interrupt Run, and is
// resolved through Resolve, or the instance must recover from it itself,
// which shows as the heap's Epoch moving; a cut must carry fewer bytes than
// its index. At every index the responses must equal want (nil: the
// uninterrupted run's), the post-state must pass Verify, and the duplicate
// pass After must change nothing. It returns the number of crash points —
// with Persist, every (offset, line) pair, "none" included, and every
// complement — or the first violation, naming its index.
//
// Each crashed replay must recover to the sequential model's responses and
// post-state — this is the paper's detectability bar, checked exhaustively
// rather than sampled, and it holds every engine variant to the same standard
// (a batched phase must be recoverable whether the crash left it fully
// persisted or fully absent). build must return a fresh, identical instance
// on every call; a finished instance is closed and its heap images recycled
// (pmem.Heap.Release), so the next build zeroes only what this one carved
// instead of a whole arena.
func Sweep(build func() Instance, want []uint64) (crashPoints int, err error) {
	// Tracked heaps count accesses unconditionally. Count Run's accesses
	// only: the replays below run Prepare before arming, so offsets past
	// Run's span could never interrupt it and would be wasted rebuilds.
	in := build()
	in.prepare()
	start, epoch := in.Heap.AccessCount(), in.Heap.Epoch()
	got, err := in.Run()
	span := in.Heap.AccessCount() - start
	if err == nil && in.Kill != nil {
		span = in.Carried()
	} else if err == nil && in.Heap.Epoch() != epoch {
		err = errors.New("crashed with no crash armed")
	}
	if want == nil {
		want = got
	}
	if err == nil {
		err = in.check(got, want)
	}
	in.end()
	if err != nil {
		return 0, fmt.Errorf("uninterrupted: %v", err)
	}
	if span == 0 {
		return 0, errors.New("uninterrupted: nothing to sweep (no tracked access, no byte carried)")
	}
	points := 0
	for off := uint64(1); off <= span; off++ {
		lines, err := build().at(off, nil, want)
		var sets [][]pmem.Addr
		for _, l := range lines {
			sets = append(sets, []pmem.Addr{l})
		}
		for i := 0; len(lines) > 2 && i < len(lines); i++ {
			sets = append(sets, slices.Delete(slices.Clone(lines), i, i+1))
		}
		for i := 0; err == nil && i < len(sets); i++ {
			_, err = build().at(off, sets[i], want)
			switch {
			case err == nil:
			case i < len(lines):
				err = fmt.Errorf("line=%d: %v", lines[i], err)
			default:
				err = fmt.Errorf("all lines but %d: %v", lines[i-len(lines)], err)
			}
		}
		if err != nil {
			return 0, fmt.Errorf("off=%d: %v", off, err)
		}
		points += 1 + len(sets)
	}
	return points, nil
}

// at replays the instance with its fault armed at index off and, with
// Persist, the lines persist persisted at the crash. A replay with none
// returns the lines the crash left dirty, which the sweep replays next.
func (in Instance) at(off uint64, persist []pmem.Addr, want []uint64) (dirty []pmem.Addr, err error) {
	defer in.end()
	defer func() {
		// Recovery's attempt bound, say: one failing index, not a dead binary.
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	in.prepare()
	epoch := in.Heap.Epoch()
	if in.Kill != nil {
		in.Kill(off)
	} else {
		in.Heap.ScheduleCrashAt(in.Heap.AccessCount() + off)
	}
	var got []uint64
	var check func([]uint64) error
	switch {
	case !pmem.RunOp(func() { got, err = in.Run() }):
		if in.Resolve == nil {
			return nil, errors.New("crashed on the sweep's goroutine, and nothing resolves it")
		}
		for _, l := range persist {
			in.Heap.Proc(0).PWB(l) // Proc 0 saw the crash: its accesses pass
		}
		if persist == nil && in.Persist {
			dirty = in.Heap.DivergedLines()
		}
		in.Heap.ResetAfterCrash()
		if in.Interfere != nil {
			check = in.Interfere()
		}
		if !pmem.RunOp(func() { got, err = in.Resolve() }) {
			return nil, errors.New("recovery crashed with no crash armed")
		}
	case err != nil:
	case in.Kill != nil && in.Carried() >= off, in.Kill == nil && in.Heap.Epoch() == epoch:
		return nil, errors.New("the fault never fired")
	}
	if err == nil && check != nil {
		err = check(got)
		want = got // the history check stands in for want
	}
	if err == nil {
		err = in.check(got, want)
	}
	if err == nil && in.After != nil {
		if msg := in.After(); msg != "" {
			err = fmt.Errorf("duplicate recovery: %s", msg)
		} else if msg := in.Verify(); msg != "" {
			err = fmt.Errorf("after duplicate recovery: %s", msg)
		}
	}
	return dirty, err
}

// check holds the responses to want and the post-state to Verify.
func (in Instance) check(got, want []uint64) error {
	if !slices.Equal(got, want) {
		return fmt.Errorf("responses %v, want %v", got, want)
	}
	if msg := in.Verify(); msg != "" {
		return errors.New(msg)
	}
	return nil
}

func (in Instance) prepare() {
	if in.Prepare != nil {
		in.Prepare()
	}
}

// end closes the instance and recycles its heap.
func (in Instance) end() {
	if in.Close != nil {
		in.Close()
	}
	in.Heap.Release()
}

// SweepTest runs Sweep as test t's leaf: it logs how many crash points the
// sweep covered, or fails t with the violation and the line that re-runs t
// alone.
func SweepTest(t testing.TB, build func() Instance, want []uint64) {
	t.Helper()
	n, err := Sweep(build, want)
	if err != nil {
		t.Fatalf("%v\nre-run: %s", err, Rerun(t))
	}
	t.Logf("%d crash points swept", n)
}

// Rerun spells the go test line, from the module root, that runs t alone
// (its names quote as is). A test binary's build path is its package's
// import path plus ".test".
func Rerun(t testing.TB) string {
	pkg := "."
	if bi, ok := debug.ReadBuildInfo(); ok {
		pkg += strings.TrimPrefix(strings.TrimSuffix(bi.Path, ".test"), bi.Main.Path) + "/"
	}
	return fmt.Sprintf("go test %s -run '^%s$' -count=1", pkg, strings.ReplaceAll(t.Name(), "/", "$/^"))
}

// sameState is the one post-state oracle: each structure's snapshot — a set's
// keys ascending, a queue's values front to back, a stack's top to bottom —
// must equal, element for element, the slice the sequential model leaves, and
// then its own invariant check must pass. It takes raw-package structures and
// registered ones alike.
func sameState(structs []any, want [][]uint64) string {
	for i, s := range structs {
		got, ok := snapshot(s)
		if !ok {
			return fmt.Sprintf("structure %d (%T) has no snapshot", i, s)
		}
		if !slices.Equal(got, want[i]) {
			return fmt.Sprintf("structure %d (%T) holds %v, want %v", i, s, got, want[i])
		}
	}
	for _, s := range structs {
		if msg := s.(interface{ CheckInvariants() string }).CheckInvariants(); msg != "" {
			return msg
		}
	}
	return ""
}

// snapshot reads a structure's contents the way the sequential models spell
// them: a set's keys ascending, a queue's values front to back, a stack's top
// to bottom. ok is false for a value that is no structure.
func snapshot(s any) (contents []uint64, ok bool) {
	switch s := s.(type) {
	case interface{ Keys() []uint64 }:
		return s.Keys(), true
	case interface{ Values() []uint64 }:
		return s.Values(), true
	}
	return nil, false
}

// model is the sequential specification of a structure kind.
func model(kind repro.StructKind) linearize.Model {
	switch kind {
	case repro.KindQueue:
		return linearize.QueueModel()
	case repro.KindStack:
		return linearize.StackModel()
	}
	return linearize.SetModel()
}

// expected is what the sequential model requires of a case: each leg's
// encoded response, and each structure's snapshot before and after it (the
// one before backs the check behind an atomic case's no-effect report).
type expected struct {
	want       []uint64
	pre, final [][]uint64
}

// expect runs each structure's prefill and then the case's legs through the
// structure's sequential model (internal/linearize, whose op codes are the
// structures'). A leg whose argument derives from leg 1
// (repro.TxnLeg.ArgFromLeg1) takes leg 1's value, or is skipped when leg 1
// carried none.
func expect(s subject, c sweepCase) expected {
	models, states := make([]linearize.Model, len(s.structs)), make([]any, len(s.structs))
	for i, st := range s.structs {
		models[i] = model(st.kind)
		states[i] = models[i].Init()
		for _, op := range st.prefill {
			states[i], _ = models[i].Step(states[i], op.Kind, op.Arg)
		}
	}
	e := expected{pre: snapshots(s, states)}
	var resp uint64
	for _, l := range c.legs {
		arg := l.op.Arg
		if l.fromLeg1 && !isb.IsValue(resp) {
			resp = isb.RespSkipped
		} else {
			if l.fromLeg1 {
				arg = isb.DecodeValue(resp)
			}
			states[l.s], resp = models[l.s].Step(states[l.s], l.op.Kind, arg)
		}
		e.want = append(e.want, resp)
	}
	e.final = snapshots(s, states)
	return e
}

// snapshots spells model states the way sameState reads the structures: a
// set's keys ascending, a queue front to back, a stack top to bottom.
func snapshots(s subject, states []any) [][]uint64 {
	out := make([][]uint64, len(states))
	for i, st := range states {
		switch st := st.(type) {
		case map[uint64]bool:
			out[i] = slices.Sorted(maps.Keys(st))
		case []uint64:
			out[i] = slices.Clone(st)
			if s.structs[i].kind == repro.KindStack {
				slices.Reverse(out[i])
			}
		}
	}
	return out
}

// direct is the paper's model of recovery, as the raw-package cells run it:
// the harness itself re-supplies the interrupted operation to the structure's
// recovery function. The duplicate pass is recovery itself, run again: a
// completed operation's recovery re-reports its response (and a read's
// re-executes it).
func direct(h *pmem.Heap, a Applier, op repro.Op, want uint64, verify func() string) Instance {
	p := h.Proc(0)
	resolve := func() ([]uint64, error) { return []uint64{a.RecoverLeg(p, 0, op.Kind, op.Arg)}, nil }
	return Instance{
		Heap:    h,
		Prepare: func() { a.Begin(p) },
		Run:     func() ([]uint64, error) { return []uint64{a.ApplyOp(p, op.Kind, op.Arg)}, nil },
		Resolve: resolve,
		Verify:  verify,
		After: func() string {
			if got, _ := resolve(); got[0] != want {
				return fmt.Sprintf("response %d, want %d", got[0], want)
			}
			return ""
		},
	}
}

// vector is an announced vector of legs under sweep — one leg for a single
// operation, a window's, or a transaction's atomic two — submitted through the
// Runtime and resolved the way a real application would: through RecoverAll's
// report, re-submitting exactly the legs the report proves had no effect.
type vector struct {
	rt     *repro.Runtime
	legs   []repro.TxnLeg
	atomic bool
	// pre, for an atomic vector, reports "" exactly when every structure
	// still holds its pre-admission state: the atomicity check behind a
	// no-effect report.
	pre func() string
	// audit, when non-nil, checks the reclaimer right after RecoverAll,
	// before anything re-submitted can draw on the pool it rebuilt.
	audit func() string
}

// submit admits legs[from:] and returns their responses.
func (v vector) submit(from int) []uint64 {
	p := v.rt.Proc(0)
	if v.atomic {
		r1, r2 := v.rt.ApplyTxn(p, v.legs[0], v.legs[1])
		return []uint64{r1.Raw(), r2.Raw()}
	}
	if len(v.legs) == 1 {
		return []uint64{v.legs[0].S.Apply(p, v.legs[0].Op).Raw()}
	}
	ops := make([]repro.Op, 0, len(v.legs))
	for _, l := range v.legs[from:] {
		ops = append(ops, l.Op)
	}
	var out []uint64
	for _, r := range v.rt.ApplyWindow(p, v.legs[0].S, ops) {
		out = append(out, r.Raw())
	}
	return out
}

// instance is the vector as Sweep drives it. A single operation takes the
// system-side invocation step first, as the storms do: Begin durably retires
// the previous announcement, so any report is this operation's. Longer
// vectors retire it inside the admission, under sweep.
//
// With crashedAt > 0 what is swept is RecoverAll itself: the admission is
// first crashed at that access offset and the heap restarted, unswept, and a
// crash inside the recovery that follows is resolved by running it again.
func (v vector) instance(verify func() string, want []uint64, crashedAt uint64) Instance {
	in := Instance{
		Heap:    v.rt.Heap(),
		Run:     func() ([]uint64, error) { return v.submit(0), nil },
		Resolve: v.resolve,
		Verify:  verify,
		After:   func() string { return v.duplicate(want) },
	}
	if len(v.legs) == 1 {
		in.Prepare = func() { v.legs[0].S.Begin(v.rt.Proc(0)) }
	}
	if crashedAt > 0 {
		begin := in.Prepare
		in.Prepare = func() {
			if begin != nil {
				begin()
			}
			in.Heap.ScheduleCrashAt(in.Heap.AccessCount() + crashedAt)
			if pmem.RunOp(func() { v.submit(0) }) {
				panic(fmt.Sprintf("crash: the admission completed within %d accesses; nothing left to recover", crashedAt))
			}
			v.rt.Restart()
		}
		in.Run = v.resolve
	}
	return in
}

// effectFree reports whether leg i, answering resp, changed nothing: a read,
// an update the structure found nothing to do for (an insert of a present
// key, a delete of an absent one, a dequeue or pop on empty), or a leg elided
// because leg 1 carried no value. Under Isb-Opt such a leg need leave no
// durable trace, and re-submitting it is exactly-once.
func (v vector) effectFree(i int, resp uint64) bool {
	switch resp {
	case isb.RespFalse, isb.RespEmpty, isb.RespSkipped:
		return true
	}
	for _, k := range v.legs[i].S.(interface{ OpKinds() []repro.OpKind }).OpKinds() {
		if k.Kind == v.legs[i].Op.Kind {
			return k.ReadOnly
		}
	}
	return false
}

// resolve turns a crashed replay into the full response vector: completed
// and in-flight legs take their reported responses and the no-effect suffix
// — for an atomic vector that is all of it or none — is re-submitted. No
// report proves the vector never announced, so every leg is re-submitted; so
// does, for a vector of several legs, a report of another shape (the
// prefill's last single operation, idempotently re-confirmed: the crash
// landed before this vector's record became durable). Whenever the whole of
// an atomic vector is re-submitted, pre must hold first: neither structure
// changed.
//
// It also checks the report's routing and shape: it is Proc 0's, the legs are
// the announced ones on the announced structures, and their statuses form a
// completed prefix, exactly one in-flight leg and a no-effect suffix, in that
// order — except that an atomic report is either wholly no-effect or has no
// no-effect leg at all.
func (v vector) resolve() ([]uint64, error) {
	reps := v.rt.RecoverAll()
	if len(reps) > 1 || len(reps) == 1 && reps[0].Proc != 0 {
		return nil, fmt.Errorf("single-proc sweep on proc 0 reported %+v", reps)
	}
	if v.audit != nil {
		if msg := v.audit(); msg != "" {
			return nil, errors.New(msg)
		}
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
	} else if len(reps) == 1 && len(v.legs) == 1 {
		return nil, fmt.Errorf("Begin retired the previous announcement, yet RecoverAll reported %+v", reps[0])
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
// response, except an effect-free suffix (effectFree), which may have left no
// durable trace — an admission that installs nothing stores no record — and,
// re-submitted the way resolve does, must answer the same again.
func (v vector) duplicate(want []uint64) string {
	reps := v.rt.RecoverAll()
	if len(reps) > 1 {
		return fmt.Sprintf("reported %+v", reps)
	}
	from := 0 // legs [0, from) are re-reported; the rest is re-submitted
	if len(reps) == 1 && reps[0].Atomic == v.atomic && len(reps[0].Legs) <= len(v.legs) {
		tail := len(v.legs) - len(reps[0].Legs)
		for i, leg := range reps[0].Legs {
			if leg.Op != v.legs[tail+i].Op {
				return fmt.Sprintf("leg %d of %d re-reported as %+v, want %+v", tail+i, len(v.legs), leg, v.legs[tail+i].Op)
			}
			if leg.Status == repro.OpNoEffect {
				break
			}
			if leg.Resp.Raw() != want[tail+i] {
				return fmt.Sprintf("leg %d of %d re-reported as %+v, want %+v → %d", tail+i, len(v.legs), leg, v.legs[tail+i].Op, want[tail+i])
			}
			from = tail + i + 1
		}
	}
	if v.atomic && from != len(v.legs) {
		from = 0
	}
	for i := from; i < len(v.legs); i++ {
		if !v.effectFree(i, want[i]) {
			return fmt.Sprintf("leg %d (%+v → %d) took effect, yet recovery does not re-report it: %+v", i, v.legs[i].Op, want[i], reps)
		}
	}
	if from < len(v.legs) {
		if got := v.submit(from); !slices.Equal(got, want[from:]) {
			return fmt.Sprintf("effect-free legs %d.. re-submitted answered %v, want %v", from, got, want[from:])
		}
	}
	return ""
}
