package crash

import (
	"errors"
	"fmt"
	"regexp"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

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
	// Individual makes the fault an individual failure of Proc 0 at that
	// access (pmem.Proc.ScheduleSelfCrash), the paper's footnote-1 model:
	// Proc 0 loses its locals, but the heap is not reset and its other
	// state stands, so Resolve runs on the same heap and Epoch never moves.
	Individual bool
}

// Sweep is the one fault-point sweep: the conformance matrix, the serve
// layer's crash and wire sweeps and every package's own crash-offset tests
// all run on it. It runs an uninterrupted instance to fix the span — Run's
// tracked heap accesses, or the bytes its connection carried — then replays
// a fresh instance once per fault index with the fault armed exactly there: a
// system-wide crash at that access, Proc 0's individual failure there
// (Individual), or the connection cut at that byte. Every index is a crash
// point — a fault that does not fire is a violation: a crash must interrupt
// Run, and is resolved through Resolve, or the instance must recover from it
// itself, which shows as the heap's Epoch moving; a cut must carry fewer
// bytes than its index. At every index the responses must equal want (nil: the
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
	switch {
	case in.Kill != nil:
		in.Kill(off)
	case in.Individual:
		in.Heap.Proc(0).ScheduleSelfCrash(off)
	default:
		in.Heap.ScheduleCrashAt(in.Heap.AccessCount() + off)
	}
	var got []uint64
	var check func([]uint64) error
	switch {
	case !pmem.RunOp(func() { got, err = in.Run() }):
		if in.Resolve == nil {
			return nil, errors.New("crashed on the sweep's goroutine, and nothing resolves it")
		}
		if !in.Individual {
			for _, l := range persist {
				in.Heap.Proc(0).PWB(l) // Proc 0 saw the crash: its accesses pass
			}
			if persist == nil && in.Persist {
				dirty = in.Heap.DivergedLines()
			}
			in.Heap.ResetAfterCrash()
		}
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

// step runs in as an operation before the swept one, on the heap the swept
// one will run on: with its fault armed at access off (0: none), resolved if
// it fired, its responses held to want (nil: none held) and its post-state to
// Verify. It returns the responses and whether the fault fired.
func (in Instance) step(off uint64, want []uint64) (got []uint64, fired bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	in.prepare()
	switch {
	case off == 0:
	case in.Individual:
		in.Heap.Proc(0).ScheduleSelfCrash(off)
	default:
		in.Heap.ScheduleCrashAt(in.Heap.AccessCount() + off)
	}
	fired = !pmem.RunOp(func() { got, err = in.Run() })
	in.Heap.DisarmCrash()
	in.Heap.Proc(0).CancelSelfCrash()
	if fired {
		if !in.Individual {
			in.Heap.ResetAfterCrash()
		}
		got, err = in.Resolve()
	}
	if want == nil {
		want = got
	}
	if err == nil {
		err = in.check(got, want)
	}
	return got, fired, err
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
// sweep covered and returns that count, or fails t with the violation and the
// line that re-runs t alone.
func SweepTest(t testing.TB, build func() Instance, want []uint64) int {
	t.Helper()
	n, err := Sweep(build, want)
	if err != nil {
		t.Fatalf("%v\nre-run: %s", err, Rerun(t))
	}
	t.Logf("%d crash points swept", n)
	return n
}

// SweepAfter sweeps the last of a sequence of operations on every state the
// ones before it can leave, crashed or not. build returns the sequence, fresh
// and identical on every call: one Instance per operation, all on one heap,
// run in turn, each Verify checking the state after its own operation. A
// sequence of one is SweepTest's. Otherwise subtest "prefix-crash=j", for
// j = 1, 2, …, runs each operation before the last with its fault (the last
// one's kind) armed at its j-th tracked access and resolved if it fired,
// holds it to its uninterrupted responses and its Verify, and then sweeps the
// last one. The subtests end with the first j at which no earlier fault
// fired, whose earlier operations ran uninterrupted. This covers the loops
// that crashed every operation of a sequence at one offset, and every offset
// of the last one besides. It returns the crash points of all the sweeps.
func SweepAfter(t *testing.T, build func() []Instance, want []uint64) int {
	t.Helper()
	steps := build()
	last := len(steps) - 1
	if last == 0 {
		steps[0].end()
		return SweepTest(t, func() Instance { return build()[0] }, want)
	}
	wants := make([][]uint64, last) // the earlier operations' uninterrupted responses
	for k, s := range steps[:last] {
		var err error
		if wants[k], _, err = s.step(0, nil); err != nil {
			t.Fatalf("operation %d of %d, uninterrupted: %v\nre-run: %s", k+1, last+1, err, Rerun(t))
		}
	}
	steps[last].end()
	points := 0
	for j := uint64(1); ; j++ {
		fired := false
		ok := t.Run(fmt.Sprintf("prefix-crash=%d", j), func(t *testing.T) {
			t.Helper()
			points += SweepTest(t, func() Instance {
				steps := build()
				for k, s := range steps[:last] {
					_, f, err := s.step(j, wants[k])
					if err != nil {
						t.Fatalf("operation %d of %d, fault at access %d: %v\nre-run: %s", k+1, last+1, j, err, Rerun(t))
					}
					fired = fired || f
				}
				return steps[last]
			}, want)
		})
		if !ok || !fired {
			return points
		}
	}
}

// Bool is a true-or-false response as Run and Resolve return it: 1 for true.
func Bool(ok bool) ([]uint64, error) {
	if ok {
		return []uint64{1}, nil
	}
	return []uint64{0}, nil
}

// Direct is the paper's model of recovery, as the raw-package sweeps run it:
// op on a, Proc 0 of h, begun before the fault is armed (Applier.Begin), and
// the harness itself re-supplying the interrupted operation to the
// structure's recovery function. The duplicate pass is recovery itself, run
// again: a completed operation's recovery re-reports its response want (and
// a read's re-executes it).
func Direct(h *pmem.Heap, a Applier, op Op, want uint64, verify func() string) Instance {
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

// Rerun spells the go test line, from the module root, that runs t alone:
// each element of t's name anchored and quoted (regexp.QuoteMeta), so that a
// subtest named "insert+find" does not read as a regexp. A test binary's
// build path is its package's import path plus ".test".
func Rerun(t testing.TB) string {
	pkg := "."
	if bi, ok := debug.ReadBuildInfo(); ok {
		pkg += strings.TrimPrefix(strings.TrimSuffix(bi.Path, ".test"), bi.Main.Path) + "/"
	}
	elems := strings.Split(t.Name(), "/")
	for i, e := range elems {
		elems[i] = "^" + regexp.QuoteMeta(e) + "$"
	}
	return fmt.Sprintf("go test %s -run '%s' -count=1", pkg, strings.Join(elems, "/"))
}
