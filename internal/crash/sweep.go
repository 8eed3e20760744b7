package crash

import (
	"cmp"
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
	// Individual makes the fault an individual failure of Proc 0 at that
	// access (pmem.Proc.ScheduleSelfCrash), the paper's footnote-1 model:
	// Proc 0 loses its locals, but the heap is not reset and its other
	// state stands, so Resolve runs on the same heap and Epoch never moves.
	Individual bool
	// Preempt, when non-nil, makes the sweep a sweep of preemption points:
	// Proc 1's operation run at each access of Proc 0's (see Preempt).
	Preempt *Preempt
}

// Preempt is a second process's operation and where it runs: Proc 1's Op, run
// to completion at Proc 0's k-th tracked access of Run — or, InResolve, of
// Resolve — from the heap's access hook, on Proc 0's goroutine, before that
// access. No goroutine or scheduler decides anything, so one k is one
// interleaving, and a crash armed at an access offset lands on the same access
// in every replay. It is the first rung of iterative context bounding
// (Musuvathi & Qadeer, PLDI'07): every schedule of the two operations with one
// preemption of Proc 0. It is not combined with Kill, and InResolve is not
// combined with Cross: Sweep reports either as a violation.
type Preempt struct {
	// Op is Proc 1's operation; it records what it answers for Check. A crash
	// that lands inside it ends it there, and Proc 0's access after it sees
	// the crash.
	Op func()
	// Check replaces the comparison with want in every preempted replay,
	// whether or not Op ran before a crash: Proc 0's responses and Op's must
	// linearize, the two operations overlapping.
	Check func(got []uint64) error
	// Within, when positive, bounds the preemption points to Proc 0's first
	// Within accesses of the phase Op runs in. InResolve then replays no line
	// set unpreempted to find its points: every set's Resolve must reach them
	// all. Zero makes every access a point.
	Within int
	// InResolve places Op in Resolve: every crash offset of Run (with
	// Individual, every access of Proc 0's), with Persist every line set the
	// crash gives, and for each every point of Proc 0's in the Resolve that
	// follows, one subtest "off=j/preempt=k" for every set with a point k.
	// Otherwise every point k of Proc 0's in Run is one subtest "preempt=k",
	// with no fault.
	InResolve bool
	// Cross, when non-nil, selects the preemption points of Run whose replay
	// is also crossed with the crash-offset and Persist axes: a subtest
	// "preempt=k/off=j" for every access j of the preempted run (with
	// Individual, every access of Proc 0's). It is called once per point of
	// Proc 0's in the uninterrupted run, in order, with Proc 0's Stats since
	// Run began, before that access: the k-th call selects k. The run is
	// unpreempted, but up to access k it is the preempted run too.
	Cross func(st pmem.Stats) bool
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
// With Preempt the indices are preemption points, replayed and checked the
// same way but held to Preempt.Check instead of want: every point of Proc
// 0's in the uninterrupted Run, each also crossed with every crash offset
// where Preempt.Cross selects it, or, InResolve, every point of Proc 0's in
// the Resolve after each crash offset and, with Persist, each line set. A
// preemption that never runs, because the replay is shorter than its index,
// is a violation too. The violation names its index as SweepTest names the
// subtest: "preempt=k", "preempt=k/off=j" or "off=j/preempt=k".
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
	var walk func(path string) node
	walk = func(path string) node {
		return func(name string, f func(node) (int, error)) bool {
			n, e := f(walk(path + name + "/"))
			crashPoints += n
			if e != nil && err == nil {
				err = fmt.Errorf("%s%s: %v", path, name, e)
			}
			return err == nil
		}
	}
	n, e := sweep(build, want, walk(""))
	if e != nil {
		return 0, e
	}
	if err != nil {
		return 0, err
	}
	return crashPoints + n, nil
}

// A node runs one named index of a sweep, a subtest under SweepTest: f
// replays and checks it, runs the indices under it through the node it is
// handed, and returns its own crash points. The node reports whether the
// index and every index under it passed.
type node func(name string, f func(child node) (int, error)) bool

// sweep is Sweep's loop. It runs the uninterrupted instance and then sweeps
// a plain instance's fault indices itself, returning their crash points, or
// a preempted instance's indices as nodes of run, returning 0.
func sweep(build func() Instance, want []uint64, run node) (int, error) {
	// Tracked heaps count accesses unconditionally. Count Run's accesses
	// only: the replays below run Prepare before arming, so offsets past
	// Run's span could never interrupt it and would be wasted rebuilds.
	in := build()
	if p := in.Preempt; p != nil && (in.Kill != nil || p.InResolve && p.Cross != nil) {
		in.end()
		return 0, errors.New("Preempt is not combined with Kill, nor InResolve with Cross")
	}
	in.prepare()
	start, epoch := in.Heap.AccessCount(), in.Heap.Epoch()
	var cross func(pmem.Stats) bool
	if in.Preempt != nil {
		cross = in.Preempt.Cross
	}
	pr := in.arm(0, cross)
	got, err := in.Run()
	pr.disarm()
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
	if in.Preempt == nil {
		points := 0
		for off := uint64(1); off <= span; off++ {
			n, err := point(build, replay{off: off}, want)
			if err != nil {
				return 0, fmt.Errorf("off=%d: %v", off, err)
			}
			points += n
		}
		return points, nil
	}
	if in.Individual {
		span = uint64(pr.n)
	}
	if in.Preempt.InResolve {
		for j := uint64(1); j <= span; j++ {
			if !run(fmt.Sprintf("off=%d", j), func(child node) (int, error) {
				return 0, inResolve(build, j, in.Preempt.Within, want, child)
			}) {
				break
			}
		}
		return 0, nil
	}
	for k := 1; k <= in.Preempt.points(pr.n); k++ {
		if !run(fmt.Sprintf("preempt=%d", k), func(child node) (int, error) {
			tr, err := build().at(replay{k: k}, want)
			if err != nil || !slices.Contains(pr.crossed, k) {
				return 0, err
			}
			if in.Individual {
				tr.span = uint64(tr.own)
			}
			for j := uint64(1); j <= tr.span; j++ {
				if !child(fmt.Sprintf("off=%d", j), func(node) (int, error) {
					return point(build, replay{off: j, k: k}, want)
				}) {
					break
				}
			}
			return 0, nil
		}) {
			break
		}
	}
	return 0, nil
}

// inResolve sweeps the preemption points of the Resolve after a crash at off.
// It replays the crash unpreempted, held to want, to find the line sets it
// gives (none, and with Persist each line and complement: persistSets) and,
// unless Within bounds them, again in each set to count the points of its
// Resolve. It then runs a child "preempt=k" for each point k of any set,
// which preempts every set with that point.
func inResolve(build func() Instance, off uint64, within int, want []uint64, child node) error {
	type state struct {
		persist []pmem.Addr
		name    string
		points  int
	}
	tr, err := build().at(replay{off: off}, want)
	if err != nil {
		return err
	}
	states := []state{{points: cmp.Or(within, tr.own)}}
	sets, names := persistSets(tr.dirty)
	for i, set := range sets {
		s := state{set, names[i], within}
		if within == 0 {
			tr, err := build().at(replay{off: off, persist: set}, want)
			if err != nil {
				return fmt.Errorf("%s: %v", names[i], err)
			}
			s.points = tr.own
		}
		states = append(states, s)
	}
	most := 0
	for _, s := range states {
		most = max(most, s.points)
	}
	for k := 1; k <= most; k++ {
		if !child(fmt.Sprintf("preempt=%d", k), func(node) (int, error) {
			n := 0
			for _, s := range states {
				if k > s.points {
					continue
				}
				if _, err := build().at(replay{off: off, persist: s.persist, k: k}, want); err != nil {
					if s.name != "" {
						err = fmt.Errorf("%s: %v", s.name, err)
					}
					return 0, err
				}
				n++
			}
			return n, nil
		}) {
			break
		}
	}
	return nil
}

// point replays the instance with its fault at r.off and, with Persist, once
// more for each line set the crash gives (persistSets). It returns the crash
// points.
func point(build func() Instance, r replay, want []uint64) (int, error) {
	tr, err := build().at(r, want)
	sets, names := persistSets(tr.dirty)
	for i := 0; err == nil && i < len(sets); i++ {
		r.persist = sets[i]
		if _, err = build().at(r, want); err != nil {
			err = fmt.Errorf("%s: %v", names[i], err)
		}
	}
	if err != nil {
		return 0, err
	}
	return 1 + len(sets), nil
}

// persistSets is what Persist widens a crash that left lines dirty into,
// besides persisting none of them: each line persisted alone and, with three
// lines or more, each complement. Each set comes with the name a violation
// in it is given.
func persistSets(lines []pmem.Addr) (sets [][]pmem.Addr, names []string) {
	for _, l := range lines {
		sets, names = append(sets, []pmem.Addr{l}), append(names, fmt.Sprintf("line=%d", l))
	}
	for i := 0; len(lines) > 2 && i < len(lines); i++ {
		sets = append(sets, slices.Delete(slices.Clone(lines), i, i+1))
		names = append(names, fmt.Sprintf("all lines but %d", lines[i]))
	}
	return sets, names
}

// replay is one replay of an instance: its fault armed at index off (0:
// none), with Persist the lines persist persisted at the crash, and Proc 1's
// operation (Preempt) run at Proc 0's k-th access (0: none) of Run or, with
// InResolve, of Resolve.
type replay struct {
	off     uint64
	persist []pmem.Addr
	k       int
}

// trace is what a replay measured: with Persist and no line given, the lines
// the crash left dirty; Run's accesses, every Proc's, when it was not
// interrupted; and Proc 0's accesses in the phase Preempt places Op in.
type trace struct {
	dirty []pmem.Addr
	span  uint64
	own   int
}

// at runs replay r of the instance and holds it to want.
func (in Instance) at(r replay, want []uint64) (tr trace, err error) {
	defer in.end()
	defer func() {
		// Recovery's attempt bound, say: one failing index, not a dead binary.
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic: %v", rec)
		}
	}()
	in.prepare()
	epoch := in.Heap.Epoch()
	switch {
	case r.off == 0:
	case in.Kill != nil:
		in.Kill(r.off)
	case in.Individual:
		in.Heap.Proc(0).ScheduleSelfCrash(r.off)
	default:
		in.Heap.ScheduleCrashAt(in.Heap.AccessCount() + r.off)
	}
	inResolve := in.Preempt != nil && in.Preempt.InResolve
	kRun, kResolve := r.k, 0
	if inResolve {
		kRun, kResolve = 0, r.k
	}
	var got []uint64
	start := in.Heap.AccessCount()
	pr := in.arm(kRun, nil)
	crashed := !pmem.RunOp(func() { got, err = in.Run() })
	pr.disarm()
	tr.span, tr.own = in.Heap.AccessCount()-start, pr.n
	ran := pr.ran
	switch {
	case crashed:
		if in.Resolve == nil {
			return tr, errors.New("crashed on the sweep's goroutine, and nothing resolves it")
		}
		if !in.Individual {
			for _, l := range r.persist {
				in.Heap.Proc(0).PWB(l) // Proc 0 saw the crash: its accesses pass
			}
			if r.persist == nil && in.Persist {
				tr.dirty = in.Heap.DivergedLines()
			}
			in.Heap.ResetAfterCrash()
		}
		pr = in.arm(kResolve, nil)
		ok := pmem.RunOp(func() { got, err = in.Resolve() })
		pr.disarm()
		if inResolve {
			tr.own, ran = pr.n, pr.ran
		}
		if !ok {
			return tr, errors.New("recovery crashed with no crash armed")
		}
	case err != nil:
	case r.off == 0:
	case in.Kill != nil && in.Carried() >= r.off, in.Kill == nil && in.Heap.Epoch() == epoch:
		return tr, errors.New("the fault never fired")
	}
	if err == nil && r.k > 0 {
		if !ran && (inResolve || !crashed) {
			return tr, errors.New("the preemption never ran")
		}
		if err = in.Preempt.Check(got); err == nil {
			want = got // the history check stands in for want
		}
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
	return tr, err
}

// preemption is Preempt.Op armed at Proc 0's k-th access (0: none) of one
// phase of a replay, from the heap's access hook, which also counts Proc 0's
// accesses, n, and with cross set records the points it selects.
type preemption struct {
	h       *pmem.Heap
	n       int
	ran     bool
	crossed []int
}

// arm installs the hook of a preempted instance for the phase about to run.
func (in Instance) arm(k int, cross func(pmem.Stats) bool) *preemption {
	pr := &preemption{}
	if in.Preempt == nil {
		return pr
	}
	pr.h = in.Heap
	p0 := in.Heap.Proc(0)
	base := p0.Stats()
	in.Heap.SetAccessHook(func(p *pmem.Proc) {
		if p != p0 {
			return
		}
		if pr.n++; cross != nil && in.Preempt.points(pr.n) == pr.n && cross(p.Stats().Sub(base)) {
			pr.crossed = append(pr.crossed, pr.n)
		}
		if pr.n == k {
			pr.ran = true
			pmem.RunOp(in.Preempt.Op) // a crash inside it: Proc 0's access sees it next
		}
	})
	return pr
}

// points is how many of a phase's n accesses of Proc 0's are preemption
// points: the first Within, or all.
func (p *Preempt) points(n int) int {
	if p.Within > 0 {
		return min(n, p.Within)
	}
	return n
}

// disarm removes the hook arm installed.
func (pr *preemption) disarm() {
	if pr.h != nil {
		pr.h.SetAccessHook(nil)
	}
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
// line that re-runs t alone. A preempted instance's indices are t's subtests
// instead, "preempt=k", "preempt=k/off=j" or "off=j/preempt=k", each leaf
// logging its own crash points and failing with its own re-run line; the
// sweep stops at the first that fails.
func SweepTest(t *testing.T, build func() Instance, want []uint64) int {
	t.Helper()
	points := 0
	n, err := sweep(build, want, subtests(t, &points))
	if err != nil {
		t.Fatalf("%v\nre-run: %s", err, Rerun(t))
	}
	if n > 0 {
		t.Logf("%d crash points swept", n)
	}
	return points + n
}

// subtests is the node that runs each index as a subtest of t, adding the
// crash points of the leaves to points.
func subtests(t *testing.T, points *int) node {
	return func(name string, f func(node) (int, error)) bool {
		return t.Run(name, func(t *testing.T) {
			t.Helper()
			children := 0
			n, err := f(func(name string, g func(node) (int, error)) bool {
				children++
				return subtests(t, points)(name, g)
			})
			if err != nil {
				t.Fatalf("%v\nre-run: %s", err, Rerun(t))
			}
			if *points += n; children == 0 {
				t.Logf("%d crash points swept", n)
			}
		})
	}
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
