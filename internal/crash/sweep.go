package crash

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"regexp"
	"runtime/debug"
	"slices"
	"strconv"
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
	// Resolve runs after a crash interrupted Run, or followed it (CrashAfter),
	// and the heap was reset: it recovers, re-submits whatever recovery proves
	// had no effect, and returns the full response vector. An instance that
	// recovers from a crash itself, on its own goroutines, has none: a server
	// reboots and Run still collects every reply.
	Resolve func() ([]uint64, error)
	// Verify checks the post-state once every response is in: final
	// contents plus structural invariants. It returns a description of the
	// first violation, or "".
	Verify func() string
	// After, when non-nil, runs in every replay once Verify passed: a
	// duplicate recovery pass, which must re-report the same responses and —
	// Verify runs again after it — change nothing.
	After func() string
	// Kill, when non-nil, makes the fault index a byte offset of a
	// connection's stream instead of a heap access: before Run, Kill(off)
	// plans the cut at byte off (0: none) and returns what reports, after
	// Run, the bytes the stream carried. A cut at off carries off-1 bytes, so
	// it fired exactly when fewer were carried; the uninterrupted run's count
	// is the span swept.
	Kill func(off uint64) (carried func() uint64)
	// Close, when non-nil, ends the instance before its heap is recycled: a
	// server shuts down here.
	Close func()
	// Persist widens every crash point into one per cache line the crash
	// left dirty, plus none: at the crash, before the reset, that one line
	// also reaches persistent memory, as an eviction or another process's
	// write-back of a shared line would have taken it there. With three dirty
	// lines or more each line also gives its complement, every dirty line but
	// that one persisted: a barrier the crash cut short after all but one of
	// its lines, in whatever order (Px86), or evictions that beat it.
	Persist bool
	// Individual makes the fault an individual failure of Proc 0 at its own
	// access (pmem.Proc.ScheduleSelfCrash), the paper's footnote-1 model:
	// Proc 0 loses its locals, but the heap is not reset and its other state
	// stands, so Resolve runs on the same heap and Epoch never moves.
	Individual bool
	// CrashAfter adds one crash point, "off=after": the system crashes once
	// Run has returned, and Resolve must recover to the same responses. In a
	// row preempted in Run every point has it.
	CrashAfter bool
	// Preempt, when non-nil, adds the axis of preemption points.
	Preempt *Preempt
}

// Preempt is a second process's operation and where it runs: Proc 1's Op, run
// to completion at Proc 0's k-th tracked access of Run — or, InResolve, of
// Resolve — from the heap's access hook, on Proc 0's goroutine, before that
// access. No goroutine or scheduler decides anything, so one k is one
// interleaving, and a crash armed at an access offset lands on the same access
// in every replay. It is the first rung of iterative context bounding
// (Musuvathi & Qadeer, PLDI'07): every schedule of the two operations with one
// preemption of Proc 0.
type Preempt struct {
	// Op is Proc 1's operation; it records what it answers for Check. A crash
	// that lands inside it ends it there, and Proc 0's access after it sees
	// the crash.
	Op func()
	// Check replaces the comparison with want in every preempted replay,
	// whether or not Op ran before a crash: Proc 0's responses and Op's must
	// linearize, the two operations overlapping.
	Check func(got []uint64) error
	// Within, when positive, makes the points of an InResolve row Proc 0's
	// first Within accesses of each Resolve, which the Resolve must reach,
	// and replays no line set unpreempted to count them. Zero: every access.
	// A row preempted in Run is preempted at every access of it.
	Within int
	// InResolve places Op in the Resolve after each crash point; otherwise Op
	// runs in Run and crashes cross only the points Cross selects.
	InResolve bool
	// Cross, when non-nil, selects where the preemption and crash axes cross.
	// It is called once per access of Proc 0's in the uninterrupted Run, in
	// order, with Proc 0's Stats since Run began, before that access, and
	// selects that preemption point, whose replay is then crashed at every
	// access, or, InResolve, the crash there.
	Cross func(st pmem.Stats) bool
}

// Sweep is the one fault-point sweep: the conformance matrix, the serve
// layer's crash and wire sweeps and every package's own crash-offset tests
// all run on it. An uninterrupted run records what the axes are generated
// from: the span of Run's tracked heap accesses (Proc 0's with Individual) or
// of the bytes its connection carried, and Proc 0's accesses. Sweep then
// replays a fresh instance once per value of the axes' product, a replay: a
// preemption point, a crash point — a system-wide crash at an access, Proc
// 0's individual failure there, a cut at a byte, or the crash after Run —
// and with Persist the lines persisted at the crash. A crash must interrupt
// Run, and is resolved through Resolve, or the instance must recover from it
// itself, which shows as the heap's Epoch moving; a cut must carry fewer
// bytes than its index; a preemption point must be reached unless a crash
// came first. In every replay the responses must equal want (nil: the
// uninterrupted run's), or pass Preempt.Check when preempted, the post-state
// must pass Verify, and the duplicate pass After must change nothing. Sweep
// returns the replays that passed and how many were crash points (InResolve,
// preempted ones only), or the first violation, named by its replay's printed
// form: "off=j", "off=j/line=L", "off=j/all-but=L", "preempt=k",
// "preempt=k/off=j", "off=j/preempt=k", "preempt=k/off=after" and so on.
//
// Each crashed replay must recover to the sequential model's responses and
// post-state, the paper's detectability bar checked exhaustively: a batched
// phase must recover whether the crash left it fully persisted or absent.
// A replay's Run, unless a crash is armed in it, and its Resolve may each
// make at most 1 024 times (replayBudget) the uninterrupted run's span of
// heap accesses: one that runs on past that, a livelocked walk of Proc 1's
// say, fails its replay instead of hanging the package. A loop that never
// touches the heap is not caught, nor is the uninterrupted run, which
// measures the span, nor is a replay of a cut byte.
// build must return a fresh, identical instance on every call; a finished
// instance is closed and its heap images recycled (pmem.Heap.Release), so the
// next build zeroes only what this one carved instead of a whole arena.
func Sweep(build func() Instance, want []uint64) (replays, crashPoints int, err error) {
	s := sweep(nil, build, want, nil)
	if s.err != nil && s.stop != (replay{}) {
		s.err = fmt.Errorf("%v: %v", s.stop, s.err)
	}
	return s.replays, s.points, s.err
}

// phase is where in a replay a point lies.
type phase uint8

const (
	none phase = iota
	inRun
	inResolve
	afterRun
)

// point is where a replay's preemption or crash lands: at index k of a
// phase, or after Run.
type point struct {
	phase phase
	k     uint64
}

// persist is the line set a replay's crash persists.
type persist uint8

const (
	noLine  persist = iota
	oneLine         // the line alone
	allBut          // every dirty line but the line
)

// replay is one replay of an instance as a value: where Proc 1's operation
// and the fault land, and the lines persisted at the crash. The zero replay
// is the uninterrupted run. Its printed form names a failing subtest.
type replay struct {
	preempt, crash point
	persist        persist
	line           pmem.Addr
}

func (r replay) String() string {
	var el []string
	add := func(ok bool, format string, v any) {
		if ok {
			el = append(el, fmt.Sprintf(format, v))
		}
	}
	add(r.preempt.phase == inRun, "preempt=%d", r.preempt.k)
	add(r.crash.phase == inRun, "off=%d", r.crash.k)
	add(r.crash.phase == afterRun, "off=%s", "after")
	add(r.persist == oneLine, "line=%d", r.line)
	add(r.persist == allBut, "all-but=%d", r.line)
	add(r.preempt.phase == inResolve, "preempt=%d", r.preempt.k)
	return strings.Join(el, "/")
}

// parseReplay reads a replay back from its printed form; any other string
// is not one.
func parseReplay(s string) (r replay, ok bool) {
	for _, el := range strings.Split(s, "/") {
		key, val, _ := strings.Cut(el, "=")
		n, err := strconv.ParseUint(val, 10, 64)
		switch {
		case el == "off=after":
			r.crash = point{afterRun, 0}
		case err != nil:
			return replay{}, false
		case key == "off":
			r.crash = point{inRun, n}
		case key == "preempt" && r.crash.phase == none:
			r.preempt = point{inRun, n}
		case key == "preempt":
			r.preempt = point{inResolve, n}
		case key == "line":
			r.persist, r.line = oneLine, pmem.Addr(n)
		case key == "all-but":
			r.persist, r.line = allBut, pmem.Addr(n)
		default:
			return replay{}, false
		}
	}
	return r, r != (replay{}) && r.String() == s
}

// sweeper is one sweep's state: the instance recorded, SweepTest's row t or
// nil, and the replays so far, stopped at a violation or the one asked for.
type sweeper struct {
	build           func() Instance
	want            []uint64
	in              Instance
	t               *testing.T
	budget          uint64 // the heap accesses a replay's Run or Resolve may make
	replays, points int
	stop            replay
	err             error
}

// replayBudget is the multiple of the uninterrupted run's span that bounds
// a replay's Run and its Resolve in heap accesses. The largest ratio a
// sweep in the repository measures is 80, a recovery of 320 accesses after a
// run of 4.
const replayBudget = 1 << 10

// sweep is Sweep's loop over the product of the axes, or, only, over that
// one replay: the recording, then a replay per preemption point of Run (or
// none), and in each the crash points it crosses, reported under row t.
func sweep(t *testing.T, build func() Instance, want []uint64, only *replay) *sweeper {
	in := build()
	rec, err := in.at(replay{}, want, nil, 0)
	if err == nil && rec.span == 0 {
		err = errors.New("nothing to sweep (no tracked access, no byte carried)")
	}
	if want == nil {
		want = rec.got
	}
	s := &sweeper{build: build, want: want, in: in, t: t}
	if in.Kill == nil { // a span of heap accesses, not of bytes
		s.budget = replayBudget * rec.span
	}
	if err != nil {
		s.err = fmt.Errorf("uninterrupted: %v", err)
		return s
	}
	if only != nil {
		s.stop = *only
		s.run(s.stop, nil)
		return s
	}
	p := in.Preempt
	pre := []point{{}}
	if p != nil && !p.InResolve {
		pre = nil
		for k := range rec.own {
			pre = append(pre, point{inRun, uint64(k + 1)})
		}
	}
	for _, pp := range pre {
		tr := rec
		if pp.phase == inRun {
			tr = s.run(replay{preempt: pp}, nil)
		}
		for j := uint64(1); j <= tr.span; j++ { // where Cross selects, if it does
			if p == nil || p.InResolve && (p.Cross == nil || rec.crossed[j]) || pp.phase == inRun && rec.crossed[pp.k] {
				s.crash(replay{preempt: pp, crash: point{inRun, j}})
			}
		}
		if in.CrashAfter {
			s.crash(replay{preempt: pp, crash: point{phase: afterRun}})
		}
	}
	return s
}

// crash replays crash r, then each line set it gives: each line persisted
// alone and, with three lines or more, every line but each. InResolve, it
// then replays each set once per preemption point of its Resolve.
func (s *sweeper) crash(r replay) {
	tr := s.run(r, nil)
	dirty, sets := tr.dirty, []replay{r}
	for _, kind := range []persist{oneLine, allBut} {
		for _, l := range tr.dirty {
			if kind == oneLine || len(tr.dirty) > 2 {
				r.persist, r.line = kind, l
				sets = append(sets, r)
			}
		}
	}
	p := s.in.Preempt
	resolving := p != nil && p.InResolve
	for i, r := range sets {
		if i > 0 && (!resolving || p.Within == 0) {
			tr = s.run(r, dirty)
		}
		for k := 0; resolving && k < cmp.Or(p.Within, tr.resolve); k++ {
			r.preempt = point{inResolve, uint64(k + 1)}
			s.run(r, dirty)
		}
	}
}

// run replays r, unless the sweep already stopped, and counts it if it
// passed: a crash point if it crashes and, InResolve, is preempted.
func (s *sweeper) run(r replay, dirty []pmem.Addr) (tr trace) {
	if s.err != nil {
		return trace{}
	}
	var err error
	at := func() { tr, err = s.build().at(r, s.want, dirty, s.budget) }
	report := func(t *testing.T) {
		t.Helper()
		if err != nil {
			t.Fatalf("%v\nre-run: %s", err, Rerun(t))
		}
	}
	if s.t != nil && (s.in.Preempt != nil || r == s.stop) { // or the one asked for
		s.t.Run(r.String(), func(t *testing.T) { t.Helper(); at(); report(t) })
	} else if at(); err != nil && s.t != nil {
		s.t.Run(r.String(), report)
	}
	if err != nil {
		s.stop, s.err = r, err
		return tr
	}
	s.replays++
	if p := s.in.Preempt; r.crash.phase != none && (p == nil || !p.InResolve || r.preempt.phase != none) {
		s.points++
	}
	return tr
}

// trace is what a replay measured: its responses, the span of the crash
// axis in an uninterrupted Run, Proc 0's accesses in Run and in Resolve, the
// lines the crash left dirty and, recorded, where Cross crosses the axes.
type trace struct {
	got          []uint64
	span         uint64
	own, resolve int
	dirty        []pmem.Addr
	crossed      map[uint64]bool
}

// at runs replay r of the instance and holds it to want (nil: its own
// responses). dirty, when known, is the lines r's crash leaves dirty, which
// the replay that persisted none measured; budget bounds its Run, unless a
// system-wide crash is armed there, and its Resolve (0: unbounded).
func (in Instance) at(r replay, want []uint64, dirty []pmem.Addr, budget uint64) (tr trace, err error) {
	defer in.end()
	defer func() {
		// Recovery's attempt bound, say: one failing index, not a dead binary.
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic: %v", rec)
		}
	}()
	h, p := in.Heap, in.Preempt
	in.prepare()
	epoch, start := h.Epoch(), h.AccessCount()
	var carried func() uint64
	switch {
	case in.Kill != nil:
		carried = in.Kill(r.crash.k)
	case r.crash.phase != inRun:
	case in.Individual:
		h.Proc(0).ScheduleSelfCrash(r.crash.k)
	default:
		h.ScheduleCrashAt(start + r.crash.k)
	}
	bounded := budget > 0 && (r.crash.phase != inRun || in.Individual)
	if bounded {
		h.ScheduleCrashAt(start + budget + 1) // the access past the budget crashes
	}
	tp := in.tap(r.preempt, inRun, r == replay{} && p != nil && p.Cross != nil)
	crashed := !pmem.RunOp(func() { tr.got, err = in.Run() })
	tp.off()
	if bounded {
		h.DisarmCrash()
	}
	tr.span, tr.own, tr.crossed = h.AccessCount()-start, tp.n, tp.crossed
	fired := crashed || h.Epoch() != epoch
	switch {
	case carried != nil:
		tr.span = carried()
		fired = tr.span < r.crash.k
	case in.Individual:
		tr.span = uint64(tp.n)
	}
	// A crash in Run before its preemption point ends the phase: Resolve
	// runs Op itself, if at all.
	ran := tp.ran || crashed && r.preempt.phase == inRun
	switch {
	case err != nil:
		return tr, err
	case bounded && h.AccessCount()-start > budget:
		return tr, fmt.Errorf("the run went past %d heap accesses, %d times the uninterrupted run's", budget, replayBudget)
	case fired && r.crash.phase != inRun:
		return tr, errors.New("crashed with no crash armed")
	case !fired && r.crash.phase == inRun:
		return tr, errors.New("the fault never fired")
	case crashed || r.crash.phase == afterRun:
		var ranResolve bool
		if ranResolve, err = in.resolve(r, dirty, &tr, budget); err != nil {
			return tr, err
		}
		ran = ran || ranResolve
	}
	got := tr.got
	if r.preempt.phase != none {
		if !ran {
			return tr, errors.New("the preemption never ran")
		}
		if err = p.Check(got); err != nil {
			return tr, err
		}
		want = got // the history check stands in for want
	}
	if want == nil {
		want = got
	}
	if err = in.check(got, want); err == nil && in.After != nil {
		if msg := in.After(); msg != "" {
			err = fmt.Errorf("duplicate recovery: %s", msg)
		} else if msg := in.Verify(); msg != "" {
			err = fmt.Errorf("after duplicate recovery: %s", msg)
		}
	}
	return tr, err
}

// resolve resets the heap after r's crash, unless Individual, with r's
// line set persisted first, and runs Resolve, preempted where r says, within
// budget heap accesses (0: any number), measuring it into tr. It reports
// whether Op ran there.
func (in Instance) resolve(r replay, dirty []pmem.Addr, tr *trace, budget uint64) (ran bool, err error) {
	if in.Resolve == nil {
		return false, errors.New("crashed on the sweep's goroutine, and nothing resolves it")
	}
	h := in.Heap
	if !in.Individual {
		if in.Persist && dirty == nil && r.persist != oneLine {
			dirty = h.DivergedLines()
		}
		if r.persist == noLine {
			tr.dirty = dirty
		}
		lines := []pmem.Addr{r.line}
		switch i := slices.Index(dirty, r.line); {
		case r.persist == noLine:
			lines = nil
		case r.persist == allBut && i < 0:
			return false, fmt.Errorf("line %d was not dirty at the crash", r.line)
		case r.persist == allBut:
			lines = slices.Delete(slices.Clone(dirty), i, i+1)
		}
		for _, l := range lines {
			h.Proc(0).PWB(l) // Proc 0 saw the crash, or none came: its accesses pass
		}
		h.ResetAfterCrash()
	}
	tp := in.tap(r.preempt, inResolve, false)
	start := h.AccessCount()
	if budget > 0 {
		h.ScheduleCrashAt(start + budget + 1) // the access past the budget crashes
	}
	ok := pmem.RunOp(func() { tr.got, err = in.Resolve() })
	h.DisarmCrash()
	tp.off()
	switch tr.resolve = tp.n; {
	case !ok && budget > 0 && h.AccessCount()-start > budget:
		err = fmt.Errorf("recovery ran past %d heap accesses, %d times the uninterrupted run's", budget, replayBudget)
	case !ok && err == nil:
		err = errors.New("recovery crashed with no crash armed")
	}
	return tp.ran, err
}

// tap is one phase's access hook: it counts Proc 0's accesses, n, runs
// Preempt.Op before the one a replay preempts in that phase, and, recording,
// notes where Cross crosses the axes: at a preemption point, or, InResolve,
// at the crash offset of that access. Rows with neither Preempt nor
// Individual need none of it and install no hook.
type tap struct {
	h       *pmem.Heap
	n       int
	ran     bool
	crossed map[uint64]bool
}

func (in Instance) tap(at point, ph phase, record bool) *tap {
	tp := &tap{}
	if in.Preempt == nil && !in.Individual {
		return tp
	}
	h, p0 := in.Heap, in.Heap.Proc(0)
	tp.h = h
	base, start := p0.Stats(), h.AccessCount()
	if record {
		tp.crossed = map[uint64]bool{}
	}
	h.SetAccessHook(func(p *pmem.Proc) {
		if p != p0 {
			return
		}
		if tp.n++; record && in.Preempt.Cross(p.Stats().Sub(base)) {
			k := uint64(tp.n)
			if in.Preempt.InResolve && !in.Individual {
				k = h.AccessCount() - start + 1
			}
			tp.crossed[k] = true
		}
		if at.phase == ph && at.k == uint64(tp.n) {
			tp.ran = true
			pmem.RunOp(in.Preempt.Op) // a crash inside it: Proc 0's access sees it next
		}
	})
	return tp
}

// off removes the hook tap installed.
func (tp *tap) off() {
	if tp.h != nil {
		tp.h.SetAccessHook(nil)
	}
}

// step runs in as an operation before the swept one, on the heap the swept
// one will run on: with its fault armed at access off (0: none), resolved if
// it fired, its responses held to want (nil: none held) and its post-state to
// Verify. It returns the responses and the span of its run, in the accesses
// its fault counts (Proc 0's with Individual), which is the whole run's only
// if the fault did not fire.
func (in Instance) step(off uint64, want []uint64) (got []uint64, span uint64, err error) {
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
	tp, start := in.tap(point{}, inRun, false), in.Heap.AccessCount()
	fired := !pmem.RunOp(func() { got, err = in.Run() })
	tp.off()
	if span = in.Heap.AccessCount() - start; in.Individual {
		span = uint64(tp.n)
	}
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
	return got, span, err
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

// SweepTest runs Sweep as test t's row, logs how many replays and crash
// points it covered and returns the crash points. A row with Preempt runs
// each replay as t's subtest named by its printed form; any other row, whose
// crash points run to the thousands, only a failing one. That fails with the
// violation and its re-run line (Rerun); a failing uninterrupted run fails t.
// A -run pattern whose elements below t spell a replay, as that line's do,
// selects it: the instance is built for the uninterrupted run and it only.
func SweepTest(t *testing.T, build func() Instance, want []uint64) int {
	t.Helper()
	s := sweep(t, build, want, selected(flag.Lookup("test.run").Value.String(), t.Name()))
	if s.stop == (replay{}) && s.err != nil {
		t.Fatalf("%v\nre-run: %s", s.err, Rerun(t))
	}
	t.Logf("%d replays, %d crash points swept", s.replays, s.points)
	return s.points
}

// selected is the replay that the -run pattern's elements below the test
// named name spell, anchored or not, or nil.
func selected(pattern, name string) *replay {
	elems, depth := strings.Split(pattern, "/"), strings.Count(name, "/")+1
	for i := depth; i < len(elems); i++ {
		elems[i] = strings.TrimSuffix(strings.TrimPrefix(elems[i], "^"), "$")
	}
	if r, ok := parseReplay(strings.Join(elems[min(depth, len(elems)):], "/")); ok {
		return &r
	}
	return nil
}

// SweepAfter sweeps the last of a sequence of operations on every state the
// ones before it can leave, crashed or not. build returns the sequence, fresh
// and identical on every call: one Instance per operation, all on one heap,
// run in turn, each Verify checking the state after its own operation. A
// sequence of one is SweepTest's. Otherwise subtest "prefix-crash=j", for
// j = 1, 2, …, runs each operation before the last with its fault (the last
// one's kind) armed at its j-th tracked access and resolved if it fired,
// holds it to its uninterrupted responses and its Verify, and then sweeps the
// last one. The subtests are numbered from the uninterrupted runs of the
// earlier operations, before any of them: j goes up to their longest span,
// and one more, at which they all run uninterrupted. So the rows are the same
// whatever -run selects, and a re-run line selects its row alone. This covers
// the loops that crashed every operation of a sequence at one offset, and
// every offset of the last one besides. It returns the crash points of all
// the sweeps.
func SweepAfter(t *testing.T, build func() []Instance, want []uint64) int {
	t.Helper()
	steps := build()
	last := len(steps) - 1
	if last == 0 {
		steps[0].end()
		return SweepTest(t, func() Instance { return build()[0] }, want)
	}
	wants := make([][]uint64, last) // the earlier operations' uninterrupted responses
	var reach uint64                // and the longest of their spans
	for k, s := range steps[:last] {
		var span uint64
		var err error
		if wants[k], span, err = s.step(0, nil); err != nil {
			t.Fatalf("operation %d of %d, uninterrupted: %v\nre-run: %s", k+1, last+1, err, Rerun(t))
		}
		reach = max(reach, span)
	}
	steps[last].end()
	points := 0
	for j := uint64(1); j <= reach+1; j++ {
		ok := t.Run(fmt.Sprintf("prefix-crash=%d", j), func(t *testing.T) {
			t.Helper()
			points += SweepTest(t, func() Instance {
				steps := build()
				for k, s := range steps[:last] {
					if _, _, err := s.step(j, wants[k]); err != nil {
						t.Fatalf("operation %d of %d, fault at access %d: %v\nre-run: %s", k+1, last+1, j, err, Rerun(t))
					}
				}
				return steps[last]
			}, want)
		})
		if !ok {
			return points
		}
	}
	return points
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
