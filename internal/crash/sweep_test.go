package crash

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"repro/internal/pmem"
)

// TestSweepCrashesEveryOffsetOnce runs Sweep on a toy admission, four stores
// into one word of a 1-Proc tracked heap with no write-back, recovered by
// running it again. Each offset from 1 to the span crashes exactly once:
// system-wide, which loses every store, or with Individual as Proc 0's
// failure, which keeps the stores before it and never moves Epoch. A replay
// shorter than the span is reported as a fault that never fired.
func TestSweepCrashesEveryOffsetOnce(t *testing.T) {
	for _, individual := range []bool{false, true} {
		hits := map[uint64]int{} // per offset, the replays that crashed there
		toy := func(n uint64) Instance {
			h := pmem.NewHeap(pmem.Config{Words: 1 << 14, Procs: 1, Tracked: true})
			p := h.Proc(0)
			a, epoch := p.Alloc(1), h.Epoch()
			var step uint64 // the store in progress
			run := func() ([]uint64, error) {
				for step = 1; step <= n; step++ {
					p.Store(a, step)
				}
				return nil, nil
			}
			resolve := func() ([]uint64, error) {
				hits[step]++
				seen := uint64(0)
				if individual {
					seen = step - 1
				}
				if got := p.Load(a); got != seen || individual && h.Epoch() != epoch {
					return nil, fmt.Errorf("store %d crashed: word %d, want %d; epoch %d, was %d", step, got, seen, h.Epoch(), epoch)
				}
				return run()
			}
			verify := func() string {
				if got := p.Load(a); got != n {
					return fmt.Sprintf("word %d, want %d", got, n)
				}
				return ""
			}
			return Instance{Heap: h, Run: run, Resolve: resolve, Verify: verify, Individual: individual}
		}
		replays, n, err := Sweep(func() Instance { return toy(4) }, nil)
		if got := fmt.Sprint(hits); err != nil || replays != 4 || n != 4 || got != "map[1:1 2:1 3:1 4:1]" {
			t.Fatalf("individual=%v: swept %d replays, %d crash points (%v), crashed per offset %s, want 4 and 4, each once", individual, replays, n, err, got)
		}
		builds := 0
		short := func() Instance { // the replays stop a store early
			if builds++; builds == 1 {
				return toy(4)
			}
			return toy(3)
		}
		if _, _, err := Sweep(short, nil); fmt.Sprint(err) != "off=4: the fault never fired" {
			t.Fatalf("individual=%v: a replay shorter than its span: %v", individual, err)
		}
	}
}

// prefixToy is two toy operations on one heap, three stores into one word
// and then two into another, for SweepAfter. crashed notes which of the
// first operation's stores a fault hit.
func prefixToy(crashed map[uint64]bool) (steps []Instance) {
	h := pmem.NewHeap(pmem.Config{Words: 1 << 14, Procs: 1, Tracked: true})
	p := h.Proc(0)
	for _, n := range []uint64{3, 2} {
		a := p.Alloc(1)
		var step uint64 // the store in progress
		run := func() ([]uint64, error) {
			for step = 1; step <= n; step++ {
				p.Store(a, step)
			}
			return []uint64{n}, nil
		}
		resolve := func() ([]uint64, error) {
			crashed[step] = crashed[step] || n == 3
			return run()
		}
		verify := func() string {
			if got := p.Load(a); got != n {
				return fmt.Sprintf("word %d, want %d", got, n)
			}
			return ""
		}
		steps = append(steps, Instance{Heap: h, Run: run, Resolve: resolve, Verify: verify})
	}
	return steps
}

// TestSweepAfterCrashesEachPrefixOffset runs SweepAfter on prefixToy: it
// sweeps the second operation after the first crashed at each of its three
// stores and after it ran uninterrupted, 4 × 2 crash points.
func TestSweepAfterCrashesEachPrefixOffset(t *testing.T) {
	crashed := map[uint64]bool{}
	if n := SweepAfter(t, func() []Instance { return prefixToy(crashed) }, []uint64{2}); n != 8 || fmt.Sprint(crashed) != "map[1:true 2:true 3:true]" {
		t.Fatalf("swept %d crash points, the first operation crashed at %v; want 8, at 1, 2 and 3", n, crashed)
	}
}

// loopToy is a one-Proc admission of four stores whose recovery loads one
// word forever.
func loopToy() Instance {
	h := pmem.NewHeap(pmem.Config{Words: 1 << 14, Procs: 1, Tracked: true})
	p := h.Proc(0)
	a := p.Alloc(1)
	return Instance{
		Heap: h,
		Run: func() ([]uint64, error) {
			for i := range uint64(4) {
				p.Store(a, i+1)
			}
			return nil, nil
		},
		Resolve: func() ([]uint64, error) {
			for p.Load(a) < 5 {
			}
			return nil, nil
		},
		Verify: func() string { return "" },
	}
}

// TestSweepBoundsResolve pins the bound on a replay's recovery: loopToy's
// first crash point fails, named by its replay, once its Resolve has made
// replayBudget times the run's 4 accesses.
func TestSweepBoundsResolve(t *testing.T) {
	_, _, err := Sweep(loopToy, nil)
	want := fmt.Sprintf("off=1: recovery ran past %d heap accesses, %d times the uninterrupted run's", 4*replayBudget, replayBudget)
	if fmt.Sprint(err) != want {
		t.Fatalf("a recovery that never returns: %v, want %q", err, want)
	}
}

// TestSweepBoundsRun pins the same bound on a replay's Run: Proc 1's
// operation, preempting Proc 0's four stores, spins on a word they have not
// written yet, and its first preemption point fails, named by its replay,
// once the run has made replayBudget times their 4 accesses.
func TestSweepBoundsRun(t *testing.T) {
	spin := func() Instance {
		h := pmem.NewHeap(pmem.Config{Words: 1 << 14, Procs: 2, Tracked: true})
		p0, p1 := h.Proc(0), h.Proc(1)
		a := p0.Alloc(1)
		return Instance{
			Heap: h,
			Run: func() ([]uint64, error) {
				for i := range uint64(4) {
					p0.Store(a, i+1)
				}
				return nil, nil
			},
			Verify: func() string { return "" },
			Preempt: &Preempt{
				Op: func() {
					for p1.Load(a) < 4 {
					}
				},
				Check: func([]uint64) error { return nil },
			},
		}
	}
	_, _, err := Sweep(spin, nil)
	want := fmt.Sprintf("preempt=1: the run went past %d heap accesses, %d times the uninterrupted run's", 4*replayBudget, replayBudget)
	if fmt.Sprint(err) != want {
		t.Fatalf("a preemption that never returns: %v, want %q", err, want)
	}
}

// TestSweepRowsChild holds the rows TestSweepRerunLines runs in a child
// process, under a -run pattern of its own; it runs nothing otherwise.
func TestSweepRowsChild(t *testing.T) {
	if os.Getenv("CRASH_SWEEP_CHILD") == "" {
		t.Skip("run by TestSweepRerunLines")
	}
	t.Run("after", func(t *testing.T) {
		SweepAfter(t, func() []Instance { return prefixToy(map[uint64]bool{}) }, []uint64{2})
	})
	t.Run("overrun", func(t *testing.T) { SweepTest(t, loopToy, nil) })
}

// TestSweepRerunLines runs this package's test binary again, under the -run
// patterns of re-run lines, and pins what they select: a SweepAfter row
// past the first, alone, and the replay a recovery overran in, failing again
// with the same re-run line.
func TestSweepRerunLines(t *testing.T) {
	child := func(pattern string) (string, error) {
		cmd := exec.Command(os.Args[0], "-test.run="+pattern, "-test.v", "-test.count=1")
		cmd.Env = append(os.Environ(), "CRASH_SWEEP_CHILD=1")
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	out, err := child("^TestSweepRowsChild$/^after$/^prefix-crash=2$")
	if rows := strings.Count(out, "crash points swept"); err != nil || rows != 1 || !strings.Contains(out, "--- PASS: TestSweepRowsChild/after/prefix-crash=2 ") {
		t.Fatalf("the re-run line of prefix-crash=2 ran %d rows (%v), want that one:\n%s", rows, err, out)
	}
	out, err = child("^TestSweepRowsChild$/^overrun$")
	line := regexp.MustCompile(`re-run: go test \S+ -run '(\^TestSweepRowsChild\$/\^overrun\$/\^off=1\$)' -count=1`).FindStringSubmatch(out)
	if err == nil || line == nil || !strings.Contains(out, "recovery ran past") {
		t.Fatalf("the overrun row (%v) printed no re-run line for off=1:\n%s", err, out)
	}
	again, err := child(line[1])
	if err == nil || !strings.Contains(again, "--- FAIL: TestSweepRowsChild/overrun/off=1 ") || !strings.Contains(again, line[0]) {
		t.Fatalf("the re-run line %s (%v) did not fail off=1 again:\n%s", line[0], err, again)
	}
}

// TestRerunQuotesNames pins Rerun's pattern on subtest names that are
// regexps: each element selects its own name element, and the leaf's selects
// no sibling and nothing the unquoted name would (the alias).
func TestRerunQuotesNames(t *testing.T) {
	aliases := map[string]string{"failed-insert+find": "failed-inserttfind", "a+b.c(d)": "aabXcd", "f(x)": "fx"}
	for name := range aliases {
		t.Run(name, func(t *testing.T) {
			elems, names := strings.Split(strings.Split(Rerun(t), "'")[1], "/"), strings.Split(t.Name(), "/")
			for i, e := range elems {
				if !regexp.MustCompile(e).MatchString(names[i]) {
					t.Errorf("element %q does not select %q", e, names[i])
				}
			}
			leaf := regexp.MustCompile(elems[len(elems)-1])
			for other, alias := range aliases {
				if other != name && leaf.MatchString(other) || leaf.MatchString(alias) {
					t.Errorf("leaf %q selects %q or %q", leaf, other, alias)
				}
			}
		})
	}
}

// twoProcToy is a two-Proc toy for the preemption axis: Proc 0's admission is
// n stores into one word, Proc 1's operation two stores into another, and a
// crash loses both, since nothing is written back.
type twoProcToy struct {
	p0, p1    *pmem.Proc
	a, b      pmem.Addr
	n         uint64
	step, op  uint64 // each Proc's store in progress; op is 3 once Proc 1's returned
	ops       int    // how many times Proc 1's operation started
	preempted uint64 // Proc 0's store in progress when it did
	crashed   uint64 // Proc 0's store in progress at the crash
	landed    string // where the crash landed: "p0:s" or "p1:s"
}

// preemptToy builds a fresh toy as a preempted Instance. Resolve notes where the
// crash landed and runs Proc 0's stores again, then, unless Op runs inside
// it, Proc 1's.
func preemptToy(n uint64, cross func(pmem.Stats) bool, inResolve bool) (*twoProcToy, Instance) {
	h := pmem.NewHeap(pmem.Config{Words: 1 << 14, Procs: 2, Tracked: true})
	x := &twoProcToy{p0: h.Proc(0), p1: h.Proc(1), n: n}
	x.a, x.b = x.p0.Alloc(1), x.p0.Alloc(1)
	run := func() ([]uint64, error) {
		for x.step = 1; x.step <= n; x.step++ {
			x.p0.Store(x.a, x.step)
		}
		return []uint64{n}, nil
	}
	op := func() {
		for x.op = 1; x.op <= 2; x.op++ {
			x.p1.Store(x.b, x.op)
		}
	}
	return x, Instance{
		Heap: h,
		Run:  run,
		Resolve: func() ([]uint64, error) {
			x.crashed, x.landed = x.step, fmt.Sprintf("p0:%d", x.step)
			if x.op == 1 || x.op == 2 {
				x.landed = fmt.Sprintf("p1:%d", x.op)
			}
			got, err := run()
			if !inResolve {
				op()
			}
			return got, err
		},
		Verify: func() string {
			if a, b := x.p0.Load(x.a), x.p0.Load(x.b); a != n || x.ops > 0 && b != 2 {
				return fmt.Sprintf("words %d and %d, want %d and 2", a, b, n)
			}
			return ""
		},
		Preempt: &Preempt{
			Op: func() {
				x.ops++
				x.preempted = x.step
				op()
			},
			Check: func([]uint64) error {
				if x.ops > 1 || x.ops == 0 && x.landed == "" {
					return fmt.Errorf("Proc 1's operation ran %d times", x.ops)
				}
				return nil
			},
			InResolve: inResolve,
			Cross:     cross,
		},
	}
}

// TestSweepPreemptsEveryAccessOnce pins the preemption axis on the toy: every
// access k of Proc 0's from 1 to the span is preempted exactly once, Proc 1's
// operation running once in each, and a replay shorter than k reports that
// the preemption never ran. Crossed at the access after Proc 0's second
// store, a crash at each access of the preempted run lands, in every repeat,
// on that access: Proc 0's first two stores, Proc 1's two, then Proc 0's
// last two. InResolve preempts every access of the Resolve after every crash
// offset once. A violation is named by its replay.
func TestSweepPreemptsEveryAccessOnce(t *testing.T) {
	hits := map[uint64]int{} // per preemption point, the replays preempted there
	count := func(x *twoProcToy, in Instance) Instance {
		op := in.Preempt.Op
		in.Preempt.Op = func() { op(); hits[10*x.crashed+x.preempted]++ }
		return in
	}
	replays, n, err := Sweep(func() Instance { return count(preemptToy(4, nil, false)) }, nil)
	if err != nil || replays != 4 || n != 0 || fmt.Sprint(hits) != "map[1:1 2:1 3:1 4:1]" {
		t.Fatalf("%d replays, %d crash points (%v), preempted per access %v, want 4 and 0, each of 1..4 once", replays, n, err, hits)
	}
	builds := 0
	short := func() Instance { // the replays stop a store early
		if builds++; builds == 1 {
			_, in := preemptToy(4, nil, false)
			return in
		}
		_, in := preemptToy(3, nil, false)
		return in
	}
	if _, _, err := Sweep(short, nil); fmt.Sprint(err) != "preempt=4: the preemption never ran" {
		t.Fatalf("a replay shorter than its preemption point: %v", err)
	}

	third := func(st pmem.Stats) bool { return st.Stores == 2 }
	want := "[p0:1 p0:2 p1:1 p1:2 p0:3 p0:4]"
	for i := range 3 {
		var landed []string // per crash, in sweep order, where it landed
		replays, n, err := Sweep(func() Instance {
			x, in := preemptToy(4, third, false)
			verify := in.Verify
			in.Verify = func() string {
				if x.landed != "" {
					landed = append(landed, x.landed)
				}
				return verify()
			}
			return in
		}, nil)
		if err != nil || replays != 10 || n != 6 || fmt.Sprint(landed) != want {
			t.Fatalf("repeat %d, crossed at the third access: %d replays, %d crash points (%v) landing at %v, want 10 and 6 at %s", i+1, replays, n, err, landed, want)
		}
	}
	_, _, err = Sweep(func() Instance {
		x, in := preemptToy(4, third, false)
		in.Verify = func() string {
			if x.landed == "p1:2" {
				return "crashed at Proc 1's second store"
			}
			return ""
		}
		return in
	}, nil)
	if fmt.Sprint(err) != "preempt=3/off=4: crashed at Proc 1's second store" {
		t.Fatalf("a crossed violation reads %q", err)
	}

	clear(hits)
	replays, n, err = Sweep(func() Instance { return count(preemptToy(4, nil, true)) }, nil)
	if err != nil || replays != 20 || n != 16 || len(hits) != 16 {
		t.Fatalf("InResolve: %d replays, %d crash points (%v), preempted %v, want 20 and 16, each (offset, access) once", replays, n, err, hits)
	}
	for at, c := range hits {
		if c != 1 || at/10 < 1 || at/10 > 4 || at%10 < 1 || at%10 > 4 {
			t.Fatalf("InResolve: preempted %v, want each (offset 1..4, access 1..4) once", hits)
		}
	}
	builds = 0
	_, _, err = Sweep(func() Instance {
		if builds++; builds == 1 {
			_, in := preemptToy(4, nil, true)
			return in
		}
		x, in := preemptToy(4, nil, true)
		verify := in.Verify
		in.Verify = func() string {
			if x.crashed == 2 && x.preempted == 3 {
				return "preempted at the third store after a crash at the second"
			}
			return verify()
		}
		return in
	}, nil)
	if fmt.Sprint(err) != "off=2/preempt=3: preempted at the third store after a crash at the second" {
		t.Fatalf("an InResolve violation reads %q", err)
	}
}

// lineSetToy returns the build of a toy whose recovery grows with what
// persisted: Proc 0 stores into words on two lines of their own, and Resolve
// loads both, stores once more for each that persisted, and stores both
// again. Proc 1's operation, InResolve, notes in hits where it ran: the
// crash, the lines persisted and the access of Resolve.
func lineSetToy(hits map[string]int, within int) func() Instance {
	return func() Instance {
		h := pmem.NewHeap(pmem.Config{Words: 1 << 14, Procs: 2, Tracked: true})
		p0, p1 := h.Proc(0), h.Proc(1)
		a := (p0.Alloc(3*pmem.WordsPerLine) + pmem.WordsPerLine - 1) &^ (pmem.WordsPerLine - 1)
		c, b := a+pmem.WordsPerLine, p0.Alloc(1)
		var step, crashed, persisted uint64
		var base pmem.Stats
		run := func() ([]uint64, error) {
			for step = 1; step <= 2; step++ {
				p0.Store(a+pmem.Addr(step-1)*pmem.WordsPerLine, 1)
			}
			return []uint64{1}, nil
		}
		return Instance{
			Heap: h,
			Run:  run,
			Resolve: func() ([]uint64, error) {
				base, crashed, persisted = p0.Stats(), step, h.ReadPersisted(a)+h.ReadPersisted(c)
				for range p0.Load(a) + p0.Load(c) {
					p0.Store(b, 1)
				}
				return run()
			},
			Verify:  func() string { return "" },
			Persist: true,
			Preempt: &Preempt{
				Op: func() {
					st := p0.Stats().Sub(base)
					hits[fmt.Sprintf("%d/%d/%d", crashed, persisted, st.Loads+st.Stores+1)]++
					p1.Store(b, 2)
				},
				Check:     func([]uint64) error { return nil },
				Within:    within,
				InResolve: true,
			},
		}
	}
}

// TestSweepPreemptsResolveInEveryLineSet pins InResolve under Persist on the
// line-set toy. A crash at the second store leaves the first line dirty, so
// it is replayed with none and with that line persisted, and the second
// Resolve is an access longer. Each (crash, line set, access of that set's
// Resolve) is preempted exactly once; Within 1 preempts each (crash, line
// set) once, at Resolve's first access, and Within 5 reports the Resolve that
// makes 4 accesses. The axes compose: Cross selecting the access after the
// first store crashes only there, and preempts its Resolves the same way; a
// preempted toy whose fault is a cut (Kill) is cut at every byte of the run
// preempted at the point Cross selects.
func TestSweepPreemptsResolveInEveryLineSet(t *testing.T) {
	hits := map[string]int{} // per (crash, lines persisted, access of Resolve), the replays preempted there
	replays, n, err := Sweep(lineSetToy(hits, 0), nil)
	want := "map[1/0/1:1 1/0/2:1 1/0/3:1 1/0/4:1 2/0/1:1 2/0/2:1 2/0/3:1 2/0/4:1 2/1/1:1 2/1/2:1 2/1/3:1 2/1/4:1 2/1/5:1]"
	if err != nil || replays != 16 || n != 13 || fmt.Sprint(hits) != want {
		t.Fatalf("InResolve under Persist: %d replays, %d crash points (%v), preempted at %v, want 16 and 13 at %s", replays, n, err, hits, want)
	}
	clear(hits)
	replays, n, err = Sweep(lineSetToy(hits, 1), nil)
	if want := "map[1/0/1:1 2/0/1:1 2/1/1:1]"; err != nil || replays != 5 || n != 3 || fmt.Sprint(hits) != want {
		t.Fatalf("InResolve within Resolve's first access: %d replays, %d crash points (%v), preempted at %v, want 5 and 3 at %s", replays, n, err, hits, want)
	}
	if _, _, err := Sweep(lineSetToy(hits, 5), nil); fmt.Sprint(err) != "off=1/preempt=5: the preemption never ran" {
		t.Fatalf("InResolve within more accesses than a Resolve makes: %v", err)
	}

	clear(hits)
	replays, n, err = Sweep(func() Instance {
		in := lineSetToy(hits, 0)()
		in.Preempt.Cross = func(st pmem.Stats) bool { return st.Stores == 1 }
		return in
	}, nil)
	want = "map[2/0/1:1 2/0/2:1 2/0/3:1 2/0/4:1 2/1/1:1 2/1/2:1 2/1/3:1 2/1/4:1 2/1/5:1]"
	if err != nil || replays != 11 || n != 9 || fmt.Sprint(hits) != want {
		t.Fatalf("InResolve with Cross: %d replays, %d crash points (%v), preempted at %v, want 11 and 9 at %s", replays, n, err, hits, want)
	}

	var cuts []string // per cut, the store Proc 1's operation preempted and the bytes carried
	replays, n, err = Sweep(func() Instance {
		x, in := preemptToy(4, func(st pmem.Stats) bool { return st.Stores == 2 }, false)
		cut := uint64(0)
		in.Kill = func(off uint64) func() uint64 {
			cut = off
			return func() uint64 {
				if cut > 0 {
					cuts = append(cuts, fmt.Sprintf("%d:%d", x.preempted, cut-1))
					return cut - 1
				}
				return x.n
			}
		}
		return in
	}, nil)
	if want := "[3:0 3:1 3:2 3:3]"; err != nil || replays != 8 || n != 4 || fmt.Sprint(cuts) != want {
		t.Fatalf("Preempt with Kill: %d replays, %d crash points (%v), cut at %v, want 8 and 4 at %s", replays, n, err, cuts, want)
	}
}

// seen is what the rerun toy observed in one replay: Proc 0's store in
// progress at the crash (5: after Run; 0: none), which of its four lines
// persisted at it, a bit each, and where Proc 1's operation ran: before
// which of Proc 0's stores in Run, or before which of its accesses in Resolve.
type seen struct{ crash, persisted, preempt, resolve uint64 }

// rerunToy builds a toy that fails exactly at the replay that sees fail:
// Proc 0 stores into one word on each of four cache lines, and Resolve notes
// which persisted and stores all four again. Proc 1's operation, a store on a
// fifth line, runs in Run (crossed at Proc 0's second access) or in Resolve,
// or the row has no Preempt; every row has Persist and CrashAfter. It
// returns the first word's address: each line's is WordsPerLine further.
func rerunToy(fail seen, preempt string) (Instance, pmem.Addr) {
	h := pmem.NewHeap(pmem.Config{Words: 1 << 14, Procs: 2, Tracked: true})
	p0, p1 := h.Proc(0), h.Proc(1)
	a := (p0.Alloc(6*pmem.WordsPerLine) + pmem.WordsPerLine - 1) &^ (pmem.WordsPerLine - 1)
	var o seen
	var step uint64 // Proc 0's store in progress, in Run or in Resolve
	resolving := false
	stores := func() ([]uint64, error) {
		for step = 1; step <= 4; step++ {
			p0.Store(a+pmem.Addr(step-1)*pmem.WordsPerLine, 1)
		}
		return nil, nil
	}
	in := Instance{
		Heap: h,
		Run:  stores,
		Resolve: func() ([]uint64, error) {
			o.crash = step
			for i := range pmem.Addr(4) {
				if h.ReadPersisted(a+i*pmem.WordsPerLine) != 0 {
					o.persisted |= 1 << i
				}
			}
			resolving = true
			return stores()
		},
		Verify: func() string {
			if o == fail {
				return "the one failing replay"
			}
			return ""
		},
		Persist:    true,
		CrashAfter: true,
	}
	if preempt != "" {
		in.Preempt = &Preempt{
			Op: func() {
				if resolving {
					o.resolve = step
				} else {
					o.preempt = step
				}
				p1.Store(a+4*pmem.WordsPerLine, 1)
			},
			Check:     func([]uint64) error { return nil },
			InResolve: preempt == "resolve",
		}
		if preempt == "run" {
			in.Preempt.Cross = func(st pmem.Stats) bool { return st.Stores == 1 }
		}
	}
	return in, a
}

// TestSweepRerunsOneReplay fails the rerun toy at one replay of each shape.
// Sweep names the violation by the replay's printed form, which parses back
// to the same replay; the -run pattern Rerun prints for it selects it; and
// that sweep builds the instance twice, for the uninterrupted run and that
// replay, and fails there again. A pattern that ends at the row, or spells
// no replay below it, selects none.
func TestSweepRerunsOneReplay(t *testing.T) {
	for _, pattern := range []string{"", "^T$/^row$", "T/row/off", "T/row/off=3/off=2", "T/row/line=5/off=3"} {
		if r := selected(pattern, "T/row"); r != nil {
			t.Errorf("pattern %q selects %v, want none", pattern, r)
		}
	}
	_, a := rerunToy(seen{}, "")
	line := func(i pmem.Addr) pmem.Addr { return a + i*pmem.WordsPerLine }
	for _, c := range []struct {
		preempt string
		fail    seen
		name    string
	}{
		{"", seen{crash: 2}, "off=2"},
		{"", seen{crash: 2, persisted: 1}, fmt.Sprintf("off=2/line=%d", line(0))},
		{"", seen{crash: 4, persisted: 0b101}, fmt.Sprintf("off=4/all-but=%d", line(1))},
		{"run", seen{preempt: 3}, "preempt=3"},
		{"run", seen{preempt: 2, crash: 3}, "preempt=2/off=4"},
		{"resolve", seen{crash: 2, resolve: 3}, "off=2/preempt=3"},
		{"run", seen{preempt: 1, crash: 5, persisted: 0b10}, fmt.Sprintf("preempt=1/off=after/line=%d", line(1))},
	} {
		builds := 0
		build := func() Instance {
			builds++
			in, _ := rerunToy(c.fail, c.preempt)
			return in
		}
		s := sweep(nil, build, nil, nil)
		if got := fmt.Sprint(s.stop); s.err == nil || got != c.name {
			t.Errorf("%s: the sweep failed at %q (%v), want %q", c.name, got, s.err, c.name)
			continue
		}
		if r, ok := parseReplay(c.name); !ok || r != s.stop {
			t.Errorf("%s: parses back to %+v (%v), want %+v", c.name, r, ok, s.stop)
		}
		elems := strings.Split("TestSweepRerunsOneReplay/row/"+c.name, "/")
		for i, e := range elems {
			elems[i] = "^" + regexp.QuoteMeta(e) + "$"
		}
		r := selected(strings.Join(elems, "/"), "TestSweepRerunsOneReplay/row")
		if r == nil || *r != s.stop {
			t.Errorf("%s: the re-run pattern selects %v, want it", c.name, r)
			continue
		}
		builds = 0
		if s := sweep(nil, build, nil, r); s.err == nil || s.stop != *r || builds != 2 {
			t.Errorf("%s re-run: %d builds, failing at %v (%v); want 2, failing there", c.name, builds, s.stop, s.err)
		}
	}
}
