package crash

import (
	"fmt"
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
		n, err := Sweep(func() Instance { return toy(4) }, nil)
		if got := fmt.Sprint(hits); err != nil || n != 4 || got != "map[1:1 2:1 3:1 4:1]" {
			t.Fatalf("individual=%v: swept %d crash points (%v), crashed per offset %s, want 4, each once", individual, n, err, got)
		}
		builds := 0
		short := func() Instance { // the replays stop a store early
			if builds++; builds == 1 {
				return toy(4)
			}
			return toy(3)
		}
		if _, err := Sweep(short, nil); fmt.Sprint(err) != "off=4: the fault never fired" {
			t.Fatalf("individual=%v: a replay shorter than its span: %v", individual, err)
		}
	}
}

// TestSweepAfterCrashesEachPrefixOffset runs SweepAfter on two toy
// operations on one heap, three stores into one word and then two into
// another: it sweeps the second after the first crashed at each of its three
// stores and after it ran uninterrupted, 4 × 2 crash points.
func TestSweepAfterCrashesEachPrefixOffset(t *testing.T) {
	crashed := map[uint64]bool{} // the first operation's stores a fault hit
	build := func() (steps []Instance) {
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
	if n := SweepAfter(t, build, []uint64{2}); n != 8 || fmt.Sprint(crashed) != "map[1:true 2:true 3:true]" {
		t.Fatalf("swept %d crash points, the first operation crashed at %v; want 8, at 1, 2 and 3", n, crashed)
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
