package pmem

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func newTracked(t *testing.T, procs int) *Heap {
	t.Helper()
	return NewHeap(Config{Words: 1 << 16, Procs: procs, Tracked: true})
}

func TestAllocEvenAlignedAndDistinct(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	seen := map[Addr]bool{}
	for i := 0; i < 1000; i++ {
		a := p.Alloc(3)
		if a == Null {
			t.Fatal("Alloc returned Null")
		}
		if a%2 != 0 {
			t.Fatalf("Alloc returned odd address %d", a)
		}
		if seen[a] {
			t.Fatalf("Alloc returned duplicate address %d", a)
		}
		seen[a] = true
	}
}

func TestAllocConcurrentDisjoint(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 20, Procs: 8, Tracked: false})
	var mu sync.Mutex
	all := map[Addr]int{}
	var wg sync.WaitGroup
	for id := 0; id < 8; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(id)
			local := make([]Addr, 0, 2000)
			for i := 0; i < 2000; i++ {
				local = append(local, p.Alloc(5))
			}
			mu.Lock()
			defer mu.Unlock()
			for _, a := range local {
				if prev, dup := all[a]; dup {
					t.Errorf("address %d allocated by both proc %d and %d", a, prev, id)
					return
				}
				all[a] = id
			}
		}(id)
	}
	wg.Wait()
}

func TestStoreLoadCAS(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	a := p.Alloc(1)
	p.Store(a, 7)
	if got := p.Load(a); got != 7 {
		t.Fatalf("Load = %d, want 7", got)
	}
	if got := p.CAS(a, 7, 9); got != 7 {
		t.Fatalf("successful CAS returned %d, want read value 7", got)
	}
	if got := p.Load(a); got != 9 {
		t.Fatalf("after CAS Load = %d, want 9", got)
	}
	if got := p.CAS(a, 7, 11); got != 9 {
		t.Fatalf("failed CAS returned %d, want current value 9", got)
	}
	if got := p.Load(a); got != 9 {
		t.Fatalf("failed CAS mutated value: %d", got)
	}
}

func TestUnpersistedWriteLostAtCrash(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	a := p.Alloc(1)
	p.Store(a, 1)
	p.PWB(a)
	p.PSync()
	p.Store(a, 2) // never flushed

	h.Crash()
	crashed := !RunOp(func() { p.Load(a) })
	if !crashed {
		t.Fatal("proc did not observe the crash")
	}
	h.ResetAfterCrash()
	if got := p.Load(a); got != 1 {
		t.Fatalf("after crash value = %d, want persisted 1", got)
	}
}

func TestPWBSynchronouslyDurable(t *testing.T) {
	// PWB models the paper's clflush: the line is written back before the
	// process continues, so a PWB'd store survives a crash even without a
	// following PSync.
	h := newTracked(t, 1)
	p := h.Proc(0)
	a := p.Alloc(1)
	p.Store(a, 5)
	p.PWB(a)

	h.Crash()
	RunOp(func() { p.Load(a) })
	h.ResetAfterCrash()
	if got := p.Load(a); got != 5 {
		t.Fatalf("PWB'd value lost at crash: %d", got)
	}
}

func TestPSyncPersistsWholeLine(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	base := p.Alloc(WordsPerLine)
	base = lineOf(base + WordsPerLine - 1) // a fully owned line
	for i := Addr(0); i < WordsPerLine; i++ {
		p.Store(base+i, uint64(100+i))
	}
	p.PWB(base) // one pwb covers the whole cache line
	p.PSync()
	for i := Addr(0); i < WordsPerLine; i++ {
		if got := h.ReadPersisted(base + i); got != uint64(100+i) {
			t.Fatalf("word %d persisted %d, want %d", i, got, 100+i)
		}
	}
}

func TestPWBCapturesValueAtFlushTime(t *testing.T) {
	// A store after the PWB is not covered by it (clflush semantics): the
	// persisted image holds the value at flush time.
	h := newTracked(t, 1)
	p := h.Proc(0)
	a := p.Alloc(1)
	p.Store(a, 1)
	p.PWB(a)
	p.Store(a, 2)
	p.PSync()
	if got := h.ReadPersisted(a); got != 1 {
		t.Fatalf("persisted %d, want 1 (flush-time value)", got)
	}
}

func TestPrivateCacheImmediatelyDurable(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 16, Procs: 1, Tracked: true, Model: PrivateCache})
	p := h.Proc(0)
	a := p.Alloc(1)
	p.Store(a, 42)
	if got := h.ReadPersisted(a); got != 42 {
		t.Fatalf("private-cache store not durable: persisted %d", got)
	}
	s0 := p.Stats()
	p.PWB(a)
	p.PSync()
	p.PBarrier(a)
	d := p.Stats().Sub(s0)
	if d.Flushes != 0 || d.Syncs != 0 || d.Barriers != 0 {
		t.Fatalf("private-cache persistence instructions counted: %+v", d)
	}
}

func TestCrashLosesOnlyUnflushedState(t *testing.T) {
	h := newTracked(t, 2)
	p0, p1 := h.Proc(0), h.Proc(1)
	a := p0.Alloc(WordsPerLine) // own line
	b := p0.Alloc(WordsPerLine) // own line
	p0.Store(a, 1)
	p0.PWB(a)      // durable
	p1.Store(b, 2) // never flushed: lost

	h.Crash()
	RunOp(func() { p0.Load(a) })
	RunOp(func() { p1.Load(b) })
	h.ResetAfterCrash()

	if got := h.ReadVolatile(a); got != 1 {
		t.Fatalf("flushed word lost: %d", got)
	}
	if got := h.ReadVolatile(b); got != 0 {
		t.Fatalf("unflushed word survived: %d", got)
	}
	// After reset, procs run again and can persist normally.
	p0.Store(a, 3)
	p0.PWB(a)
	p0.PSync()
	if got := h.ReadPersisted(a); got != 3 {
		t.Fatalf("post-crash persist failed: %d", got)
	}
}

func TestCrashPanicsOncePerProc(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	a := p.Alloc(1)
	h.Crash()
	if RunOp(func() { p.Store(a, 1) }) {
		t.Fatal("op completed during crash")
	}
	// The same proc does not re-panic before reset (it already unwound);
	// this lets recovery code of *other* heaps proceed and simplifies the
	// controller. After reset it runs normally.
	if !RunOp(func() { _ = p.crashed }) {
		t.Fatal("unexpected second panic")
	}
	h.ResetAfterCrash()
	if !RunOp(func() { p.Store(a, 2) }) {
		t.Fatal("op failed after reset")
	}
}

func TestStatsCounting(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 16, Procs: 1})
	p := h.Proc(0)
	a := p.Alloc(2)
	p.Store(a, 1)
	p.Load(a)
	p.CAS(a, 1, 2)
	p.PWB(a)
	p.PSync()
	p.PBarrier(a, a+1) // same cache line: 1 barrier, 1 fence
	p.PFence()
	s := p.Stats()
	if s.Stores != 1 || s.Loads != 1 || s.CASes != 1 {
		t.Fatalf("primitive counts wrong: %+v", s)
	}
	if s.Flushes != 1 {
		t.Fatalf("stand-alone flushes = %d, want 1 (barrier pwbs excluded)", s.Flushes)
	}
	if s.Barriers != 1 {
		t.Fatalf("barriers = %d, want 1", s.Barriers)
	}
	if s.Syncs != 1 {
		t.Fatalf("syncs = %d, want 1", s.Syncs)
	}
	if s.Fences != 2 { // one inside the barrier, one explicit
		t.Fatalf("fences = %d, want 2", s.Fences)
	}
}

func TestEvictionPersistsWithoutFlush(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 16, Procs: 1, Tracked: true, EvictEvery: 1, Seed: 1})
	p := h.Proc(0)
	a := p.Alloc(1)
	p.Store(a, 9) // EvictEvery=1 persists every store
	if got := h.ReadPersisted(a); got != 9 {
		t.Fatalf("eviction did not persist: %d", got)
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("eviction not counted")
	}
}

func TestPersistedNeverAheadWithoutWriteback(t *testing.T) {
	// Property: with no PWB/PSync and no eviction, the persisted image of a
	// word stays at its last explicitly persisted value no matter the
	// volatile history.
	h := newTracked(t, 1)
	p := h.Proc(0)
	f := func(vals []uint64) bool {
		a := p.Alloc(1)
		for _, v := range vals {
			p.Store(a, v)
		}
		return h.ReadPersisted(a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFlushSyncIdempotent(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	f := func(v uint64, repeats uint8) bool {
		a := p.Alloc(1)
		p.Store(a, v)
		for i := 0; i <= int(repeats%5); i++ {
			p.PWB(a)
			p.PSync()
		}
		return h.ReadPersisted(a) == v && h.ReadVolatile(a) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCASLinearizes(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 16, Procs: 4})
	a := h.Proc(0).Alloc(1)
	const perProc = 10000
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(id)
			for i := 0; i < perProc; i++ {
				for {
					old := p.Load(a)
					if p.CASBool(a, old, old+1) {
						break
					}
				}
			}
		}(id)
	}
	wg.Wait()
	if got := h.ReadVolatile(a); got != 4*perProc {
		t.Fatalf("counter = %d, want %d", got, 4*perProc)
	}
}

func TestModelString(t *testing.T) {
	if SharedCache.String() != "shared-cache" || PrivateCache.String() != "private-cache" {
		t.Fatal("Model.String broken")
	}
	if Model(9).String() == "" {
		t.Fatal("unknown model should still format")
	}
}

func TestLineOf(t *testing.T) {
	cases := []struct{ in, want Addr }{{0, 0}, {7, 0}, {8, 8}, {15, 8}, {16, 16}}
	for _, c := range cases {
		if got := lineOf(c.in); got != c.want {
			t.Fatalf("lineOf(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSpinItersPositive(t *testing.T) {
	if spinIters(0) != 0 {
		t.Fatal("zero duration should not spin")
	}
	if spinIters(DefaultPWBLatency) < 1 {
		t.Fatal("calibration produced non-positive spin count")
	}
}

func TestScheduleSelfCrashIndividualFailure(t *testing.T) {
	h := newTracked(t, 2)
	p0, p1 := h.Proc(0), h.Proc(1)
	a := p0.Alloc(1)
	b := p0.Alloc(1)
	p0.ScheduleSelfCrash(3)
	crashed := !RunOp(func() {
		p0.Store(a, 1) // access 1
		p0.Store(a, 2) // access 2
		p0.Store(a, 3) // access 3: crash fires here
		p0.Store(a, 4) // never reached
	})
	if !crashed {
		t.Fatal("individual crash did not fire")
	}
	// Other processes are unaffected — no system-wide crash in progress.
	if h.Crashing() {
		t.Fatal("individual failure escalated to a system crash")
	}
	if !RunOp(func() { p1.Store(b, 9) }) {
		t.Fatal("survivor was crashed too")
	}
	// The failed process resumes immediately (no Restart needed).
	if !RunOp(func() { p0.Store(a, 5) }) {
		t.Fatal("failed process could not resume")
	}
	if got := h.ReadVolatile(a); got != 5 {
		t.Fatalf("a = %d", got)
	}
}

func TestCancelSelfCrash(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	a := p.Alloc(1)
	p.ScheduleSelfCrash(2)
	p.CancelSelfCrash()
	if !RunOp(func() { p.Store(a, 1); p.Store(a, 2); p.Store(a, 3) }) {
		t.Fatal("cancelled self-crash still fired")
	}
}

func TestDisarmCrash(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	a := p.Alloc(1)
	h.ScheduleCrashAt(h.AccessCount() + 2)
	h.DisarmCrash()
	if !RunOp(func() { p.Store(a, 1); p.Store(a, 2); p.Store(a, 3) }) {
		t.Fatal("disarmed crash still fired")
	}
}

// announced reads back p's whole announcement as Announce's arguments.
func announced(p *Proc) (legs []Leg, cursor int, atomic, ok bool) {
	n, cursor, atomic, ok := p.Announcement()
	for i := 0; i < n; i++ {
		legs = append(legs, p.AnnouncedLeg(i))
	}
	return legs, cursor, atomic, ok
}

func TestAnnouncementRecordLifecycle(t *testing.T) {
	h := newTracked(t, 2)
	p := h.Proc(1)
	if _, _, _, ok := p.Announcement(); ok {
		t.Fatal("fresh heap reports an announcement")
	}
	want := []Leg{{StructID: 3, Kind: 7, Arg: 9}, {StructID: 255, Kind: 30, Arg: 1<<64 - 1, Flags: 1}}
	before := p.Stats().Flushes
	p.Announce(true, want...)
	if got := p.Stats().Flushes - before; got != 1 {
		t.Fatalf("announcing two legs cost %d pwbs, want 1 (header and legs 0-1 share a line)", got)
	}
	check := func(when string, wantCursor int) {
		t.Helper()
		legs, cursor, atomic, ok := announced(p)
		if !ok || !atomic || cursor != wantCursor || !slices.Equal(legs, want) {
			t.Fatalf("%s: announcement = (%+v, cursor %d, atomic %v, ok %v), want (%+v, %d, true, true)",
				when, legs, cursor, atomic, ok, want, wantCursor)
		}
	}
	check("after Announce", 0)
	// The single pwb makes the record crash-durable.
	h.Crash()
	h.ResetAfterCrash()
	check("across a crash", 0)
	// The stamped result slot, and with it the cursor it derives, are
	// durable once CloseLeg returns.
	p.CloseLeg(0, 42)
	h.Crash()
	h.ResetAfterCrash()
	check("after CloseLeg", 1)
	if got := p.LegResult(0); got != 42 {
		t.Fatalf("result slot 0 = %d, want 42", got)
	}
	// Per-proc isolation: proc 0 still has none.
	if _, _, _, ok := h.Proc(0).Announcement(); ok {
		t.Fatal("announcement leaked across procs")
	}
	p.ClearAnnounce()
	h.Crash()
	h.ResetAfterCrash()
	if _, _, _, ok := p.Announcement(); ok {
		t.Fatal("cleared announcement survived the crash")
	}
}

func TestAnnouncementPartialPersistInvalid(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	p.Announce(false, Leg{StructID: 1, Kind: 2, Arg: 3})
	// Overwrite with a new announcement whose pwb never happens, with the
	// leg words leaking to persistence via eviction ahead of the checksum:
	// the old sum must reject the mixed record after the crash.
	a := h.annAddr(0)
	p.Store(a+annLegs, 2<<legStructShift|5)
	p.Store(a+annLegs+1, 6)
	h.persistLine(a)                                                       // evict: new leg durable, but old checksum...
	p.Store(a+annSum, annCheck(annCheck(0, 1, 0), 2<<legStructShift|5, 6)) // never written back
	h.Crash()
	h.ResetAfterCrash()
	if legs, _, _, ok := announced(p); ok {
		t.Fatalf("mixed announcement validated: %+v", legs)
	}
}

// TestAnnouncementTornSubsets pins the property every admission shape's
// crash argument rests on, directly rather than through the every-offset
// sweeps: a record written over a valid older one, with any strict subset of
// its cache lines persisted when the crash hits, reads back as exactly the
// old record, no record, or (never, for a strict subset) the new record —
// not a mix of the two. The old record is one leg longer or shorter than the
// new one, so both "new lines beyond the old record" and "old lines beyond
// the new record" occur. The old record has every slot stamped, so it reads
// back with its full prefix and its responses, which the new record, raising
// the admission number, must not inherit. Every subset is enumerated up to 5
// lines (N = 16); MaxBatch's 17 lines are sampled by seed.
func TestAnnouncementTornSubsets(t *testing.T) {
	mk := func(n int, salt uint64) []Leg {
		legs := make([]Leg, n)
		for i := range legs {
			legs[i] = Leg{StructID: 1 + salt, Kind: uint64(i) + salt, Arg: uint64(i)*7 + salt<<32}
		}
		return legs
	}
	for _, n := range []int{1, 2, 16, MaxBatch} {
		for _, oldN := range []int{max(n-1, 1), min(n+1, MaxBatch)} {
			oldLegs, newLegs := mk(oldN, 100), mk(n, 200)
			lines := (annLegs + 2*n + WordsPerLine - 1) / WordsPerLine
			subsets := make([]uint64, 0, 64)
			if lines <= 5 {
				for m := uint64(0); m < 1<<lines-1; m++ {
					subsets = append(subsets, m)
				}
			} else {
				rng := rand.New(rand.NewSource(int64(n*100 + oldN)))
				for i := 0; i < 64; i++ {
					subsets = append(subsets, rng.Uint64()&(1<<lines-1)&^(1<<uint(rng.Intn(lines))))
				}
			}
			for _, mask := range subsets {
				h := newTracked(t, 1)
				p := h.Proc(0)
				p.Announce(true, oldLegs...)
				for i := 0; i < oldN-1; i++ {
					p.CloseLeg(i, uint64(9+i))
				}
				oldAdm := p.Admission()
				p.writeAnnouncement(false, newLegs)
				a := h.annAddr(0)
				for l := 0; l < lines; l++ {
					if mask>>l&1 == 1 {
						h.persistLine(a + Addr(l*WordsPerLine))
					}
				}
				h.Crash()
				h.ResetAfterCrash()
				legs, cursor, atomic, ok := announced(p)
				isOld := ok && atomic && cursor == oldN-1 && slices.Equal(legs, oldLegs) && p.Admission() == oldAdm
				for i := 0; isOld && i < cursor; i++ {
					isOld = p.LegResult(i) == uint64(9+i)
				}
				if ok && !isOld {
					t.Fatalf("N=%d over N=%d, lines %b persisted: read a record that is not the old one: %+v (cursor %d, atomic %v)",
						n, oldN, mask, legs, cursor, atomic)
				}
				if mask == 0 && !isOld {
					t.Fatalf("N=%d over N=%d, nothing persisted: the old record is gone", n, oldN)
				}
			}
		}
	}
}

// TestAnnouncementAdmissionEveryStore is the per-store sibling of
// TestAnnouncementTornSubsets, for the admission number the record is bound
// to: a record written over a valid older one is crashed after each of its
// stores, with the header line persisted at the crash. Whatever validates
// must be the old record — its legs, flag and stamped prefix — under the old
// admission number, or nothing; the new record, under the new number, only
// once every store has run, and then with none of the old stamped slots in
// its prefix. The identical cases are the ones that need the number inside the
// checksum: their old sum also covers the new legs.
func TestAnnouncementAdmissionEveryStore(t *testing.T) {
	legs := []Leg{{StructID: 1, Kind: 2, Arg: 3}, {StructID: 1, Kind: 4, Arg: 5}, {StructID: 2, Kind: 6, Arg: 7}}
	for _, c := range []struct {
		name     string
		old, new []Leg
	}{
		{"identical, one line", legs[:2], legs[:2]},
		{"identical, two lines", legs, legs},
		{"different", legs[:1], legs[:2]},
	} {
		stores := 0
		for k := uint64(1); ; k++ {
			h := newTracked(t, 1)
			p := h.Proc(0)
			p.Announce(false, c.old...)
			for i := 0; i < len(c.old)-1; i++ {
				p.CloseLeg(i, 9)
			}
			oldAdm, oldCursor := p.Admission(), len(c.old)-1
			h.ScheduleCrashAt(h.AccessCount() + k)
			done := RunOp(func() { p.writeAnnouncement(false, c.new) })
			h.DisarmCrash()
			h.persistLine(h.annAddr(0))
			h.Crash()
			h.ResetAfterCrash()
			got, cursor, atomic, ok := announced(p)
			adm := p.Admission()
			isOld := ok && adm == oldAdm && !atomic && cursor == oldCursor && slices.Equal(got, c.old)
			isNew := ok && adm == oldAdm+1 && !atomic && cursor == 0 && slices.Equal(got, c.new)
			switch {
			case done && !isNew:
				t.Fatalf("%s: after the last store read (%+v, cursor %d, atomic %v, ok %v) under admission %d, want the new record under %d",
					c.name, got, cursor, atomic, ok, adm, oldAdm+1)
			case !done && ok && !isOld:
				t.Fatalf("%s: crashed at access %d of the write, read (%+v, cursor %d, atomic %v) under admission %d, want the old record under %d or nothing",
					c.name, k, got, cursor, atomic, adm, oldAdm)
			case k == 1 && !isOld:
				t.Fatalf("%s: crashed before the first store: the old record is gone", c.name)
			}
			if done {
				break
			}
			stores++
		}
		if stores < 2*len(c.new)+4 {
			t.Fatalf("%s: only %d crash points; the sweep is not reaching every store", c.name, stores)
		}
	}
}

// TestLegResultEveryStore crashes a slot write after each of its accesses,
// with the slot's line persisted at the crash: the prefix must read i — slot
// i not stamped — or i+1 with slot i holding the new response, never a slot
// stamped under the current admission beside a stale response. The slot
// still holds a different response from the previous admission, stamped
// under its number, so a stamp stored ahead of the response would show.
//
// In the lazy rows the record is left pending with AnnounceLazy and slots 0
// to i with it (CarryLegResult), and what is crashed is the first install's
// sequence: the record stored and written back by a barrier, then the pending
// slots stored and written back by another (StoreLegResults). A crash before
// the first barrier must find the previous record under the previous number
// with its own responses, never with a new response in a slot it still reads
// as stamped, and a crash after it the new record with a prefix of the new
// responses.
func TestLegResultEveryStore(t *testing.T) {
	legs := []Leg{{StructID: 1, Kind: 2, Arg: 3}, {StructID: 1, Kind: 4, Arg: 5}, {StructID: 1, Kind: 6, Arg: 7}, {StructID: 1, Kind: 8, Arg: 9}}
	for _, lazy := range []bool{false, true} {
		for i := 0; i < len(legs)-1; i++ {
			points := 0
			for k := uint64(1); ; k++ {
				h := newTracked(t, 1)
				p := h.Proc(0)
				p.Announce(false, legs...)
				for j := 0; j < len(legs)-1; j++ {
					p.CloseLeg(j, 50+uint64(j))
				}
				oldAdm := p.Admission()
				write := func() { p.CloseLeg(i, 100+uint64(i)) }
				if lazy {
					p.AnnounceLazy(false, legs...)
					for j := 0; j <= i; j++ {
						p.CarryLegResult(j, 100+uint64(j))
					}
					write = func() {
						p.StoreAnnouncement()
						p.PBarrierAddrs(nil)
						p.StoreLegResults()
					}
				} else {
					p.Announce(false, legs...)
					for j := 0; j < i; j++ {
						p.CloseLeg(j, 100+uint64(j))
					}
				}
				h.ScheduleCrashAt(h.AccessCount() + k)
				done := RunOp(write)
				h.DisarmCrash()
				h.persistLine(lineOf(h.annAddr(0) + annResults + Addr(2*i)))
				h.Crash()
				h.ResetAfterCrash()
				n, cursor, _, ok := p.Announcement()
				old := p.Admission() == oldAdm
				switch {
				case !ok || n != len(legs):
					t.Fatalf("lazy %v, slot %d, crash at access %d: no valid record (n %d, ok %v)", lazy, i, k, n, ok)
				case old && (!lazy || done):
					t.Fatalf("lazy %v, slot %d, crash at access %d (write done %v): the record under the previous number survived", lazy, i, k, done)
				case old && cursor != len(legs)-1:
					t.Fatalf("lazy %v, slot %d, crash at access %d: the previous record reads cursor %d, want %d", lazy, i, k, cursor, len(legs)-1)
				case !old && lazy && (cursor > i+1 || done && cursor != i+1):
					t.Fatalf("lazy %v, slot %d, crash at access %d (write done %v): cursor %d", lazy, i, k, done, cursor)
				case !old && !lazy && (cursor != i && cursor != i+1 || done && cursor != i+1):
					t.Fatalf("lazy %v, slot %d, crash at access %d (write done %v): cursor %d", lazy, i, k, done, cursor)
				}
				want := uint64(100)
				if old {
					want = 50
				}
				for j := 0; j < cursor; j++ {
					if got := p.LegResult(j); got != want+uint64(j) {
						t.Fatalf("lazy %v, slot %d, crash at access %d: slot %d is stamped but holds %d, want %d", lazy, i, k, j, got, want+uint64(j))
					}
				}
				if done {
					break
				}
				points++
			}
			if points < 3 {
				t.Fatalf("lazy %v, slot %d: only %d crash points; the sweep is not reaching every store", lazy, i, points)
			}
		}
	}
}

// TestSyncScopeClosesOnWriteBacks pins what closing a sync scope costs: a
// scope in which nothing was written back closes without a psync — there is
// nothing for it to order — and one with a single write-back, a stand-alone
// pwb or a barrier, closes with exactly one. A record left pending in an empty
// scope is dropped with it: the admission number stays where it was.
func TestSyncScopeClosesOnWriteBacks(t *testing.T) {
	for _, c := range []struct {
		name  string
		body  func(p *Proc, a Addr)
		syncs uint64
	}{
		{"empty", func(*Proc, Addr) {}, 0},
		{"pending record", func(p *Proc, _ Addr) { p.AnnounceLazy(false, Leg{StructID: 1, Kind: 2, Arg: 3}) }, 0},
		{"one pwb", func(p *Proc, a Addr) { p.Store(a, 1); p.PWB(a) }, 1},
		{"one barrier", func(p *Proc, a Addr) { p.Store(a, 1); p.PBarrier(a) }, 1},
	} {
		h := newTracked(t, 1)
		p := h.Proc(0)
		a := p.Alloc(2)
		adm := p.Admission()
		p.OpenSyncScope()
		c.body(p, a)
		p.CloseSyncScope()
		if got := p.Stats().Syncs; got != c.syncs {
			t.Errorf("%s: the scope closed with %d psyncs, want %d", c.name, got, c.syncs)
		}
		if p.Admission() != adm {
			t.Errorf("%s: admission %d after the scope, want %d", c.name, p.Admission(), adm)
		}
	}
}
