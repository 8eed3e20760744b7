package isb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/crash"
	"repro/internal/pmem"
)

func newTrackedHeap(procs int) *pmem.Heap {
	return pmem.NewHeap(pmem.Config{Words: 1 << 16, Procs: procs, Tracked: true})
}

// crashAndReset discards h's volatile image, as a system-wide crash does.
func crashAndReset(h *pmem.Heap) {
	h.Crash()
	h.ResetAfterCrash()
}

func TestAnnouncementRecordLifecycle(t *testing.T) {
	h := newTrackedHeap(2)
	p := h.Proc(1)
	if _, ok := ReadRecord(p); ok {
		t.Fatal("fresh heap reports an announcement")
	}
	want := []Leg{{StructID: 3, Kind: 7, Arg: 9}, {StructID: 255, Kind: 30, Arg: 1<<64 - 1, Flags: 1}}
	before := p.Stats().Flushes
	Announce(p, true, want...)
	if got := p.Stats().Flushes - before; got != 1 {
		t.Fatalf("announcing two legs cost %d pwbs, want 1 (header and legs 0-1 share a line)", got)
	}
	check := func(when string, wantCursor int) {
		t.Helper()
		rec, ok := ReadRecord(p)
		if !ok || !rec.Atomic || rec.Cursor != wantCursor || !slices.Equal(rec.Legs, want) {
			t.Fatalf("%s: announcement = (%+v, ok %v), want (%+v, cursor %d, atomic)", when, rec, ok, want, wantCursor)
		}
	}
	check("after Announce", 0)
	// The single pwb makes the record crash-durable.
	crashAndReset(h)
	check("across a crash", 0)
	// The stamped result slot, and with it the cursor it derives, are
	// durable once CloseLeg returns.
	CloseLeg(p, 0, 42)
	crashAndReset(h)
	check("after CloseLeg", 1)
	if rec, _ := ReadRecord(p); rec.Results[0] != 42 {
		t.Fatalf("result slot 0 = %d, want 42", rec.Results[0])
	}
	// Per-proc isolation: proc 0 still has none.
	if _, ok := ReadRecord(h.Proc(0)); ok {
		t.Fatal("announcement leaked across procs")
	}
	Announce(p, false)
	crashAndReset(h)
	if _, ok := ReadRecord(p); ok {
		t.Fatal("cleared announcement survived the crash")
	}
}

func TestAnnouncementPartialPersistInvalid(t *testing.T) {
	h := newTrackedHeap(1)
	p := h.Proc(0)
	Announce(p, false, Leg{StructID: 1, Kind: 2, Arg: 3})
	// Overwrite with a new announcement whose pwb never happens, with the
	// leg words leaking to persistence via eviction ahead of the checksum:
	// the old sum must reject the mixed record after the crash.
	a := p.Region()
	p.Store(a+annLegs, 2<<legStructShift|5)
	p.Store(a+annLegs+1, 6)
	p.PWB(a)                                                               // evict: new leg durable, but old checksum...
	p.Store(a+annSum, annCheck(annCheck(0, 1, 0), 2<<legStructShift|5, 6)) // never written back
	crashAndReset(h)
	if rec, ok := ReadRecord(p); ok {
		t.Fatalf("mixed announcement validated: %+v", rec.Legs)
	}
}

// TestAnnouncementTornSubsets pins the property every admission shape's
// crash argument rests on, directly rather than through the every-offset
// sweeps: a record written over a valid older one, with any strict subset of
// its cache lines persisted when the crash hits — its header's and those of
// the prefix it binds — reads back as exactly the old record, no record, or
// (never, for a strict subset) the new record — not a mix of the two. The old
// record is one leg longer or shorter than the new one, so both "new lines
// beyond the old record" and "old lines beyond the new record" occur. The old
// record has every slot stamped, so it reads back with its full prefix and
// its responses, which the new record, raising the admission number, must
// not inherit. Then a third record, with no prefix and under the number the
// torn one may have left for reuse, is written back whole: it must read with
// cursor 0, whatever slots the torn record persisted in its area. Every
// subset is enumerated up to 7 lines (N = 16: 5 lines of header and legs, 2
// of prefix slots); MaxBatch's 19 lines are sampled by seed.
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
			prefix := make([]uint64, min(n-1, 5))
			for i := range prefix {
				prefix[i] = uint64(300 + i)
			}
			var lines []pmem.Addr
			for l := pmem.Addr(0); l < annLegs+2*pmem.Addr(n); l += pmem.WordsPerLine {
				lines = append(lines, l)
			}
			for i := range prefix {
				if l := annResults + (pmem.Addr(2*i) &^ (pmem.WordsPerLine - 1)); !slices.Contains(lines, l) {
					lines = append(lines, l) // the new record's area, for an odd old admission
				}
			}
			subsets := make([]uint64, 0, 1<<7)
			if len(lines) <= 7 {
				for m := uint64(0); m < 1<<len(lines)-1; m++ {
					subsets = append(subsets, m)
				}
			} else {
				rng := rand.New(rand.NewSource(int64(n*100 + oldN)))
				for i := 0; i < 64; i++ {
					subsets = append(subsets, rng.Uint64()&(1<<len(lines)-1)&^(1<<uint(rng.Intn(len(lines)))))
				}
			}
			for _, mask := range subsets {
				h := newTrackedHeap(1)
				p := h.Proc(0)
				Announce(p, true, oldLegs...)
				for i := 0; i < oldN-1; i++ {
					CloseLeg(p, i, uint64(9+i))
				}
				oldAdm := Admission(p)
				if oldAdm%2 != 1 {
					t.Fatalf("old admission %d: the slot lines above assume an odd one", oldAdm)
				}
				writeRecord(p, false, newLegs, prefix)
				for l, off := range lines {
					if mask>>l&1 == 1 {
						p.PWB(p.Region() + off)
					}
				}
				crashAndReset(h)
				rec, ok := ReadRecord(p)
				isOld := ok && rec.Atomic && rec.Cursor == oldN-1 && slices.Equal(rec.Legs, oldLegs) && Admission(p) == oldAdm
				for i := 0; isOld && i < rec.Cursor; i++ {
					isOld = rec.Results[i] == uint64(9+i)
				}
				if ok && !isOld {
					t.Fatalf("N=%d over N=%d, lines %b persisted: read a record that is not the old one: %+v", n, oldN, mask, rec)
				}
				if mask == 0 && !isOld {
					t.Fatalf("N=%d over N=%d, nothing persisted: the old record is gone", n, oldN)
				}
				end := writeRecord(p, false, newLegs, nil)
				for line := p.Region(); line < end; line += pmem.WordsPerLine {
					p.PWB(line)
				}
				crashAndReset(h)
				if rec, ok := ReadRecord(p); !ok || rec.Cursor != 0 || !slices.Equal(rec.Legs, newLegs) {
					t.Fatalf("N=%d over N=%d, lines %b persisted, then rewritten without a prefix: read (%+v, ok %v), want the legs at cursor 0", n, oldN, mask, rec, ok)
				}
			}
		}
	}
}

// TestAnnouncementAdmissionEveryStore is the per-store sibling of
// TestAnnouncementTornSubsets, for the admission number the record is bound
// to: a record written over a valid older one is crashed at each of its
// accesses (crash.Sweep), with each dirty line persisted at the crash, and
// each complement. Whatever validates must be the old record — its legs,
// flag and stamped prefix — under the old admission number, or nothing; the
// new record, under the new number, only once every store has run and its
// header line is written back, and then with none of the old stamped slots
// in its prefix. The identical cases are the ones that need the number
// inside the checksum: their old sum also covers the new legs.
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
		t.Run(c.name, func(t *testing.T) {
			n := crash.SweepTest(t, func() crash.Instance {
				h := newTrackedHeap(1)
				p := h.Proc(0)
				Announce(p, false, c.old...)
				for i := 0; i < len(c.old)-1; i++ {
					CloseLeg(p, i, 9)
				}
				oldAdm, oldCursor := Admission(p), len(c.old)-1
				var start, crashedAt uint64 // crashedAt: the access of the write that crashed, if one did
				return crash.Instance{
					Heap:    h,
					Prepare: func() { start = h.AccessCount() },
					Run:     func() ([]uint64, error) { writeRecord(p, false, c.new, nil); return nil, nil },
					Resolve: func() ([]uint64, error) { crashedAt = h.AccessCount() - start; return nil, nil },
					Verify: func() string {
						if crashedAt == 0 {
							p.PWB(p.Region())
							crashAndReset(h)
						}
						rec, ok := ReadRecord(p)
						adm := Admission(p)
						isOld := ok && adm == oldAdm && !rec.Atomic && rec.Cursor == oldCursor && slices.Equal(rec.Legs, c.old)
						isNew := ok && adm == oldAdm+1 && !rec.Atomic && rec.Cursor == 0 && slices.Equal(rec.Legs, c.new)
						switch {
						case crashedAt == 0 && !isNew:
							return fmt.Sprintf("after the last store read (%+v, ok %v) under admission %d, want the new record under %d",
								rec, ok, adm, oldAdm+1)
						case crashedAt > 0 && ok && !isOld:
							return fmt.Sprintf("crashed at access %d of the write, read %+v under admission %d, want the old record under %d or nothing",
								crashedAt, rec, adm, oldAdm)
						case crashedAt == 1 && !isOld:
							return "crashed before the first store: the old record is gone"
						}
						return ""
					},
					Persist: true,
				}
			}, nil)
			if n < 2*len(c.new)+4 {
				t.Fatalf("only %d crash points; the sweep is not reaching every store", n)
			}
		})
	}
}

// TestLegResultEveryStore crashes a slot write at each of its accesses
// (crash.Sweep): the prefix must read i — slot i not stamped — or i+1 with
// slot i holding the new response, never a slot stamped for the current
// record beside a stale response. The slot still holds a different response from
// the admission before the previous one, which used the same slot area, so a
// stamp stored ahead of the response would show.
//
// In the lazy rows the record is left pending with announceLazy and slots 0
// to i with it (keepLegResult), and what is crashed is the first install's
// sequence: the record stored with the kept responses as its prefix
// (storeKept) and written back by its barrier. A crash before the barrier must
// find the previous record under the previous number with its own responses,
// never with a new response in a slot it reads, or no valid record, and a
// crash after it the new record with the whole prefix of the new responses.
// No valid record is what Announce and storeKept promise of a crash before
// the barrier that carries the record: the header line, which holds the
// raised admission number from the record's second access on, can persist
// alone. Then RecoverAll, which routes only the legs ReadRecord returns,
// reports nothing for the process and re-executes nothing (recoversNothing),
// and the admission number the CP registers compare against is the previous
// or the raised one.
//
// Every row persists each dirty line at the crash, and each complement.
func TestLegResultEveryStore(t *testing.T) {
	legs := []Leg{{StructID: 1, Kind: 2, Arg: 3}, {StructID: 1, Kind: 4, Arg: 5}, {StructID: 1, Kind: 6, Arg: 7}, {StructID: 1, Kind: 8, Arg: 9}}
	for _, lazy := range []bool{false, true} {
		for i := 0; i < len(legs)-1; i++ {
			t.Run(fmt.Sprintf("lazy=%v/slot=%d", lazy, i), func(t *testing.T) {
				n := crash.SweepTest(t, func() crash.Instance {
					h := newTrackedHeap(1)
					p, recs := h.Proc(0), NewRecords(h)
					for range 2 { // the second fills the slot area the new record reuses
						Announce(p, false, legs...)
						for j := 0; j < len(legs)-1; j++ {
							CloseLeg(p, j, 50+uint64(j))
						}
					}
					oldAdm := Admission(p)
					write := func() { CloseLeg(p, i, 100+uint64(i)) }
					if lazy {
						p.OpenSyncScope() // a lazy record lives in its admission's scope
						recs.announceLazy(p, false, legs)
						for j := 0; j <= i; j++ {
							recs.keepLegResult(p, j, 100+uint64(j))
						}
						write = func() {
							recs.storeKept(p)
							p.PBarrierAddrs(nil)
						}
					} else {
						Announce(p, false, legs...)
						for j := 0; j < i; j++ {
							CloseLeg(p, j, 100+uint64(j))
						}
					}
					done := true
					return crash.Instance{
						Heap:    h,
						Run:     func() ([]uint64, error) { write(); return nil, nil },
						Resolve: func() ([]uint64, error) { done = false; return nil, nil },
						Verify: func() string {
							if done {
								p.PWB(slot(p, oldAdm+1, i))
								crashAndReset(h)
							}
							rec, ok := ReadRecord(p)
							old := Admission(p) == oldAdm
							switch cursor := rec.Cursor; {
							case !ok && lazy && !done:
								if adm := Admission(p); adm != oldAdm && adm != oldAdm+1 {
									return fmt.Sprintf("no valid record, under admission %d; want %d or %d", adm, oldAdm, oldAdm+1)
								}
								return recoversNothing(h, p, legs)
							case !ok || len(rec.Legs) != len(legs):
								return fmt.Sprintf("no valid record (n %d, ok %v)", len(rec.Legs), ok)
							case old && (!lazy || done):
								return fmt.Sprintf("write done %v: the record under the previous number survived", done)
							case old && cursor != len(legs)-1:
								return fmt.Sprintf("the previous record reads cursor %d, want %d", cursor, len(legs)-1)
							case !old && lazy && (cursor > i+1 || done && cursor != i+1):
								return fmt.Sprintf("write done %v: cursor %d", done, cursor)
							case !old && !lazy && (cursor != i && cursor != i+1 || done && cursor != i+1):
								return fmt.Sprintf("write done %v: cursor %d", done, cursor)
							}
							want := uint64(100)
							if old {
								want = 50
							}
							for j, got := range rec.Results {
								if got != want+uint64(j) {
									return fmt.Sprintf("slot %d is stamped but holds %d, want %d", j, got, want+uint64(j))
								}
							}
							return ""
						},
						Persist: true,
					}
				}, nil)
				if n < 3 {
					t.Fatalf("only %d crash points; the sweep is not reaching every store", n)
				}
			})
		}
	}
}

// recoversNothing runs RecoverAll's step for p on an image that holds no
// valid record — p's sync scope torn down, then its record read — and checks
// that it finds no leg in flight and changes nothing: p's region persists
// the same words after it, and the next admission's record, under the next
// number, reads no leg completed, none of the crashed admission's responses
// among them.
func recoversNothing(h *pmem.Heap, p *pmem.Proc, legs []Leg) string {
	persisted := func() []uint64 {
		var out []uint64
		for w := p.Region(); w < p.Region()+annWords; w++ {
			out = append(out, h.ReadPersisted(w))
		}
		return out
	}
	before, adm := persisted(), Admission(p)
	p.ResetSyncScope()
	if rec, ok := ReadRecord(p); ok {
		return fmt.Sprintf("recovery finds %+v, legs %d on in flight", rec, rec.Cursor)
	}
	crashAndReset(h)
	if !slices.Equal(persisted(), before) {
		return "recovery changed p's persisted region"
	}
	Announce(p, false, legs...)
	if rec, ok := ReadRecord(p); !ok || Admission(p) != adm+1 || rec.Cursor != 0 {
		return fmt.Sprintf("the next admission reads %+v (ok %v) under %d, want no leg completed under %d", rec, ok, Admission(p), adm+1)
	}
	return ""
}

// TestCloseScopeDropsPendingRecord is pmem's TestSyncScopeClosesOnWriteBacks
// for a record left pending in an empty scope: the scope closes without a
// psync, and the record is dropped with it, so the admission number stays
// where it was. A scope a crash tears down drops it too.
func TestCloseScopeDropsPendingRecord(t *testing.T) {
	h := newTrackedHeap(1)
	p, recs := h.Proc(0), NewRecords(h)
	adm := recs.Admission(p)
	p.OpenSyncScope()
	recs.announceLazy(p, false, []Leg{{StructID: 1, Kind: 2, Arg: 3}})
	if got := recs.Admission(p); got != adm+1 {
		t.Fatalf("pending record runs under admission %d, want %d", got, adm+1)
	}
	p.CloseSyncScope()
	if got := p.Stats().Syncs; got != 0 {
		t.Errorf("the scope closed with %d psyncs, want 0", got)
	}
	if recs.Admission(p) != adm || recs.pending(p) {
		t.Errorf("admission %d (pending %v) after the scope, want %d", recs.Admission(p), recs.pending(p), adm)
	}
	p.OpenSyncScope()
	recs.announceLazy(p, false, []Leg{{StructID: 1, Kind: 2, Arg: 3}})
	crashAndReset(h)
	if recs.Admission(p) != adm || recs.pending(p) {
		t.Errorf("admission %d (pending %v) after a crash, want %d", recs.Admission(p), recs.pending(p), adm)
	}
}

// TestInfoResultTravelsWithSum pins why offResult shares its two-word pair
// with offSum: a record validates only together with its own install's
// result. At each two-word alignment the allocators can give it, a record is
// installed over an older one at the same address — the same operation,
// stamp and AffectSet, a different WriteSet, its result set — and written
// back with every line but one, or all of them. Whatever validates
// (readInfo) must hold the new install's result, ⊥, never the old one: a
// stale result would be evidence of a barrier that never completed, and its
// response.
func TestInfoResultTravelsWithSum(t *testing.T) {
	spec := func(new uint64) *Spec {
		var s Spec
		s.OpType, s.ArgKey, s.SuccessResponse = 7, 9, RespTrue
		s.AddAffect(8, 0)
		s.AddAffect(10, 0)
		s.AddWrite(12, 1, new)
		s.AddCleanup(8)
		return &s
	}
	for align := pmem.Addr(0); align < pmem.WordsPerLine; align += 2 {
		for skip := -1; skip < InfoWords/pmem.WordsPerLine+1; skip++ {
			h := newTrackedHeap(1)
			p, e := h.Proc(0), NewEngineOpt(h)
			base := p.Alloc(InfoWords + 2*pmem.WordsPerLine)
			info := (base+pmem.WordsPerLine-1)&^(pmem.WordsPerLine-1) + align
			e.install(p, info, spec(2))
			p.Store(info+offResult, RespTrue)
			p.PBarrierRange(info, InfoWords)
			e.install(p, info, spec(3))
			for l, line := 0, info&^(pmem.WordsPerLine-1); line < info+InfoWords; l, line = l+1, line+pmem.WordsPerLine {
				if l != skip {
					p.PWB(line)
				}
			}
			crashAndReset(h)
			if rec, ok := readInfo(p, info); ok && rec[offResult] != RespNone {
				t.Fatalf("record at line offset %d, line %d not written back: validates with the old result %d", align, skip, rec[offResult])
			}
		}
	}
}
