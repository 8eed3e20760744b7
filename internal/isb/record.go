package isb

import (
	"fmt"

	"repro/internal/pmem"
)

// Announcement record layout: one record per process, in the region the heap
// reserves for it (pmem.Proc.Region). Every admission shape writes the same
// record — a durable vector of N legs behind one header — which the runtime's
// registry-routed recovery reads after a crash (see Announce):
//
//	word   0     1                 2   3           4 … 4+2N-1       136 + 128·(admission mod 2) + 2i
//	     ┌─────┬─────────────────┬───┬───────────┬───────────────┐ ┌──────────────────────┐
//	     │ sum │ N|atomic|prefix │ – │ admission │ leg 0 … N-1   │ │ slot i (i < N-1)     │
//	     └─────┴─────────────────┴───┴───────────┴───────────────┘ └──────────────────────┘
//	      bound by sum                                             response, stamp
//
// A leg is two words: structure ID, flags and kind packed into the first,
// the argument in the second. A single operation is N = 1, a batch window N ≤
// MaxBatch non-atomic legs, a transaction an atomic vector. sum is the
// checksum over the meta word, the admission number (Admission), every leg
// and the responses of the record's prefix (below), and the one word that
// makes the record valid: 0 means "no record", and a record torn across cache
// lines, or read under another admission number, fails it. The header and
// legs 0–1 share the first line, so announcing a single operation or a
// two-leg transaction is one write-back.
//
// A result slot is two words on one line: a closed leg's response, then the
// stamp, the admission number, beside it. Two slot areas alternate by the
// admission number's parity, so an admission's slots never overwrite what
// the previous record, which stays valid until the new header is durable,
// reads. The prefix is the slots stored with the record itself (Records, an
// Isb-Opt install that stores the record also stores the responses its
// admission kept so far): their count sits in the meta word and their
// responses inside the sum, so a torn or stale prefix fails the record, under
// whatever admission number; their stamps are neither stored nor read. A
// slot stored after the record (CloseLeg, or a later install) is valid once
// stamped: the response is stored first and a line persists as a unit, and
// it is stored only once the record is durable, so its number is never
// reused — a stamp matches no older admission, and none of a record a crash
// tore off before its header was durable, whose number the next begin
// reuses. The completed prefix, the cursor, is the bound prefix followed by
// the run of stamped slots: legs below it have durable responses, the leg at
// it is the one possibly in flight, and legs above it never took effect. The
// last leg never gets a slot — its response stays in its engine's tracking
// record — so the cursor never reaches N.
const (
	annSum       = 0 // checksum over annMeta, annAdmission, every leg word and the prefix (0 = no record)
	annMeta      = 1 // leg count | atomic flag << annAtomicShift | prefix length << annPrefixShift
	annAdmission = 3 // admission number
	annLegs      = 4 // MaxBatch two-word legs

	annAtomicShift = 32
	annPrefixShift = 40

	// annResults is the first word of the first slot area, on its own cache
	// lines; the second follows it. Slots are two-word aligned, so none
	// straddles a line, and never cleared: only a slot its record binds or
	// stamps counts.
	annResults = (annLegs + 2*MaxBatch + pmem.WordsPerLine - 1) &^ (pmem.WordsPerLine - 1)
	annArea    = 2 * MaxBatch

	// annWords is the record's size in words.
	annWords = annResults + 2*annArea

	// Leg word 0 packs the structure ID above the flags above the kind.
	legFlagsShift  = 32
	legStructShift = 40
)

// The record fits the region the heap reserves for each process: this array
// length is negative, and the package does not compile, if it does not.
var _ [pmem.ProcRegionWords - annWords]struct{}

// MaxBatch bounds the number of legs one announcement can hold.
const MaxBatch = 64

// Leg is one leg of an announcement: which structure (registry ID, nonzero),
// which operation kind, and its argument. Flags is opaque to this package
// (see flagArgFromLeg1 in the repro root). StructID must fit 24 bits, Flags 8
// and Kind 32: they share the leg's first word.
type Leg struct {
	StructID uint64
	Kind     uint64
	Arg      uint64
	Flags    uint64
}

// annCheck is one step of a checksum: it folds two payload words into the
// running sum. writeRecord chains it over the meta word and the admission
// number, then every leg, in order, then the prefix's responses; the slots
// stored after the record are deliberately excluded — they are written as the
// vector progresses and carry their own defense, the stamp. An announcement is
// only valid if the persisted sum matches the persisted payload, which makes a
// partially persisted record (a crash between its stores and its pwbs, with
// some lines reaching persistence via simulated eviction, or a barrier that
// wrote back only some of its lines) detectably invalid instead of a garbled
// route. The result is never zero, so a cleared header can never validate.
// The engine's Info records validate themselves with it too (infoSum).
func annCheck(sum, a, b uint64) uint64 {
	x := sum*0x9e3779b97f4a7c15 ^ a*0xbf58476d1ce4e5b9 ^ b*0x94d049bb133111eb
	x ^= x >> 29
	x *= 0xff51afd7ed558ccd
	x ^= x >> 32
	if x == 0 {
		x = 1
	}
	return x
}

// Announce is the eager begin: it durably records that p is about to execute
// legs (len(legs) ≤ MaxBatch), in order, as one admission — the paper's
// announcement discipline, generalized across structures and to vectors —
// then issues the begin psync. atomic marks the vector all-or-nothing (a
// transaction). With no legs it is the bare begin, an admission that
// announces nothing: it empties the record. Either way it raises the
// admission number (see Admission), so it is the paper's system-side CP_q :=
// 0, durable before the invocation it precedes.
//
// It writes back each touched line once — one pwb for a single operation, a
// two-leg transaction or the bare begin — and the write order is what makes
// a crash inside it safe: the raised number first, which invalidates the
// previous record before any other word of it changes, sum last, and the
// header line written back last. A crash leaves the previous, completed
// record under its own number, which recovery resolves idempotently, or no
// valid record: either way this admission provably performed no tracked
// writes and is simply re-submitted. The record stays in place until the next
// admission begins, which is what lets registry-routed recovery find
// in-flight work after a crash.
func Announce(p *pmem.Proc, atomic bool, legs ...Leg) {
	a := p.Region()
	if len(legs) == 0 {
		p.Store(a+annAdmission, Admission(p)+1)
		p.Store(a+annSum, 0)
	} else {
		end := writeRecord(p, atomic, legs, nil)
		for line := a + pmem.WordsPerLine; line < end; line += pmem.WordsPerLine {
			p.PWB(line)
		}
	}
	p.PWB(a)
	p.PSync()
}

// writeRecord is Announce's stores without its write-backs, with prefix, the
// responses of legs 0, 1, …, stored unstamped and bound as the record's
// prefix. It returns the address just past the last leg word.
func writeRecord(p *pmem.Proc, atomic bool, legs []Leg, prefix []uint64) pmem.Addr {
	if len(legs) < 1 || len(legs) > MaxBatch || len(prefix) >= len(legs) {
		panic(fmt.Sprintf("isb: announcement with %d legs and a prefix of %d (want 1..%d legs, a shorter prefix)", len(legs), len(prefix), MaxBatch))
	}
	a := p.Region()
	adm := p.Load(a+annAdmission) + 1
	p.Store(a+annAdmission, adm)
	meta := uint64(len(legs)) | uint64(len(prefix))<<annPrefixShift
	if atomic {
		meta |= 1 << annAtomicShift
	}
	sum := annCheck(0, meta, adm)
	w := a + annLegs
	for _, l := range legs {
		if l.StructID == 0 || l.StructID >= 1<<(64-legStructShift) ||
			l.Flags >= 1<<(legStructShift-legFlagsShift) || l.Kind >= 1<<legFlagsShift {
			panic(fmt.Sprintf("isb: announcement with unencodable leg %+v", l))
		}
		w0 := l.StructID<<legStructShift | l.Flags<<legFlagsShift | l.Kind
		p.Store(w, w0)
		p.Store(w+1, l.Arg)
		sum = annCheck(sum, w0, l.Arg)
		w += 2
	}
	for i, r := range prefix {
		p.Store(slot(p, adm, i), r)
		sum = annCheck(sum, r, uint64(i))
	}
	p.Store(a+annMeta, meta)
	p.Store(a+annSum, sum)
	return w
}

// Admission returns p's durable admission number, raised by every begin. A
// CP register (an engine's CP_q, the exchanger's CP_ex) stores the number it
// was written under: one raise resets them all.
func Admission(p *pmem.Proc) uint64 { return p.Load(p.Region() + annAdmission) }

// slot returns the address of result slot i in the area of admission adm.
func slot(p *pmem.Proc, adm uint64, i int) pmem.Addr {
	return p.Region() + annResults + pmem.Addr(adm&1)*annArea + pmem.Addr(2*i)
}

// CloseLeg durably closes leg i of the announced vector, which must be
// durable already: its response goes into result slot i, stamped with the
// admission number, in one write-back. Once the line is back, legs [0, i] are
// the completed prefix if every lower slot is bound or stamped too; for an
// atomic vector slot 0 stamped is the commit point.
func CloseLeg(p *pmem.Proc, i int, resp uint64) { p.PWB(storeLegResult(p, i, resp)) }

// storeLegResult is CloseLeg's two stores without its write-back: resp, which
// must be nonzero (0 is the engine's ⊥), then the admission number beside it.
// It returns the slot's address, whose line the caller writes back — at once,
// or with a barrier that comes before anything a later leg makes durable.
func storeLegResult(p *pmem.Proc, i int, resp uint64) pmem.Addr {
	if resp == 0 {
		panic("isb: leg result with zero response")
	}
	adm := Admission(p)
	s := slot(p, adm, i)
	p.Store(s, resp)
	p.Store(s+1, adm)
	return s
}

// Record is an announcement record as ReadRecord decodes it. Legs [0,
// Cursor) have durable responses, Results; leg Cursor, the first whose slot
// is neither bound nor stamped, is the (at most one) in-flight leg; legs
// (Cursor, N) provably took no effect.
type Record struct {
	Legs    []Leg
	Atomic  bool
	Cursor  int
	Results []uint64
}

// ReadRecord reads p's announcement record, validating the checksum over its
// immutable part, its prefix included. ok is false if nothing is announced
// (or the record was only partially persisted when the crash hit — the
// admission then provably performed no tracked writes).
func ReadRecord(p *pmem.Proc) (r Record, ok bool) {
	a := p.Region()
	sum := p.Load(a + annSum)
	if sum == 0 {
		return Record{}, false
	}
	meta := p.Load(a + annMeta)
	cnt, pre := meta&(1<<annAtomicShift-1), meta>>annPrefixShift
	if cnt == 0 || cnt > MaxBatch || pre >= cnt {
		return Record{}, false
	}
	adm := p.Load(a + annAdmission)
	check := annCheck(0, meta, adm)
	r.Legs = make([]Leg, cnt)
	for i := range r.Legs {
		w := a + annLegs + pmem.Addr(2*i)
		w0, arg := p.Load(w), p.Load(w+1)
		check = annCheck(check, w0, arg)
		r.Legs[i] = Leg{
			StructID: w0 >> legStructShift,
			Flags:    w0 >> legFlagsShift & (1<<(legStructShift-legFlagsShift) - 1),
			Kind:     w0 & (1<<legFlagsShift - 1),
			Arg:      arg,
		}
	}
	for i := 0; i < int(pre); i++ {
		resp := p.Load(slot(p, adm, i))
		check = annCheck(check, resp, uint64(i))
		r.Results = append(r.Results, resp)
	}
	if check != sum {
		return Record{}, false
	}
	r.Atomic = meta>>annAtomicShift&1 == 1
	r.Cursor = int(pre)
	for s := slot(p, adm, r.Cursor); r.Cursor < int(cnt)-1 && p.Load(s+1) == adm; s += 2 {
		r.Results = append(r.Results, p.Load(s))
		r.Cursor++
	}
	return r, true
}

// Records holds, per process of one heap, what an admission announced lazily
// (announceLazy) keeps Go-side: its record, until its first install stores
// it, and the responses its boundaries give legs 0, 1, … (keepLegResult),
// until the process's next install, on any engine, stores them (storeKept):
// with the record, as its prefix, or in stamped slots. All of a heap's
// engines share it (Engine.SetAnnounceID): a transaction spans two. What it
// holds belongs to the admission's sync scope, whose close or teardown drops
// it: nothing durable names a pending record, and a response no later leg's
// install stored is never stored, so once the admission returns its durable
// record's cursor sits on its last installing leg, the one its engine's
// registers name. It also holds the process's held update (hold), which the
// process's next barrier on any engine releases.
type Records struct{ procs []lazyRecord }

type lazyRecord struct {
	legs []Leg
	// results are the boundaries' responses, legs 0, 1, … in order; the
	// first stored of them are in their slots already.
	results []uint64
	stored  int
	held    heldUpdate
	atomic  bool
	lazy    bool // the admission was announced lazily
	pending bool // and its record is not stored yet
	// Procs run on different goroutines and each writes its entry at every
	// admission: the padding keeps two entries' fields off a common cache line
	// (TestLazyRecordFillsCacheLines).
	_ [13]byte
}

// heldUpdate is an Isb-Opt update whose update phase ran but was not written
// back (Engine.finish): the engine and record it ran on, the retired-class
// operands it unlinked, which retire once the untags after it are durable,
// its CleanupSet (both Null-terminated, copied from the attempt's Spec by
// Engine.retireAffected), the first of the cookie counter values reserved
// for its untags, one per CleanupSet entry, and the heap epoch it ran in.
// releasing is set while its cleanup runs (release).
type heldUpdate struct {
	e         *Engine
	info      pmem.Addr
	ops       [MaxAffect]pmem.Addr
	cleanup   [MaxCleanup]pmem.Addr
	first     uint64
	epoch     uint64
	releasing bool
}

// hold records that p's update on e, whose record is info, waits for p's next
// barrier: its WriteSet CASes and result are in the carry set, and its tags
// stay set until release, whose untags store the cookies of counter values
// first, first+1, … (Engine.cookieAt).
func (t *Records) hold(p *pmem.Proc, e *Engine, info pmem.Addr, first uint64) {
	t.procs[p.ID()].held = heldUpdate{e: e, info: info, first: first, epoch: e.h.Epoch()}
}

// heldCookie reports the value p's release of its held update will store in
// the info field a, if that update's record is info and a is in its
// CleanupSet: what an attempt of p's that meets the tag may expect there, as
// long as its install barrier, which releases the update, precedes its tags.
func (t *Records) heldCookie(p *pmem.Proc, a, info pmem.Addr) (uint64, bool) {
	h := t.holding(p, info)
	if h == nil {
		return 0, false
	}
	for i, c := range h.cleanup {
		if c == a {
			return h.e.cookieAt(h.e.proc(p), h.first+uint64(i)), true
		}
	}
	return 0, false
}

// holding returns p's held update if there is one whose record is info, or
// any with info Null; nil otherwise.
func (t *Records) holding(p *pmem.Proc, info pmem.Addr) *heldUpdate {
	if t == nil {
		return nil
	}
	h := &t.procs[p.ID()].held
	if h.e == nil || info != pmem.Null && h.info != info {
		return nil
	}
	return h
}

// release runs the cleanup of p's held update, which a barrier of p's has
// just written back: the done flag and the untags, carried to p's next
// barrier inside a sync scope, and its operands go to its engine's
// lastOp.held, which the next install's retireLast retires once that barrier
// is done. The entry clears only once the cleanup ran, so a failure inside it
// leaves the update held for settleHeld; releasing stops the barrier an
// unscoped cleanup ends with from releasing it again. It returns the engine
// of the update it released, if any.
func (t *Records) release(p *pmem.Proc) *Engine {
	h := t.holding(p, pmem.Null)
	if h == nil || h.releasing {
		return nil
	}
	e := h.e
	h.releasing = true
	e.cleanup(p, e.proc(p), h.info, Tagged(h.info), true, h.first)
	h.retire(p)
	return e
}

// retire hands h's operands to its engine's retire schedule (retireLast) and
// clears h.
func (h *heldUpdate) retire(p *pmem.Proc) {
	last := &h.e.proc(p).last
	for _, nd := range h.ops {
		if nd == pmem.Null {
			break
		}
		last.held[last.n] = nd
		last.n++
	}
	*h = heldUpdate{}
}

// flushHeld writes p's held update back with a barrier of its own, which
// writes back nothing but the carried lines, and releases it: at a sync
// scope's close (Engine.CloseSyncScope), and after an individual failure
// (settleHeld).
func (t *Records) flushHeld(p *pmem.Proc) {
	if t.holding(p, pmem.Null) == nil {
		return
	}
	p.PBarrierAddrs(nil)
	t.release(p)
}

// settleHeld ends, at a begin or a recovery (Engine.Settle), an update p
// still holds after a crash. A system crash moved the heap's epoch and
// reverted the update to its durable image, whose tags the held record's
// engine settles before it installs again: the operands only join its retire
// schedule. An individual failure left memory as it was: the update is
// written back and released, its cleanup eager when recovery runs it, outside
// a sync scope.
func (t *Records) settleHeld(p *pmem.Proc) {
	h := t.holding(p, pmem.Null)
	switch {
	case h == nil:
	case h.epoch != p.Heap().Epoch():
		h.retire(p)
	default:
		h.releasing = false
		t.flushHeld(p)
	}
}

// NewRecords builds the table for h's processes.
func NewRecords(h *pmem.Heap) *Records { return &Records{procs: make([]lazyRecord, h.NumProcs())} }

// announceLazy is Announce with nothing stored yet, and no psync: the legs
// wait in the table until the admission's first durable action — its first
// install, which stores the record (storeKept) ahead of its barrier. A scope
// that closes first drops it (live). Until then Admission already returns
// the number the record will be stored under, so CP registers compare
// against it, and a crash finds the previous record under the previous
// number, exactly as a crash inside Announce does. An admission that installs
// nothing — reads and effect-free updates only (Engine.attemptLoop) — leaves
// no record at all, so no durable record can name it as in flight once it
// has returned: recovery would re-invoke it, and a re-invoked failed insert
// could insert a key no caller inserted.
func (t *Records) announceLazy(p *pmem.Proc, atomic bool, legs []Leg) {
	r := &t.procs[p.ID()]
	r.legs = append(r.legs[:0], legs...)
	r.results, r.stored = r.results[:0], 0
	r.atomic, r.lazy, r.pending = atomic, true, true
}

// live returns p's entry while it describes the admission p runs: one
// announced lazily, whose sync scope is still open. A scope's close
// (CloseSyncScope) or teardown (ResetSyncScope, a crash's reset included)
// drops the entry; the next begin replaces or clears it before anything
// reads it again.
func (t *Records) live(p *pmem.Proc) *lazyRecord {
	if t == nil || !t.procs[p.ID()].lazy || !p.InSyncScope() {
		return nil
	}
	return &t.procs[p.ID()]
}

// pending reports whether p's lazily announced record is still unstored.
func (t *Records) pending(p *pmem.Proc) bool {
	r := t.live(p)
	return r != nil && r.pending
}

// elides reports whether an update leg of p's admission that its gather
// proves effect-free may return without an install (Engine.attemptLoop):
// no durable record will name it in flight once the admission returns. That
// holds for every leg of a lazily announced window, since its slot is stored
// only if a later leg installs, and for any leg while the record is pending,
// as long as the leg itself has not installed: an attempt of it that lost
// its tags leaves a register naming it, which attemptLoop checks. Two cases
// install it anyway, the ROpt way, so that a register names it with its
// response: the last update leg of an atomic vector whose record is stored,
// because roll-forward (RecoverAll) would re-drive it otherwise; and every
// leg of an eagerly begun admission, because the elimination stack's exchange
// takes effect outside any install barrier.
func (t *Records) elides(p *pmem.Proc) bool {
	r := t.live(p)
	return r != nil && (r.pending || !r.atomic)
}

// Admission is the number p's admission runs under: the durable one, or,
// while its record is pending, the number it will be stored under.
func (t *Records) Admission(p *pmem.Proc) uint64 {
	n := Admission(p)
	if t.pending(p) {
		n++
	}
	return n
}

// storeKept stores what p's lazily announced admission keeps Go-side for its
// next install, and hands the lines to the carry set (pmem.Proc.Carry), for
// that install's barrier to write back with its own, before any tag: the
// record, if still pending — raising the admission number — with every
// response kept so far as its prefix, or else the responses kept since the
// last install, in stamped slots. The barrier may
// persist any subset of its lines, and each subset is safe. A record without
// its prefix, or a prefix without its header, fails the sum, and so does a
// header torn from its legs: the admission, which takes effect only after the
// barrier, then reads as not begun, and the previous record, whose slots sit
// in the other area, stays valid unless its own header was torn. A later
// slot without the rest is a leg closed early, whose response is durable; the
// rest without the slot leave the previous leg at the cursor, its record
// still named (Engine.attemptLoop keeps the last complete install's register
// intact until this barrier is done).
func (t *Records) storeKept(p *pmem.Proc) {
	r := t.live(p)
	if r == nil {
		return
	}
	if r.pending {
		r.pending = false
		end := writeRecord(p, r.atomic, r.legs, r.results)
		for line := p.Region(); line < end; line += pmem.WordsPerLine {
			p.Carry(line)
		}
		for i := range r.results {
			p.Carry(slot(p, Admission(p), i))
		}
		r.stored = len(r.results)
		return
	}
	for i := r.stored; i < len(r.results); i++ {
		p.Carry(storeLegResult(p, i, r.results[i]))
	}
	r.stored = len(r.results)
}

// keepLegResult keeps the response of leg i, the next in order, for p's next
// install to store (storeKept). Under Isb-Opt every vector is announced
// lazily: the admitting runtime opens its scope ahead of the begin.
func (t *Records) keepLegResult(p *pmem.Proc, i int, resp uint64) {
	r := &t.procs[p.ID()]
	if i != len(r.results) {
		panic(fmt.Sprintf("isb: kept result for leg %d, want leg %d", i, len(r.results)))
	}
	r.results = append(r.results, resp)
}
