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
//	word   0        1              2    3           4 … 4+2N-1        136 … 136+2N-3
//	     ┌────────┬──────────────┬────┬───────────┬────────────────┐ ┌───────────────────┐
//	     │ sum    │ N | atomic   │ –  │ admission │ leg 0 … leg N-1│ │ slot 0 … slot N-2 │
//	     └────────┴──────────────┴────┴───────────┴────────────────┘ └───────────────────┘
//	      bound by sum                  bound by sum  bound by sum    response, stamp
//
// A leg is two words: structure ID, flags and kind packed into the first,
// the argument in the second. A single operation is N = 1, a batch window N ≤
// MaxBatch non-atomic legs, a transaction an atomic vector. sum is the
// checksum over the count word, the admission number (Admission) and every
// leg, and the one word that makes the record valid: 0 means "no record", and
// a record torn across cache lines, or read under another admission number,
// fails it. The header and legs 0–1 share the first line, so announcing a
// single operation or a two-leg transaction is one write-back.
//
// A result slot is two words on one line: a closed leg's response, then the
// admission number it was written under (CloseLeg). A line persists as a
// unit and the number is stored after the response, so a slot stamped with
// the current admission number holds its leg's durable response; a slot of an
// older admission never matches, the number being monotone: no slot is
// stamped before its record's header is written back (storeLegResults), so a
// number a crash rolls back was never stamped. The completed prefix is
// derived from the stamps: legs below the first unstamped slot have durable
// responses, the leg at it is the one possibly in flight, and legs above it
// never took effect. The last leg never gets a slot — its response stays in
// its engine's tracking record — so the prefix never reaches N.
const (
	annSum       = 0 // checksum over annMeta, annAdmission and every leg word (0 = no record)
	annMeta      = 1 // leg count | atomic flag << annAtomicShift
	annAdmission = 3 // admission number
	annLegs      = 4 // MaxBatch two-word legs

	annAtomicShift = 32

	// annResults is the first result slot word, on its own cache lines. Slots
	// are two-word aligned, so none straddles a line, and never cleared: only
	// a stamp that matches the current admission number counts.
	annResults = (annLegs + 2*MaxBatch + pmem.WordsPerLine - 1) &^ (pmem.WordsPerLine - 1)

	// annWords is the record's size in words.
	annWords = annResults + 2*MaxBatch

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

// annCheck is one step of the announcement checksum: it folds two payload
// words into the running sum. writeRecord chains it over the count word and
// the admission number, then every leg, in order; the result slots are
// deliberately excluded — they are written as the vector progresses and carry
// their own defense, the admission-number stamp. An announcement is only
// valid if the persisted sum matches the persisted payload, which makes a
// partially persisted record (a crash between its stores and its pwbs, with
// some lines reaching persistence via simulated eviction) detectably invalid
// instead of a garbled route. The result is never zero, so a cleared header
// can never validate.
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
// previous record — and every result slot stamped under it — before any other
// word of it changes, sum last, and the header line written back last. A
// crash leaves the previous, completed record under its own number, which
// recovery resolves idempotently, or no valid record: either way this
// admission provably performed no tracked writes and is simply re-submitted.
// The record stays in place until the next admission begins, which is what
// lets registry-routed recovery find in-flight work after a crash.
func Announce(p *pmem.Proc, atomic bool, legs ...Leg) {
	a := p.Region()
	if len(legs) == 0 {
		p.Store(a+annAdmission, Admission(p)+1)
		p.Store(a+annSum, 0)
	} else {
		end := writeRecord(p, atomic, legs)
		for line := a + pmem.WordsPerLine; line < end; line += pmem.WordsPerLine {
			p.PWB(line)
		}
	}
	p.PWB(a)
	p.PSync()
}

// writeRecord is Announce's stores without its write-backs; it returns the
// address just past the last leg word.
func writeRecord(p *pmem.Proc, atomic bool, legs []Leg) pmem.Addr {
	if len(legs) < 1 || len(legs) > MaxBatch {
		panic(fmt.Sprintf("isb: announcement with %d legs (want 1..%d)", len(legs), MaxBatch))
	}
	a := p.Region()
	n := p.Load(a+annAdmission) + 1
	p.Store(a+annAdmission, n)
	meta := uint64(len(legs))
	if atomic {
		meta |= 1 << annAtomicShift
	}
	sum := annCheck(0, meta, n)
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
	p.Store(a+annMeta, meta)
	p.Store(a+annSum, sum)
	return w
}

// Admission returns p's durable admission number, raised by every begin. A
// CP register (an engine's CP_q, the exchanger's CP_ex) stores the number it
// was written under: one raise resets them all.
func Admission(p *pmem.Proc) uint64 { return p.Load(p.Region() + annAdmission) }

// CloseLeg durably closes leg i of the announced vector: its response goes
// into result slot i, stamped with the admission number, in one write-back.
// Once the line is back, legs [0, i] are the completed prefix if every lower
// slot is stamped too; for an atomic vector slot 0 stamped is the commit
// point.
func CloseLeg(p *pmem.Proc, i int, resp uint64) { p.PWB(storeLegResult(p, i, resp)) }

// storeLegResult is CloseLeg's two stores without its write-back: resp, which
// must be nonzero (0 is the engine's ⊥), then the admission number beside it.
// It returns the slot's address, whose line the caller writes back — at once,
// or with a barrier that comes before anything a later leg makes durable. The
// record must be stored already (Records.storeLegResults).
func storeLegResult(p *pmem.Proc, i int, resp uint64) pmem.Addr {
	if resp == 0 {
		panic("isb: leg result with zero response")
	}
	s := p.Region() + annResults + pmem.Addr(2*i)
	p.Store(s, resp)
	p.Store(s+1, Admission(p))
	return s
}

// Record is an announcement record as ReadRecord decodes it. Legs [0,
// Cursor) have durable responses, Results; leg Cursor, the first whose slot is
// not stamped with the admission number, is the (at most one) in-flight leg;
// legs (Cursor, N) provably took no effect.
type Record struct {
	Legs    []Leg
	Atomic  bool
	Cursor  int
	Results []uint64
}

// ReadRecord reads p's announcement record, validating the checksum over its
// immutable part. ok is false if nothing is announced (or the record was only
// partially persisted when the crash hit — the admission then provably
// performed no tracked writes).
func ReadRecord(p *pmem.Proc) (r Record, ok bool) {
	a := p.Region()
	sum := p.Load(a + annSum)
	if sum == 0 {
		return Record{}, false
	}
	meta := p.Load(a + annMeta)
	cnt := meta &^ (1 << annAtomicShift)
	if cnt == 0 || cnt > MaxBatch {
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
	if check != sum {
		return Record{}, false
	}
	r.Atomic = meta>>annAtomicShift&1 == 1
	for s := a + annResults; r.Cursor < int(cnt)-1 && p.Load(s+1) == adm; s += 2 {
		r.Results = append(r.Results, p.Load(s))
		r.Cursor++
	}
	return r, true
}

// Records holds, per process of one heap, what an admission announced lazily
// (announceLazy) keeps Go-side: its record, until its first install stores
// it (storeAnnouncement), and the responses its boundaries give legs 0, 1, …
// (keepLegResult), until the process's next install, on any engine, stores
// them in their stamped slots (storeLegResults). All of a heap's engines
// share it (Engine.SetAnnounceID): a transaction spans two. What it holds
// belongs to the admission's sync scope, whose close or teardown drops it:
// nothing durable names a pending record, and a response no later leg's
// install stored is never stamped, so once the admission returns its durable
// record's cursor sits on its last installing leg, the one RD_q names.
type Records struct{ procs []lazyRecord }

type lazyRecord struct {
	legs []Leg
	// results are the boundaries' responses, legs 0, 1, … in order; the
	// first stored of them are in their slots already.
	results []uint64
	stored  int
	atomic  bool
	lazy    bool // the admission was announced lazily
	pending bool // and its record is not stored yet
	// Procs run on different goroutines and each writes its entry at every
	// admission: the padding keeps two entries' fields off a common cache line.
	_ [69]byte
}

// NewRecords builds the table for h's processes.
func NewRecords(h *pmem.Heap) *Records { return &Records{procs: make([]lazyRecord, h.NumProcs())} }

// announceLazy is Announce with nothing stored yet, and no psync: the legs
// wait in the table until the admission's first durable action — its first
// install, which stores the record (storeAnnouncement) ahead of its barrier.
// A scope that closes first drops it (live). Until then Admission already
// returns the number the record will be stored under, so CP registers
// compare against it, and a crash finds the previous record under the
// previous number, exactly as a crash inside Announce does. An admission
// that installs nothing — reads and effect-free updates only
// (Engine.attemptLoop) — leaves no record at all, so no durable record can
// name it as in flight once it has returned: recovery would re-invoke it,
// and a re-invoked failed insert could insert a key no caller inserted.
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
// holds for every leg of a lazily announced window, since its slot is stamped
// only if a later leg installs, and for any leg while the record is pending,
// as long as the leg itself has not installed: an attempt of it that lost its
// tags leaves RD_q naming it, which attemptLoop checks. Two cases install it anyway, the ROpt way, so that RD_q names it with its
// response: the last update leg of an atomic vector whose record is stored,
// because roll-forward (RecoverAll) would re-drive it otherwise; and every
// leg of an eagerly begun admission, because the elimination stack's
// exchange takes effect outside any install barrier.
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

// storeAnnouncement stores the record announceLazy left pending, raising the
// admission number, and hands its lines to the carry set (pmem.Proc.Carry).
// The caller issues the barrier that writes them back next, before the
// admission takes any durable effect — an Isb-Opt install barrier — and then
// storeLegResults. It reports whether it stored the record: without a
// pending one it does nothing.
func (t *Records) storeAnnouncement(p *pmem.Proc) bool {
	if !t.pending(p) {
		return false
	}
	r := &t.procs[p.ID()]
	r.pending = false
	end := writeRecord(p, r.atomic, r.legs)
	for line := p.Region(); line < end; line += pmem.WordsPerLine {
		p.Carry(line)
	}
	return true
}

// storeLegResults stores the responses the boundaries kept since p's last
// install (keepLegResult) into their stamped result slots and hands the
// slots' lines to the carry set; it reports whether it stored any. An
// install calls it on either side of its barrier. Where the record is
// durable already, ahead of it: that barrier carries the slots, durable
// before RD_q moves off the previous installer's record, or recovery would
// re-invoke a leg that took effect. Where the install stores the record
// (storeAnnouncement), after it: no slot changes while the durable header
// still holds the previous admission, since an eviction that persisted a
// slot line could otherwise leave the previous record valid with this
// admission's response in its slot, or a stamp above the number a crash
// rolls back to, which the next begin would reuse. The install's RD_q
// write-back then becomes a barrier that carries them, still ahead of every
// tag.
func (t *Records) storeLegResults(p *pmem.Proc) bool {
	r := t.live(p)
	if r == nil || r.stored == len(r.results) {
		return false
	}
	for i := r.stored; i < len(r.results); i++ {
		p.Carry(storeLegResult(p, i, r.results[i]))
	}
	r.stored = len(r.results)
	return true
}

// keepLegResult keeps the response of leg i, the next in order, for p's next
// install to store (storeLegResults). Under Isb-Opt every vector is announced
// lazily: the admitting runtime opens its scope ahead of the begin.
func (t *Records) keepLegResult(p *pmem.Proc, i int, resp uint64) {
	r := &t.procs[p.ID()]
	if i != len(r.results) {
		panic(fmt.Sprintf("isb: kept result for leg %d, want leg %d", i, len(r.results)))
	}
	r.results = append(r.results, resp)
}
