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

// Records is the table of a heap's processes' Isb-Opt deferral states
// (deferral; step is its transition table), with the data their actions
// name: the legs an admission announced lazily and the responses its
// boundaries kept. All of a Runtime's engines share one (Engine.SetAnnounceID):
// a transaction spans two; an engine outside a Runtime has its own.
type Records struct{ procs []procRecord }

type procRecord struct {
	d       deferral
	legs    []Leg
	results []uint64
	// Procs run on different goroutines and each writes its entry at every
	// admission: the entry fills whole cache lines, so two never share one
	// (TestProcRecordFillsCacheLines).
}

// NewRecords builds the table for h's processes.
func NewRecords(h *pmem.Heap) *Records { return &Records{procs: make([]procRecord, h.NumProcs())} }
