package isb

import "repro/internal/pmem"

// persister decides where an engine's persistence instructions go. The
// engine reports every persistent word (or freshly allocated range) it
// writes and marks phase boundaries; the implementation chooses whether to
// write back eagerly — one pwb per store, exactly as Algorithms 1 and 2 are
// written (the "Isb" curve) — or to accumulate the phase's dirty words and
// issue a single barrier whose pwbs dedupe cache lines (the "Isb-Opt"
// curve, licensed by the paper: "all pwb instructions can be issued at the
// end of the phase, before the psync").
//
// Crash contract: after EndPhase returns, everything reported since the
// previous EndPhase is durable, and so is a phase ended by Defer once the
// process's next barrier, on any engine, has run. Under the batched placement
// nothing in the phase is guaranteed durable before that point, so a crash
// mid-phase may leave the phase fully absent from persistent memory; Help and
// recoverSeq tolerate both outcomes because every phase is idempotent and
// re-runnable from its Info record.
//
// A persister is bound to one Proc and therefore used by one goroutine at a
// time; the Engine keeps one per process.
type persister interface {
	// Reset discards any state left over from a phase a crash interrupted.
	Reset()
	// WroteWord records one persistent word written in the current phase.
	WroteWord(a pmem.Addr)
	// WroteRange records a span of newly allocated persistent memory that
	// must persist with the current phase (the paper's NewSet).
	WroteRange(a pmem.Addr, words uint64)
	// Flush makes every write recorded since the last Flush/EndPhase
	// persistent, without an ordering point.
	Flush()
	// EndPhase is Flush followed by a psync: the phase's writes are durable
	// before any instruction after it.
	EndPhase()
	// Defer ends the current phase without writing it back: its writes join
	// the process's next barrier (pmem.Proc.Carry), whichever engine issues it.
	Defer()
	// Deferred reports whether this persister's last phase ended with Defer
	// and none of its own barriers has run since. Lines other code carried —
	// the announcement, a result slot — do not count.
	Deferred() bool
}

// eagerPersister is the paper's written placement (Isb): a pwb immediately
// after every store/CAS on persistent state, a pbarrier per freshly
// allocated range, a psync per phase. Every write is durable as soon as the
// instruction after its pwb executes.
type eagerPersister struct{ p *pmem.Proc }

func (e *eagerPersister) Reset()                               {}
func (e *eagerPersister) WroteWord(a pmem.Addr)                { e.p.PWB(a) }
func (e *eagerPersister) WroteRange(a pmem.Addr, words uint64) { e.p.PBarrierRange(a, words) }
func (e *eagerPersister) Flush()                               {}
func (e *eagerPersister) EndPhase()                            { e.p.PSync() }
func (e *eagerPersister) Defer()                               {} // every write is already back
func (e *eagerPersister) Deferred() bool                       { return false }

// batchPersister is the hand-tuned placement (Isb-Opt): dirty lines
// accumulate across a phase and one barrier per phase writes them all back,
// flushing each distinct cache line exactly once (PBarrierAddrs dedupes
// exactly, for any phase size). Accumulation is line-granular with an
// adjacent-duplicate check, so a run of stores to one line — the common
// phase shape — costs one slot, keeping large phases' scratch small. The
// capacity of the dirty slice is retained across phases, so steady-state
// operation does not allocate. A deferred phase's lines go to the process's
// carry set (pmem.Proc.Carry), which the next barrier on any engine writes
// back with its own; deferred remembers that this persister deferred one.
type batchPersister struct {
	p        *pmem.Proc
	dirty    []pmem.Addr
	deferred bool
	// Each process's persister is written at every barrier: the padding makes
	// it a cache line of its own (TestPersisterFillsCacheLine).
	_ [24]byte
}

func (b *batchPersister) Reset() { b.dirty = b.dirty[:0] }

func (b *batchPersister) Defer() {
	for _, l := range b.dirty {
		b.p.Carry(l)
	}
	b.dirty = b.dirty[:0]
	b.deferred = true
}

func (b *batchPersister) Deferred() bool { return b.deferred }

// note records line l as dirty unless it was the line recorded last.
func (b *batchPersister) note(l pmem.Addr) {
	if n := len(b.dirty); n > 0 && b.dirty[n-1] == l {
		return
	}
	b.dirty = append(b.dirty, l)
}

func (b *batchPersister) WroteWord(a pmem.Addr) {
	b.note(a &^ (pmem.WordsPerLine - 1))
}

func (b *batchPersister) WroteRange(a pmem.Addr, words uint64) {
	// Stride from the containing line boundary, not from a: the arena only
	// guarantees 2-word alignment, so an unaligned range can span one more
	// line than words/WordsPerLine and the tail line must not be dropped.
	end := a + pmem.Addr(words)
	for l := a &^ (pmem.WordsPerLine - 1); l < end; l += pmem.WordsPerLine {
		b.note(l)
	}
}

// Flush issues the phase's barrier, which also writes back every carried
// line. A phase that wrote nothing issues none, carried lines or not: they
// wait for a barrier that is paid anyway.
func (b *batchPersister) Flush() {
	if len(b.dirty) == 0 {
		return
	}
	b.p.PBarrierAddrs(b.dirty)
	b.dirty = b.dirty[:0]
	b.deferred = false
}

func (b *batchPersister) EndPhase() {
	b.Flush()
	b.p.PSync()
}
