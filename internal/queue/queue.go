// Package queue implements the paper's detectably recoverable ISB queue:
// ISB-tracking (Algorithm 2) applied to the Michael-Scott lock-free queue.
//
// Enqueue tags the current last node and CASes its next field from Null to
// the new node; the Tail word is only a volatile hint, swung lazily, so on
// the leak-forever arena it needs no recovery treatment (on the reclaimer
// it does: RepairTail). Dequeue tags the current dummy (the node the Head
// word points at) and swings Head to its successor, which becomes the new
// dummy; the old dummy retires and stays tagged forever. Head values never
// repeat (each dummy is a fresh node), and a node's next field goes Null →
// successor exactly once, so the update CASes are ABA-free without copying.
package queue

import (
	"repro/internal/isb"
	"repro/internal/pmem"
)

// Node field offsets (words); 4-word allocations.
const (
	nVal  = 0
	nNext = 1
	nInfo = 2

	nodeWords = 4
)

// Operation kinds for recovery and the crash harness. OpPeek, the
// read-only front-of-queue probe, is served exclusively by the zero-persist
// read path (it never installs an Info record).
const (
	OpEnq  uint64 = 10
	OpDeq  uint64 = 11
	OpPeek uint64 = 12
)

// Queue is a detectably recoverable FIFO queue of uint64 values. Its
// operation surface is the embedded isb.Ops.
type Queue struct {
	isb.Ops
	h          *pmem.Heap
	e          *isb.Engine
	head, tail pmem.Addr // anchor words (separate cache lines)

	gEnq, gDeq isb.Gather
}

// NewWithEngine builds an empty queue (one dummy node) on engine e.
func NewWithEngine(h *pmem.Heap, e *isb.Engine) *Queue {
	q := &Queue{h: h, e: e}
	p := h.Proc(0)
	anchors := p.Alloc(2 * pmem.WordsPerLine)
	q.head = anchors
	q.tail = anchors + pmem.WordsPerLine
	dummy := newNode(e, p, 0, 0)
	p.Store(q.head, uint64(dummy))
	p.Store(q.tail, uint64(dummy))
	p.PBarrierRange(dummy, nodeWords)
	p.PBarrier(q.head)
	p.PBarrier(q.tail)
	p.PSync()
	q.gEnq = q.gatherEnq
	q.gDeq = q.gatherDeq
	q.Ops = isb.NewOps(e, q.gather, q.ReadOp, OpPeek)
	return q
}

// newNode draws a node from the engine's allocator (arena by default, the
// epoch reclaimer when the runtime enables reclamation).
func newNode(e *isb.Engine, p *pmem.Proc, val, info uint64) pmem.Addr {
	nd := e.Alloc(p, nodeWords)
	p.Store(nd+nVal, val)
	p.Store(nd+nNext, uint64(pmem.Null))
	p.Store(nd+nInfo, info)
	return nd
}

// gather maps an operation kind to its gather function; OpPeek has none.
func (q *Queue) gather(kind, _ uint64) isb.Gather {
	switch kind {
	case OpEnq:
		return q.gEnq
	case OpPeek:
		return nil
	default:
		return q.gDeq
	}
}

// ReadOp serves OpPeek, the front value without dequeuing it, on the
// zero-persist path: a volatile read of the dummy's successor with no Info
// record, no announcement, and no persistence instruction. Linearizes at the
// load of head.next — the MS queue's front is exactly the dummy's successor at
// that instant. Nothing durable records the read; a crashed peek is simply
// re-submitted. The epoch pin keeps the dummy and its successor allocated
// while they are read (see list.ReadOp). Panics on a mutating kind.
func (q *Queue) ReadOp(p *pmem.Proc, kind, arg uint64) uint64 {
	if kind != OpPeek {
		panic("queue: ReadOp on a mutating kind")
	}
	a := q.e.Allocator()
	a.Enter(p)
	resp := isb.RespEmpty
	dummy := pmem.Addr(p.Load(q.head))
	if first := pmem.Addr(p.Load(dummy + nNext)); first != pmem.Null {
		resp = isb.EncodeValue(p.Load(first + nVal))
	}
	a.Exit(p)
	q.e.NoteReadFast(p)
	return resp
}

// findLast chases next pointers from the Tail hint to the actual last node
// and lazily swings Tail forward (volatile hint; needs no persistence).
func (q *Queue) findLast(p *pmem.Proc) pmem.Addr {
	t := pmem.Addr(p.Load(q.tail))
	last := t
	for {
		next := pmem.Addr(p.Load(last + nNext))
		if next == pmem.Null {
			break
		}
		last = next
	}
	if last != t {
		p.CAS(q.tail, uint64(t), uint64(last))
	}
	return last
}

// gatherEnq: AffectSet = {last}; WriteSet = {last.next: Null → new node}.
func (q *Queue) gatherEnq(p *pmem.Proc, info pmem.Addr, spec *isb.Spec) isb.GatherResult {
	last := q.findLast(p)
	lastInfo := p.Load(last + nInfo)
	// findLast saw last.next == Null before lastInfo was read. A whole
	// enqueue by another process (tag last, link, untag) may have landed in
	// between: lastInfo is then a fresh untagged value the tag CAS accepts,
	// the WriteSet CAS on last.next fails, and the engine takes a failed
	// update CAS for a helper's work — the node would never be linked.
	// With next still Null after the info read, any later link must change
	// last.info first and so fails our tag CAS.
	if pmem.Addr(p.Load(last+nNext)) != pmem.Null {
		return isb.Restart
	}
	newnd := newNode(q.e, p, spec.ArgKey, isb.Tagged(info))
	spec.AddAffect(last+nInfo, lastInfo)
	spec.AddWrite(last+nNext, uint64(pmem.Null), uint64(newnd))
	spec.AddCleanup(last + nInfo)
	spec.AddCleanup(newnd + nInfo)
	spec.AddPersist(newnd, nodeWords)
	spec.SuccessResponse = isb.RespTrue
	return isb.Proceed
}

// gatherDeq: AffectSet = {dummy}; WriteSet = {Head: dummy → first}. On an
// empty queue the operation is read-only (validated by reading next before
// the info field; the linearization point is the Null next read).
func (q *Queue) gatherDeq(p *pmem.Proc, info pmem.Addr, spec *isb.Spec) isb.GatherResult {
	dummy := pmem.Addr(p.Load(q.head))
	first := pmem.Addr(p.Load(dummy + nNext))
	dummyInfo := p.Load(dummy + nInfo)
	if first == pmem.Null {
		spec.AddAffect(dummy+nInfo, dummyInfo)
		spec.AddCleanup(dummy + nInfo)
		spec.ReadOnly = true
		spec.Response = isb.RespEmpty
		return isb.Proceed
	}
	// Re-validate that dummy is still the dummy: if Head moved, the next
	// pointer we read may already be stale.
	if pmem.Addr(p.Load(q.head)) != dummy {
		return isb.Restart
	}
	// Swing the Tail hint off the dummy before committing to retire it:
	// Tail only ever moves forward along the chain (every CAS on it
	// expects a specific older node), so once it has left the dummy it can
	// never return — the reclaimer may then recycle the dummy without a
	// stale Tail pointing into freed memory.
	if pmem.Addr(p.Load(q.tail)) == dummy {
		p.CAS(q.tail, uint64(dummy), uint64(first))
	}
	spec.AddAffect(dummy+nInfo, dummyInfo) // dummy retires: stays tagged
	spec.AddWrite(q.head, uint64(dummy), uint64(first))
	spec.SuccessResponse = isb.EncodeValue(p.Load(first + nVal))
	return isb.Proceed
}

// MarkReachable reports every node on the Head chain to the full
// post-crash reclamation scan. It only marks; the Tail hint is RepairTail's.
func (q *Queue) MarkReachable(p *pmem.Proc, mark func(pmem.Addr)) {
	for curr := pmem.Addr(p.Load(q.head)); curr != pmem.Null; curr = pmem.Addr(p.Load(curr + nNext)) {
		mark(curr)
	}
}

// RepairTail re-homes the Tail hint at Head's dummy after a crash. Tail is
// volatile-only, so a crash can revert it to an arbitrarily old persisted
// value whose node has since been recycled into some other place — an
// enqueue chasing next from there would link behind the wrong node and be
// lost. The dummy Head names is always on the chain, and the first
// enqueue's findLast chases and swings Tail from it like any lagging hint,
// so the repair is O(1). Runtime.RecoverAll runs it on every crash, before
// any operation, so the repaired hint needs no write-back: no recovery reads
// a persisted Tail without repairing it first.
func (q *Queue) RepairTail(p *pmem.Proc) {
	p.Store(q.tail, p.Load(q.head))
}

// Values snapshots queued values front-to-back (test helper; quiescence).
func (q *Queue) Values() []uint64 {
	h := q.h
	var out []uint64
	curr := pmem.Addr(h.ReadVolatile(q.head))
	for {
		curr = pmem.Addr(h.ReadVolatile(curr + nNext))
		if curr == pmem.Null {
			return out
		}
		out = append(out, h.ReadVolatile(curr+nVal))
	}
}

// CheckInvariants verifies structural sanity at quiescence: the Head dummy
// chain is Null-terminated, Tail points into the chain, and no live node
// after the dummy carries a stray tag (isb.Engine.StrayTag).
func (q *Queue) CheckInvariants() string {
	h := q.h
	dummy := pmem.Addr(h.ReadVolatile(q.head))
	if dummy == pmem.Null {
		return "Head is Null"
	}
	curr := dummy
	steps := 0
	for {
		next := pmem.Addr(h.ReadVolatile(curr + nNext))
		if next == pmem.Null {
			break
		}
		curr = next
		if q.e.StrayTag(h.ReadVolatile(curr + nInfo)) {
			return "live queued node tagged at quiescence"
		}
		if steps++; steps > 1<<24 {
			return "cycle suspected"
		}
	}
	lastFromHead := curr
	// The Tail hint may lag (even behind the dummy, onto retired nodes),
	// but chasing next from it must reach the same last node.
	curr = pmem.Addr(h.ReadVolatile(q.tail))
	steps = 0
	for {
		next := pmem.Addr(h.ReadVolatile(curr + nNext))
		if next == pmem.Null {
			break
		}
		curr = next
		if steps++; steps > 1<<24 {
			return "cycle suspected from tail"
		}
	}
	if curr != lastFromHead {
		return "Tail hint does not lead to the last node"
	}
	return ""
}
