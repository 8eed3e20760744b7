// Package list implements the paper's detectably recoverable sorted linked
// list (Section 4, Algorithms 3–5), obtained by applying ROpt-ISB tracking
// (Algorithm 2) to a Harris-style list.
//
// The list is sorted by increasing key with sentinel head (key 0, acting as
// −∞) and tail (key MaxUint64, acting as +∞); user keys must lie strictly
// between. Each node carries an info field tagged by in-progress operations.
//
// ABA freedom on next fields comes from the paper's copying rule: a
// successful Insert replaces its successor node with a fresh copy, so a
// next field never holds the same node address twice. Nodes removed or
// replaced ("retired") keep their tag forever, which forces any operation
// whose traversal ended on a retired node to help and retry.
package list

import (
	"repro/internal/isb"
	"repro/internal/pmem"
)

// Node field offsets (words). Nodes are 4-word allocations.
const (
	nKey  = 0
	nNext = 1
	nInfo = 2

	nodeWords = 4
)

// Operation kinds, used by recovery and the crash harness.
const (
	OpInsert uint64 = 1
	OpDelete uint64 = 2
	OpFind   uint64 = 3
)

// MinKey and MaxKey bound user keys (exclusive): sentinels use the bounds.
const (
	MinKey uint64 = 0
	MaxKey uint64 = 1<<64 - 1
)

// List is a detectably recoverable sorted set of uint64 keys. Its operation
// surface — Begin, ApplyOp and the leg entry points — is the embedded
// isb.Ops; OpFind is its read-only kind.
type List struct {
	isb.Ops
	h          *pmem.Heap
	e          *isb.Engine
	head, tail pmem.Addr

	gIns, gDel, gFind isb.Gather
}

// NewWithEngine builds an empty list on engine e, persisting the sentinels.
// Several lists can share one engine — and with it one set of per-process
// RD_q/CP_q recovery registers — which is how the sharded hash map keeps a
// single recovery obligation per process across all of its buckets.
func NewWithEngine(h *pmem.Heap, e *isb.Engine) *List {
	l := &List{h: h, e: e}
	p := h.Proc(0)
	l.tail = newNode(e, p, MaxKey, pmem.Null, 0)
	l.head = newNode(e, p, MinKey, l.tail, 0)
	p.PBarrierRange(l.tail, nodeWords)
	p.PBarrierRange(l.head, nodeWords)
	p.PSync()
	l.gIns = l.gatherInsert
	l.gDel = l.gatherDelete
	l.gFind = l.gatherFind
	l.Ops = isb.NewOps(e, l.Gather, l.ReadOp, OpFind)
	return l
}

// newNode draws a node from the engine's allocator: the arena by default
// (the paper's GC assumption — retired nodes leak), or the epoch reclaimer
// when the runtime enables reclamation (retired nodes are recycled after a
// grace period; the copying rule's ABA guarantee then rests on the
// engine's cookie scheme instead of address freshness).
func newNode(e *isb.Engine, p *pmem.Proc, key uint64, next pmem.Addr, info uint64) pmem.Addr {
	nd := e.Alloc(p, nodeWords)
	p.Store(nd+nKey, key)
	p.Store(nd+nNext, uint64(next))
	p.Store(nd+nInfo, info)
	return nd
}

// Gather maps an operation kind to its gather function (arg is unused): the
// list's gather lookup, which its Ops runs and the hash map routes to.
func (l *List) Gather(kind, _ uint64) isb.Gather {
	switch kind {
	case OpInsert:
		return l.gIns
	case OpDelete:
		return l.gDel
	default:
		return l.gFind
	}
}

// ReadOp serves OpFind, the set's read-only kind, on the zero-persist path: a
// volatile traversal over the persistent nodes with no Info record, no
// announcement, and no persistence instruction of any kind. Panics on a
// mutating kind.
//
// Linearization is the standard Harris-list argument: the traversal follows
// next pointers loaded one at a time, and the membership verdict is correct at
// the moment the deciding next pointer was loaded. Nothing durable records the
// read, so a crash simply loses it — the caller re-submits, which is safe
// because the read had no effect.
//
// The walk holds the allocator's epoch pin (volatile, and a no-op on the
// arena): without it the reclaimer could free and zero the node the walk
// stands on, whose zero key and Null next would trap it at address 0.
func (l *List) ReadOp(p *pmem.Proc, kind, key uint64) uint64 {
	if kind != OpFind {
		panic("list: ReadOp on a mutating kind")
	}
	a := l.e.Allocator()
	a.Enter(p)
	curr := l.head
	for p.Load(curr+nKey) < key {
		curr = pmem.Addr(p.Load(curr + nNext))
	}
	found := p.Load(curr+nKey) == key
	a.Exit(p)
	l.e.NoteReadFast(p)
	return isb.BoolResp(found)
}

// Insert adds key to the set; it returns false if the key was present.
func (l *List) Insert(p *pmem.Proc, key uint64) bool {
	return isb.Bool(l.ApplyOp(p, OpInsert, key))
}

// search returns pred/curr straddling key: the first node with
// curr.key >= key and its predecessor, plus their gathered info fields
// (each info field read on first access, per the paper).
func (l *List) search(p *pmem.Proc, key uint64) (pred, curr pmem.Addr, predInfo, currInfo uint64) {
	curr = l.head
	currInfo = p.Load(curr + nInfo)
	for p.Load(curr+nKey) < key {
		pred, predInfo = curr, currInfo
		curr = pmem.Addr(p.Load(curr + nNext))
		currInfo = p.Load(curr + nInfo)
	}
	return pred, curr, predInfo, currInfo
}

// gatherInsert builds the Insert AffectSet/WriteSet/NewSet (Algorithm 3).
func (l *List) gatherInsert(p *pmem.Proc, info pmem.Addr, spec *isb.Spec) isb.GatherResult {
	key := spec.ArgKey
	pred, curr, predInfo, currInfo := l.search(p, key)
	if p.Load(curr+nKey) == key {
		// Key present: the operation is read-only and behaves like Find.
		spec.AddAffect(curr+nInfo, currInfo)
		spec.AddCleanup(curr + nInfo)
		spec.ReadOnly = true
		spec.Response = isb.RespFalse
		return isb.Proceed
	}
	// Copy curr so pred.next never sees the same address twice (ABA).
	newcurr := newNode(l.e, p, p.Load(curr+nKey), pmem.Addr(p.Load(curr+nNext)), isb.Tagged(info))
	newnd := newNode(l.e, p, key, newcurr, isb.Tagged(info))
	spec.AddAffect(pred+nInfo, predInfo)
	spec.AddAffect(curr+nInfo, currInfo) // curr retires on success: not in cleanup
	spec.AddWrite(pred+nNext, uint64(curr), uint64(newnd))
	spec.AddCleanup(pred + nInfo)
	spec.AddCleanup(newnd + nInfo)
	spec.AddCleanup(newcurr + nInfo)
	spec.AddPersist(newnd, nodeWords)
	spec.AddPersist(newcurr, nodeWords)
	spec.SuccessResponse = isb.RespTrue
	return isb.Proceed
}

// gatherDelete builds the Delete sets (Algorithm 5).
func (l *List) gatherDelete(p *pmem.Proc, info pmem.Addr, spec *isb.Spec) isb.GatherResult {
	key := spec.ArgKey
	pred, curr, predInfo, currInfo := l.search(p, key)
	if p.Load(curr+nKey) != key {
		spec.AddAffect(curr+nInfo, currInfo)
		spec.AddCleanup(curr + nInfo)
		spec.ReadOnly = true
		spec.Response = isb.RespFalse
		return isb.Proceed
	}
	succ := p.Load(curr + nNext)
	spec.AddAffect(pred+nInfo, predInfo)
	spec.AddAffect(curr+nInfo, currInfo) // curr retires: stays tagged forever
	spec.AddWrite(pred+nNext, uint64(curr), succ)
	spec.AddCleanup(pred + nInfo)
	spec.SuccessResponse = isb.RespTrue
	return isb.Proceed
}

// gatherFind builds the read-only Find spec (Algorithm 3, ROpt).
func (l *List) gatherFind(p *pmem.Proc, info pmem.Addr, spec *isb.Spec) isb.GatherResult {
	key := spec.ArgKey
	_, curr, _, currInfo := l.search(p, key)
	spec.AddAffect(curr+nInfo, currInfo)
	spec.AddCleanup(curr + nInfo)
	spec.ReadOnly = true
	spec.Response = isb.BoolResp(p.Load(curr+nKey) == key)
	return isb.Proceed
}

// Keys snapshots the current (volatile) key set, for verification. Callers
// must ensure quiescence. The walk ends at the +∞ key, not at a node
// address: a successful Insert before the tail retires the old tail
// sentinel and replaces it with a fresh copy.
func (l *List) Keys() []uint64 {
	var out []uint64
	h := l.h
	curr := pmem.Addr(h.ReadVolatile(l.head + nNext))
	for h.ReadVolatile(curr+nKey) != MaxKey {
		out = append(out, h.ReadVolatile(curr+nKey))
		curr = pmem.Addr(h.ReadVolatile(curr + nNext))
	}
	return out
}

// CheckInvariants walks the list and verifies structural invariants:
// strictly increasing keys, tail reachability, and untagged live nodes at
// quiescence. It returns a description of the first violation, or "".
func (l *List) CheckInvariants() string {
	h := l.h
	prev := h.ReadVolatile(l.head + nKey)
	curr := pmem.Addr(h.ReadVolatile(l.head + nNext))
	steps := 0
	for {
		if curr == pmem.Null {
			return "fell off the list before tail"
		}
		k := h.ReadVolatile(curr + nKey)
		if k <= prev {
			return "keys not strictly increasing"
		}
		if isb.IsTagged(h.ReadVolatile(curr + nInfo)) {
			return "live node tagged at quiescence"
		}
		if k == MaxKey {
			return ""
		}
		prev = k
		curr = pmem.Addr(h.ReadVolatile(curr + nNext))
		if steps++; steps > 1<<24 {
			return "cycle suspected"
		}
	}
}

// MarkReachable reports every node reachable from the list head to the
// post-crash reclamation scan. The walk uses p.Load so a crash can be
// injected mid-scan; the scan's transitive closure follows info-field
// records and their copies from the marked nodes. It marks and nothing
// else: the list keeps no volatile hint word for a crash to leave stale.
func (l *List) MarkReachable(p *pmem.Proc, mark func(pmem.Addr)) {
	curr := l.head
	for {
		mark(curr)
		if p.Load(curr+nKey) == MaxKey {
			return
		}
		curr = pmem.Addr(p.Load(curr + nNext))
	}
}
