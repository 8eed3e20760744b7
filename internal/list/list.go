// Package list implements the paper's detectably recoverable sorted linked
// list (Section 4, Algorithms 3–5), obtained by applying ROpt-ISB tracking
// (Algorithm 2) to a Harris-style list.
//
// The list is sorted by increasing key with sentinel head (key 0, acting as
// −∞) and tail (key MaxUint64, acting as +∞); user keys must lie strictly
// between. An operation on a sentinel's key answers false and changes
// nothing. Each node carries an info field tagged by in-progress operations.
//
// ABA freedom on next fields comes from the paper's copying rule: a
// successful Insert replaces its successor node with a fresh copy, so a
// next field never holds the same node address twice. Nodes removed or
// replaced ("retired") keep their tag forever, which forces any operation
// whose traversal ended on a retired node to help and retry.
//
// # The index
//
// A walk from the head costs a load or three per node it passes, so a list
// whose walks grow long (longWalk nodes) keeps a volatile index: a Go-side
// table whose slot j names a node keyed below j's share of the key space
// (the top bits of a key pick its slot), recorded by the walk that passed it
// with the node's reuse version (pmem.Allocator.Version) and the heap's
// crash epoch. ReadOp and the gathers' search start at the anchor of their
// key's slot, or of a slot just below, instead of the head, and a walk that
// could not use its slot's anchor records the last node it passed below that
// slot. The index is worth something when keys spread over the whole range,
// as the hash map's hash-ordered buckets do; in a list of small keys every
// key falls in slot 0, which starts at the head. Nothing persistent records
// the index: no heap word, no write-back. Neither recovery, MarkReachable nor
// the reclaimer's scan reads it or the versions, and a crash forgets it.
// Three rules make an anchor safe to start from:
//
//   - An untagged node is linked. A node is created tagged by the operation
//     that links it and untagged only after the link; an operation that
//     unlinks a node tags it first, and the node keeps that tag (retired),
//     freed too, until its block is reused. So a walk checks an anchor's
//     info word, as its first heap access, the way the paper's search reads
//     every info field: untagged, the node is in this list at that moment,
//     and the walk continues from it as if it had come from the head.
//     Tagged, the walk tries a lower slot, then the head.
//   - The info word checked is the recorded node's. Alloc moves a block's
//     version before its new owner's first store, and a walk follows an
//     anchor only if the block's version reads the recorded one both before
//     and after the info word, so the word is not a later owner's. Seen
//     linked, the node stays the walk's: the walk is pinned, and a block
//     unlinked after a pin was taken is not freed while it holds.
//   - Nothing recorded before a crash is followed after it: a walk follows
//     only anchors recorded in its own crash epoch, so a node a crash may
//     have rolled back is never checked, and no version need survive a
//     crash.
//
// A torn anchor cannot pass: a slot is a seqlock over its triple. Its
// sequence word is odd while a writer holds the slot and moves on by two at
// each record, so a reader that sees the same even sequence before and after
// the triple read one writer's. Neither sequences nor versions wrap: they
// are 64 bits, and each step is a record or an allocation.
package list

import (
	"sync/atomic"

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

	// idx is the index (see the package comment), nil until a walk grows
	// long.
	idx atomic.Pointer[index]
}

// The index's shape. The first walk of longWalk nodes gives the list an
// index of slots slots, each a 2^slotShift share of the key space. A walk
// tries at most tries slots, its key's and the ones below.
const (
	longWalk  = 64
	slotBits  = 7
	slots     = 1 << slotBits
	slotShift = 64 - slotBits
	tries     = 4
)

// index is the anchor table: slot j names a node whose key is below
// j<<slotShift.
type index [slots]anchor

// anchor is one slot, a seqlock over its triple: seq is odd while a writer
// holds the slot and moves on by two at each record; 0, the slot names
// nothing yet.
type anchor struct {
	seq   atomic.Uint64
	node  atomic.Uint64
	ver   atomic.Uint64 // the node's version
	epoch atomic.Uint64 // the heap's crash epoch
}

// load returns the slot's node and its version, and whether one writer
// recorded them in crash epoch epoch.
func (s *anchor) load(epoch uint64) (pmem.Addr, uint64, bool) {
	sq := s.seq.Load()
	nd, ver, e := s.node.Load(), s.ver.Load(), s.epoch.Load()
	return pmem.Addr(nd), ver, sq&1 == 0 && sq != 0 && e == epoch && s.seq.Load() == sq
}

// record names nd, of version ver, seen in crash epoch epoch, unless another
// writer holds the slot.
func (s *anchor) record(nd pmem.Addr, ver, epoch uint64) {
	sq := s.seq.Load()
	if sq&1 != 0 || !s.seq.CompareAndSwap(sq, sq+1) {
		return
	}
	s.node.Store(uint64(nd))
	s.ver.Store(ver)
	s.epoch.Store(epoch)
	s.seq.Store(sq + 2)
}

// walk is where a walk toward a key starts (List.start), and what it
// records on the way.
type walk struct {
	from  pmem.Addr // the head, or an anchor
	info  uint64    // an anchor's info word, read by the anchor check
	epoch uint64    // the heap's crash epoch at the start
	miss  *anchor   // the key's slot, whose anchor could not be used
	bound uint64    // the first key of that slot, 0 if miss is nil
}

// start picks the node a walk toward key (not a sentinel's) starts at: the
// anchor of key's slot, or of one of the tries-1 slots below it, the first
// recorded in this crash epoch whose block's version reads the recorded one
// before and after its untagged info word, or else the head. Call pinned
// (a.Enter).
func (l *List) start(p *pmem.Proc, a pmem.Allocator, key uint64) walk {
	w := walk{from: l.head}
	x := l.idx.Load()
	if x == nil {
		return w
	}
	j := key >> slotShift
	if j == 0 {
		return w
	}
	w.epoch = l.h.Epoch()
	for i := j; i > 0 && j-i < tries; i-- {
		nd, ver, ok := x[i].load(w.epoch)
		if !ok || a.Version(nd) != ver {
			continue
		}
		if info := p.Load(nd + nInfo); !isb.IsTagged(info) && a.Version(nd) == ver {
			w.from, w.info = nd, info
			if i == j {
				return w
			}
			break
		}
	}
	w.miss, w.bound = &x[j], j<<slotShift
	return w
}

// done ends a walk of steps nodes, whose last node below w.bound was last.
// One that could not use its slot's anchor records last there, if not the
// head, with its version; the first of longWalk or more nodes gives the list
// its index. Call pinned, as the walk ran.
func (l *List) done(w *walk, last pmem.Addr, steps int) {
	if last != pmem.Null && last != l.head {
		w.miss.record(last, l.e.Allocator().Version(last), w.epoch)
	}
	if steps >= longWalk && l.idx.Load() == nil {
		l.idx.CompareAndSwap(nil, new(index))
	}
}

// reserved reports whether key is a sentinel's: 0 or MaxKey.
func reserved(key uint64) bool { return key-1 >= MaxKey-1 }

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
// arena): without it the reclaimer could free and reuse the node the walk
// stands on — its words then another node's fields — and the walk would
// follow words that no longer belong to this list.
//
// The walk starts at an anchor of the index when it can (see the package
// comment): its key is below the walk's, and it was linked when the walk
// read its untagged info word, so the verdict is the one a walk from the
// head passing it then would reach. A sentinel's key is never a member.
func (l *List) ReadOp(p *pmem.Proc, kind, key uint64) uint64 {
	if kind != OpFind {
		panic("list: ReadOp on a mutating kind")
	}
	if reserved(key) {
		l.e.NoteReadFast(p)
		return isb.RespFalse
	}
	a := l.e.Allocator()
	a.Enter(p)
	w := l.start(p, a, key)
	curr, bound, last, steps := w.from, w.bound, pmem.Null, 0
	for k := p.Load(curr + nKey); k < key; k = p.Load(curr + nKey) {
		if k < bound {
			last = curr
		}
		curr = pmem.Addr(p.Load(curr + nNext))
		steps++
	}
	found := p.Load(curr+nKey) == key
	l.done(&w, last, steps)
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
// (each info field read on first access, per the paper). It starts at an
// anchor of the index when it can, whose info word the anchor check read
// (see ReadOp); the gather runs pinned.
func (l *List) search(p *pmem.Proc, key uint64) (pred, curr pmem.Addr, predInfo, currInfo uint64) {
	w := l.start(p, l.e.Allocator(), key)
	curr, currInfo = w.from, w.info
	if curr == l.head {
		currInfo = p.Load(curr + nInfo)
	}
	bound, last, steps := w.bound, pmem.Null, 0
	for k := p.Load(curr + nKey); k < key; k = p.Load(curr + nKey) {
		if k < bound {
			last = curr
		}
		pred, predInfo = curr, currInfo
		curr = pmem.Addr(p.Load(curr + nNext))
		currInfo = p.Load(curr + nInfo)
		steps++
	}
	l.done(&w, last, steps)
	return pred, curr, predInfo, currInfo
}

// refuse answers an operation on a sentinel's key: false, with no effect.
func refuse(spec *isb.Spec) isb.GatherResult {
	spec.ReadOnly = true
	spec.Response = isb.RespFalse
	return isb.Proceed
}

// gatherInsert builds the Insert AffectSet/WriteSet/NewSet (Algorithm 3).
func (l *List) gatherInsert(p *pmem.Proc, info pmem.Addr, spec *isb.Spec) isb.GatherResult {
	key := spec.ArgKey
	if reserved(key) {
		return refuse(spec)
	}
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
	if reserved(key) {
		return refuse(spec)
	}
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
	if reserved(key) {
		return refuse(spec)
	}
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
// strictly increasing keys, tail reachability, and no stray tag on a live
// node, the head sentinel included, at quiescence: only the update a process
// holds past its admission may leave tags (isb.Engine.StrayTag). It returns a
// description of the first violation, or "".
func (l *List) CheckInvariants() string {
	h := l.h
	if l.e.StrayTag(h.ReadVolatile(l.head + nInfo)) {
		return "head sentinel tagged at quiescence"
	}
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
		if l.e.StrayTag(h.ReadVolatile(curr + nInfo)) {
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
// else, and walks from the head: the index is Go-side, names only nodes the
// walk reaches anyway, and nothing recorded before a crash is followed after
// it, so the scan needs none of it.
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
