// Package bst implements the paper's detectably recoverable leaf-oriented
// binary search tree (Section 6): ISB-tracking applied to the non-blocking
// BST of Ellen, Fatourou, Ruppert and van Breugel, with the tree's
// flag/mark mechanism subsumed by the generic ISB tagging.
//
// The tree is external: keys live in leaves; internal nodes route searches
// (left subtree < node.key ≤ right subtree). Sentinels follow the original
// construction: the root is an internal node with key ∞₂ = MaxUint64 whose
// right child is a leaf ∞₂ and whose left child starts as a leaf
// ∞₁ = MaxUint64-1. The ∞₁ leaf remains the rightmost leaf of the left
// subtree forever, which guarantees every user leaf has both a parent and a
// grandparent — the nodes Delete must tag.
//
// Insert replaces the reached leaf with a three-node subtree (new internal,
// new leaf, and a copy of the old leaf); Delete replaces the parent with a
// copy of the leaf's sibling. All child-pointer writes install freshly
// allocated nodes, so child pointers never hold the same value twice (no
// ABA). Replaced nodes retire and stay tagged forever.
package bst

import (
	"fmt"

	"repro/internal/isb"
	"repro/internal/pmem"
)

// Node field offsets (words); internal and leaf nodes share the layout
// (leaves have Null children). 4-word allocations.
const (
	nKey   = 0
	nLeft  = 1
	nRight = 2
	nInfo  = 3

	nodeWords = 4
)

// Operation kinds for recovery and the crash harness.
const (
	OpInsert   uint64 = 1
	OpDelete   uint64 = 2
	OpFind     uint64 = 3
	OpFindFast uint64 = 4
)

// Sentinel keys; user keys must satisfy 1 <= k <= MaxUserKey.
const (
	inf2       uint64 = 1<<64 - 1
	inf1       uint64 = 1<<64 - 2
	MaxUserKey uint64 = 1<<64 - 3
)

// BST is a detectably recoverable set of uint64 keys.
type BST struct {
	h    *pmem.Heap
	e    *isb.Engine
	root pmem.Addr

	gIns, gDel, gFind, gFindFast isb.Gather
}

// NewWithEngine builds an empty tree (root + two sentinel leaves) on engine e.
func NewWithEngine(h *pmem.Heap, e *isb.Engine) *BST {
	t := &BST{h: h, e: e}
	p := h.Proc(0)
	l1 := newNode(e, p, inf1, pmem.Null, pmem.Null, 0)
	l2 := newNode(e, p, inf2, pmem.Null, pmem.Null, 0)
	t.root = newNode(e, p, inf2, l1, l2, 0)
	p.PBarrierRange(l1, nodeWords)
	p.PBarrierRange(l2, nodeWords)
	p.PBarrierRange(t.root, nodeWords)
	p.PSync()
	t.gIns = t.gatherInsert
	t.gDel = t.gatherDelete
	t.gFind = t.gatherFind
	t.gFindFast = t.gatherFindFast
	return t
}

// newNode draws a node from the engine's allocator (arena by default, the
// epoch reclaimer when the runtime enables reclamation).
func newNode(e *isb.Engine, p *pmem.Proc, key uint64, left, right pmem.Addr, info uint64) pmem.Addr {
	nd := e.Alloc(p, nodeWords)
	p.Store(nd+nKey, key)
	p.Store(nd+nLeft, uint64(left))
	p.Store(nd+nRight, uint64(right))
	p.Store(nd+nInfo, info)
	return nd
}

// gather maps an operation kind to its gather function.
func (t *BST) gather(kind uint64) isb.Gather {
	switch kind {
	case OpInsert:
		return t.gIns
	case OpDelete:
		return t.gDel
	case OpFindFast:
		return t.gFindFast
	default:
		return t.gFind
	}
}

// ApplyOp runs the operation described by (kind, arg) and returns its
// encoded response: the uniform invocation surface every structure shares.
func (t *BST) ApplyOp(p *pmem.Proc, kind, arg uint64) uint64 {
	return t.e.RunOp(p, kind, arg, t.gather(kind), nil)
}

// RecoverOp is the uniform recovery surface: it completes an interrupted
// (kind, arg) operation and returns its encoded response.
func (t *BST) RecoverOp(p *pmem.Proc, kind, arg uint64) uint64 {
	return t.e.RecoverSeq(p, kind, arg, 0, t.gather(kind))
}

// Begin is the system-side invocation step (persist CP_q := 0).
func (t *BST) Begin(p *pmem.Proc) { t.e.Begin(p, false, nil) }

// searchResult carries the gp/p/l chain of one descent plus the info
// fields gathered on first access to each node.
type searchResult struct {
	gpar, par, leaf             pmem.Addr
	gparInfo, parInfo, leafInfo uint64
}

// search descends from the root to the leaf key routes to. The root is
// always internal, so par is never Null; gpar is Null only when the leaf
// hangs directly off the root (sentinels, or a lone user subtree's leaf is
// never in that position for user keys — see the package doc).
func (t *BST) search(p *pmem.Proc, key uint64) searchResult {
	var r searchResult
	r.leaf = t.root
	r.leafInfo = p.Load(r.leaf + nInfo)
	for {
		left := pmem.Addr(p.Load(r.leaf + nLeft))
		if left == pmem.Null {
			return r // reached a leaf
		}
		r.gpar, r.gparInfo = r.par, r.parInfo
		r.par, r.parInfo = r.leaf, r.leafInfo
		if key < p.Load(r.leaf+nKey) {
			r.leaf = left
		} else {
			r.leaf = pmem.Addr(p.Load(r.leaf + nRight))
		}
		r.leafInfo = p.Load(r.leaf + nInfo)
	}
}

// childField returns the address of par's child pointer that routes key.
func childField(p *pmem.Proc, par pmem.Addr, key uint64) pmem.Addr {
	if key < p.Load(par+nKey) {
		return par + nLeft
	}
	return par + nRight
}

// gatherInsert: AffectSet = (p, l); WriteSet = {p.child: l → newInternal};
// NewSet = {newInternal, newLeaf, copy of l}. The old leaf retires.
func (t *BST) gatherInsert(p *pmem.Proc, info pmem.Addr, spec *isb.Spec) isb.GatherResult {
	key := spec.ArgKey
	r := t.search(p, key)
	leafKey := p.Load(r.leaf + nKey)
	if leafKey == key {
		spec.AddAffect(r.leaf+nInfo, r.leafInfo)
		spec.AddCleanup(r.leaf + nInfo)
		spec.ReadOnly = true
		spec.Response = isb.RespFalse
		return isb.Proceed
	}
	tagged := isb.Tagged(info)
	newLeaf := newNode(t.e, p, key, pmem.Null, pmem.Null, tagged)
	leafCopy := newNode(t.e, p, leafKey, pmem.Null, pmem.Null, tagged)
	var internal pmem.Addr
	if key < leafKey {
		internal = newNode(t.e, p, leafKey, newLeaf, leafCopy, tagged)
	} else {
		internal = newNode(t.e, p, key, leafCopy, newLeaf, tagged)
	}
	spec.AddAffect(r.par+nInfo, r.parInfo)
	spec.AddAffect(r.leaf+nInfo, r.leafInfo) // retires on success
	spec.AddWrite(childField(p, r.par, key), uint64(r.leaf), uint64(internal))
	spec.AddCleanup(r.par + nInfo)
	spec.AddCleanup(internal + nInfo)
	spec.AddCleanup(newLeaf + nInfo)
	spec.AddCleanup(leafCopy + nInfo)
	spec.AddPersist(internal, nodeWords)
	spec.AddPersist(newLeaf, nodeWords)
	spec.AddPersist(leafCopy, nodeWords)
	spec.SuccessResponse = isb.RespTrue
	return isb.Proceed
}

// gatherDelete: AffectSet = (gp, p, left-child, right-child); WriteSet =
// {gp.child: p → copy of sibling}; NewSet = {sibling copy}. p, l and the
// sibling retire; only gp (and the copy) are cleaned up.
func (t *BST) gatherDelete(p *pmem.Proc, info pmem.Addr, spec *isb.Spec) isb.GatherResult {
	key := spec.ArgKey
	r := t.search(p, key)
	if p.Load(r.leaf+nKey) != key {
		spec.AddAffect(r.leaf+nInfo, r.leafInfo)
		spec.AddCleanup(r.leaf + nInfo)
		spec.ReadOnly = true
		spec.Response = isb.RespFalse
		return isb.Proceed
	}
	if r.gpar == pmem.Null {
		// Cannot happen for user keys (the ∞₁ sentinel guarantees depth
		// ≥ 2); treat defensively as a transient inconsistency.
		return isb.Restart
	}
	// Identify the sibling and fix the (left, right) tagging order.
	left := pmem.Addr(p.Load(r.par + nLeft))
	right := pmem.Addr(p.Load(r.par + nRight))
	var sib pmem.Addr
	if left == r.leaf {
		sib = right
	} else if right == r.leaf {
		sib = left
	} else {
		// par's children changed since the descent; its info changed too,
		// so this attempt would fail tagging — restart early.
		return isb.Restart
	}
	sibInfo := p.Load(sib + nInfo)
	sibCopy := newNode(t.e, p, p.Load(sib+nKey), pmem.Addr(p.Load(sib+nLeft)),
		pmem.Addr(p.Load(sib+nRight)), isb.Tagged(info))

	spec.AddAffect(r.gpar+nInfo, r.gparInfo)
	spec.AddAffect(r.par+nInfo, r.parInfo)
	// Children in fixed left-then-right order for a consistent total order
	// across operations.
	if left == r.leaf {
		spec.AddAffect(r.leaf+nInfo, r.leafInfo)
		spec.AddAffect(sib+nInfo, sibInfo)
	} else {
		spec.AddAffect(sib+nInfo, sibInfo)
		spec.AddAffect(r.leaf+nInfo, r.leafInfo)
	}
	spec.AddWrite(childField(p, r.gpar, key), uint64(r.par), uint64(sibCopy))
	spec.AddCleanup(r.gpar + nInfo)
	spec.AddCleanup(sibCopy + nInfo)
	spec.AddPersist(sibCopy, nodeWords)
	spec.SuccessResponse = isb.RespTrue
	return isb.Proceed
}

// gatherFind: read-only, AffectSet = {l}.
func (t *BST) gatherFind(p *pmem.Proc, info pmem.Addr, spec *isb.Spec) isb.GatherResult {
	key := spec.ArgKey
	r := t.search(p, key)
	spec.AddAffect(r.leaf+nInfo, r.leafInfo)
	spec.AddCleanup(r.leaf + nInfo)
	spec.ReadOnly = true
	spec.Response = isb.BoolResp(p.Load(r.leaf+nKey) == key)
	return isb.Proceed
}

// gatherFindFast: read-only with an empty AffectSet. The descent skips the
// info fields entirely (nothing will be tagged or validated), reading only
// routing keys and child pointers — the saving the optimization is for.
func (t *BST) gatherFindFast(p *pmem.Proc, info pmem.Addr, spec *isb.Spec) isb.GatherResult {
	key := spec.ArgKey
	nd := t.root
	for {
		left := pmem.Addr(p.Load(nd + nLeft))
		if left == pmem.Null {
			break
		}
		if key < p.Load(nd+nKey) {
			nd = left
		} else {
			nd = pmem.Addr(p.Load(nd + nRight))
		}
	}
	spec.ReadOnly = true
	spec.Response = isb.BoolResp(p.Load(nd+nKey) == key)
	return isb.Proceed
}

// MarkReachable reports every tree node reachable from the root to the
// post-crash reclamation scan. It marks and nothing else: the tree keeps no
// volatile hint word.
func (t *BST) MarkReachable(p *pmem.Proc, mark func(pmem.Addr)) {
	var walk func(nd pmem.Addr)
	walk = func(nd pmem.Addr) {
		if nd == pmem.Null {
			return
		}
		mark(nd)
		left := pmem.Addr(p.Load(nd + nLeft))
		if left == pmem.Null {
			return
		}
		walk(left)
		walk(pmem.Addr(p.Load(nd + nRight)))
	}
	walk(t.root)
}

// Keys returns the user keys in order (test helper; quiescence required).
func (t *BST) Keys() []uint64 {
	var out []uint64
	var walk func(nd pmem.Addr)
	walk = func(nd pmem.Addr) {
		left := pmem.Addr(t.h.ReadVolatile(nd + nLeft))
		if left == pmem.Null {
			if k := t.h.ReadVolatile(nd + nKey); k <= MaxUserKey {
				out = append(out, k)
			}
			return
		}
		walk(left)
		walk(pmem.Addr(t.h.ReadVolatile(nd + nRight)))
	}
	walk(t.root)
	return out
}

// CheckInvariants validates the external-BST shape at quiescence: key
// routing bounds, two children per internal node, untagged live nodes, and
// the ∞₁ sentinel as the rightmost leaf of the left subtree.
func (t *BST) CheckInvariants() string {
	var err string
	var walk func(nd pmem.Addr, lo, hi uint64, depth int) (maxLeaf uint64)
	walk = func(nd pmem.Addr, lo, hi uint64, depth int) uint64 {
		if err != "" {
			return 0
		}
		if depth > 100000 {
			err = "tree implausibly deep: cycle suspected"
			return 0
		}
		if nd == pmem.Null {
			err = "Null child of an internal node"
			return 0
		}
		k := t.h.ReadVolatile(nd + nKey)
		if k < lo || k >= hi {
			err = fmt.Sprintf("key %d outside routing bounds [%d,%d)", k, lo, hi)
			return 0
		}
		if isb.IsTagged(t.h.ReadVolatile(nd + nInfo)) {
			err = "live node tagged at quiescence"
			return 0
		}
		left := pmem.Addr(t.h.ReadVolatile(nd + nLeft))
		right := pmem.Addr(t.h.ReadVolatile(nd + nRight))
		if left == pmem.Null && right == pmem.Null {
			return k
		}
		if left == pmem.Null || right == pmem.Null {
			err = "internal node with a single child"
			return 0
		}
		walk(left, lo, k, depth+1)
		return walk(right, k, hi, depth+1)
	}
	// Root: key ∞₂; right child is the ∞₂ leaf; left subtree ends at ∞₁.
	leftMax := walk(pmem.Addr(t.h.ReadVolatile(t.root+nLeft)), 0, inf2, 1)
	if err != "" {
		return err
	}
	if leftMax != inf1 {
		return fmt.Sprintf("left subtree's rightmost leaf is %d, want the ∞₁ sentinel", leftMax)
	}
	rk := t.h.ReadVolatile(pmem.Addr(t.h.ReadVolatile(t.root+nRight)) + nKey)
	if rk != inf2 {
		return "right sentinel leaf corrupted"
	}
	return ""
}
