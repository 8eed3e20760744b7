package pmem

// Allocator abstracts node allocation for the recoverable structures and
// the ISB engine. Two implementations exist:
//
//   - Arena: the original leak-forever bump allocator (Proc.Alloc). Retire,
//     Free, Enter and Exit are no-ops; memory is never reused within a run.
//     It remains the conformance oracle: every structure behaves identically
//     on it, and the differential tests pin the reclaiming allocator against
//     it.
//   - Reclaimer (reclaim.go): an epoch-based reclaimer whose persistent
//     state is a slab directory and a dead bitmap per slab, from which the
//     free pool comes back after a crash; its retired rings, epoch, pins
//     and per-process stacks of ready blocks are volatile Go-side state
//     that post-crash recovery resets, and a conservative scan is its rare
//     fallback. It never reads or writes a block's own words.
//
// The split of Free vs Retire mirrors visibility: Free returns a block that
// was never published (no other process can hold a reference — e.g. the
// fresh nodes of a gather attempt that installed nothing) and may reuse it
// immediately; Retire unlinks a block that other processes may still reach
// through in-flight helping or stale traversals, so reuse must wait for an
// epoch grace period. A never-published block its owner will use again
// needs neither: the ISB engine keeps such an attempt's Info record for the
// process's next attempt, and frees nothing for it.
type Allocator interface {
	// Alloc returns a block of at least words words, even-aligned (bit 0
	// free for tags), whose content is not promised: the arena's is zero,
	// a reused one holds whatever its last user or a crash left (the
	// Reclaimer touches none of its words). Callers must initialize every word they
	// later read, and do: a list, queue or stack node its key or value,
	// next and info words, a BST node all four (each package's newNode);
	// the ISB engine an Info record's header, the set entries it uses and
	// its admission word (install), the only words readInfo reads back.
	// The words nobody writes — a three-word node's fourth, a record's
	// unused entries — only the conservative scan reads, as possible
	// pointers: a stale one may make it keep a block, never free one.
	Alloc(p *Proc, words uint64) Addr

	// Free returns a never-published block for immediate reuse. a may be
	// any address inside the block. Unknown blocks are ignored. The caller
	// must have held the block since it was allocated from the current pool:
	// one a crash stranded goes back through Reclaimer.Return instead.
	Free(p *Proc, a Addr)

	// Retire marks the block containing a as unlinked; it becomes reusable
	// after an epoch grace period guarantees no process still holds a
	// reference. Unknown or already-retired blocks are ignored.
	Retire(p *Proc, a Addr)

	// Enter pins the calling process in the current epoch: blocks retired
	// from now on cannot be reused until the process exits (or re-enters
	// a later epoch). Re-entering refreshes the pin.
	Enter(p *Proc)

	// Exit releases the pin. A process that crashes while pinned is
	// un-pinned by the allocator's post-crash recovery.
	Exit(p *Proc)

	// Version is the reuse version of the block containing a: it moves each
	// time Alloc hands the block out, before the new owner's first store,
	// and at no other time. A volatile index (the list's anchors) that reads
	// the version it recorded a block with before and after a word of it
	// read the recorded block's word, not a later owner's. Versions are
	// Go-side, read by no recovery, and vouch for nothing across a crash.
	Version(a Addr) uint64
}

// Arena is the leak-forever allocator: a thin wrapper over the heap's bump
// pointer, preserving the seed behaviour (the paper assumes GC; retired
// nodes stay tagged forever and addresses never recur). It is stateless and
// shareable.
type Arena struct{}

// Alloc carves fresh words from the arena (never reused within a run).
func (Arena) Alloc(p *Proc, words uint64) Addr { return p.Alloc(words) }

// Free is a no-op: the arena never reuses memory.
func (Arena) Free(p *Proc, a Addr) {}

// Retire is a no-op: retired nodes leak (and stay tagged) forever.
func (Arena) Retire(p *Proc, a Addr) {}

// Enter is a no-op: with no reuse there is nothing to protect.
func (Arena) Enter(p *Proc) {}

// Exit is a no-op.
func (Arena) Exit(p *Proc) {}

// Version never moves: the arena hands no block out twice.
func (Arena) Version(a Addr) uint64 { return 0 }
