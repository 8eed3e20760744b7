package pmem

// Allocator abstracts node allocation for the recoverable structures and
// the ISB engine. Two implementations exist:
//
//   - Arena: the original leak-forever bump allocator (Proc.Alloc). Retire,
//     Free, Enter and Exit are no-ops; memory is never reused within a run.
//     It remains the conformance oracle: every structure behaves identically
//     on it, and the differential tests pin the reclaiming allocator against
//     it.
//   - Reclaimer (reclaim.go): an epoch-based reclaimer whose only persistent
//     state is a slab directory; its retired rings, epoch, pins and
//     free-list heads are volatile Go-side state that post-crash recovery
//     resets, and a conservative scan rebuilds from reachability.
//
// The split of Free vs Retire mirrors visibility: Free returns a block that
// was never published (no other process can hold a reference — e.g. the
// fresh nodes of a gather attempt that restarted before its Info record was
// installed) and may reuse it immediately; Retire unlinks a block that other
// processes may still reach through in-flight helping or stale traversals,
// so reuse must wait for an epoch grace period.
type Allocator interface {
	// Alloc returns a zeroed-or-overwritable block of at least words words,
	// even-aligned (bit 0 free for tags). Callers must initialize every
	// word they later read.
	Alloc(p *Proc, words uint64) Addr

	// Free returns a never-published block for immediate reuse. a may be
	// any address inside the block. Unknown blocks are ignored.
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

	// BlockOf resolves an interior pointer to its containing block's start
	// and size; ok is false if a is not inside any block this allocator
	// manages.
	BlockOf(a Addr) (start Addr, words uint64, ok bool)
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

// BlockOf reports no containment: the arena keeps no block metadata.
func (Arena) BlockOf(a Addr) (Addr, uint64, bool) { return 0, 0, false }
