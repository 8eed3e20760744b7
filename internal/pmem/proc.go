package pmem

import "slices"

// Proc is a process descriptor: the unit of crash-recovery in the paper's
// model. All primitive operations on the heap go through a Proc, which lets
// the simulator (a) inject crashes at any shared-memory access, (b) track
// the per-process pending write-back set required by epoch persistency, and
// (c) attribute persistence-instruction counts to the process that issued
// them. A Proc must be used by one goroutine at a time.
type Proc struct {
	h  *Heap
	id int

	stats   Stats
	rng     uint64
	crashed bool // this proc already observed the current crash

	// Individual-failure support (the paper's footnote 1: in the private
	// cache model processes may also fail individually). Proc-local, so no
	// atomics: arm from the same goroutine before running the operation.
	accesses    uint64
	selfCrashAt uint64 // 0 = disarmed

	// local bump-allocation chunk
	chunk     Addr
	chunkLeft uint64

	// lineScratch holds the lines a barrier collects for flushLines; its
	// capacity is retained across barriers.
	lineScratch []Addr

	// carry holds the lines whose write-back waits for this process's next
	// barrier, on whichever engine it is issued (see Carry). Go-side, and
	// left alone by a crash: a carried line that a crash reverted is clean,
	// and the barrier that finally names it writes back nothing.
	carry []Addr

	// barriers counts the barriers this process issued, each of which wrote
	// its carry set back. Never reset (unlike stats): the reclaimer compares
	// it to tell a carried dead bit written back from one a crash may lose.
	barriers uint64

	// syncScope is set while an admission — one operation, a batch window or
	// a transaction — has a sync scope open on this process: the ISB engines'
	// sync points defer to the scope's one closing psync instead of issuing,
	// and PWB, which still applies its line write-back synchronously (crash
	// semantics and counters are unchanged), skips the simulated clflush
	// latency — the wait is paid once, at the close. Per process, not per
	// engine: a transaction spans two engines and a process is in one
	// admission at a time. Volatile on purpose: a crash abandons the scope,
	// and ResetSyncScope — from Heap.finishReset for a system crash, from
	// every recovery entry point for an individual one — is the one teardown.
	syncScope bool

	// unsynced is set by every write-back and cleared by PSync: a sync
	// scope whose close finds it clear has nothing to order (CloseSyncScope).
	unsynced bool

	spinSink uint64 // defeats dead-code elimination of latency spins

	// Procs run on different goroutines and write their counters at every
	// access: the padding makes a Proc a whole number of cache lines, so two
	// never share one (TestProcFillsCacheLines).
	_ [40]byte
}

// ID returns the process id (0-based).
func (p *Proc) ID() int { return p.id }

// Region returns the first word of this process's reserved region:
// ProcRegionWords words the heap sets aside for it below the arena, whose
// layout is its user's (the ISB engine's announcement record).
func (p *Proc) Region() Addr { return reservedWords + Addr(p.id)*ProcRegionWords }

// Heap returns the heap this Proc belongs to.
func (p *Proc) Heap() *Heap { return p.h }

// Crash is the panic value used to simulate the loss of a process's volatile
// state. Harness code recovers it with RunOp.
type Crash struct{ ProcID int }

func (c Crash) Error() string { return "pmem: simulated crash" }

// checkCrash runs the heap's access hook (SetAccessHook), counts this access
// (tracked mode counts unconditionally; see Heap.AccessCount), panics with
// Crash if a system-wide crash is in progress, and fires a scheduled
// (system-wide or individual) crash when this access crosses the armed
// threshold.
func (p *Proc) checkCrash() {
	if !p.h.tracked {
		return
	}
	if p.h.hook != nil {
		p.h.hook(p)
	}
	if p.selfCrashAt != 0 {
		p.accesses++
		if p.accesses >= p.selfCrashAt {
			p.selfCrashAt = 0
			panic(Crash{ProcID: p.id})
		}
	}
	if p.h.crashing.Load() {
		if !p.crashed {
			p.crashed = true
			panic(Crash{ProcID: p.id})
		}
		return
	}
	var n uint64
	if h := p.h; h.single {
		h.accesses++
		n = h.accesses
	} else {
		n = h.accessCtr.Add(1)
	}
	if at := p.h.crashAt.Load(); at != 0 && n >= at && p.h.crashAt.CompareAndSwap(at, 0) {
		p.h.crashing.Store(true)
		p.crashed = true
		panic(Crash{ProcID: p.id})
	}
}

// Load atomically reads the volatile image. Load, Store and CAS test the
// heap's mode inline, so that an untracked heap pays no call into the
// simulator (heap.go, "Performance model").
func (p *Proc) Load(a Addr) uint64 {
	if p.h.tracked {
		p.checkCrash()
	}
	p.stats.Loads++
	return p.h.vol[a].Load()
}

// Store atomically writes the volatile image. In the private cache model
// (or under simulated eviction) the write also reaches the persisted image.
func (p *Proc) Store(a Addr, v uint64) {
	if p.h.tracked {
		p.checkCrash()
	}
	if a == Null {
		panic("pmem: store to Null")
	}
	p.stats.Stores++
	p.h.vol[a].Store(v)
	if p.h.tracked {
		p.afterWrite(a)
	}
}

// CAS performs Compare&Swap on the volatile image and, following the paper's
// convention, returns the value it read: the CAS succeeded iff the returned
// value equals old.
func (p *Proc) CAS(a Addr, old, new uint64) uint64 {
	if p.h.tracked {
		p.checkCrash()
	}
	if a == Null {
		panic("pmem: CAS on Null")
	}
	p.stats.CASes++
	for {
		cur := p.h.vol[a].Load()
		if cur != old {
			return cur
		}
		if p.h.vol[a].CompareAndSwap(old, new) {
			if p.h.tracked {
				p.afterWrite(a)
			}
			return old
		}
	}
}

// FetchOr sets the bits of m in the word at a and returns the word it
// replaced, atomically: one access, counted as one read-modify-write
// (Stats.CASes) whether or not a bit changed.
func (p *Proc) FetchOr(a Addr, m uint64) uint64 { return p.fetchSwap(a, m, m) }

// FetchAndNot clears the bits of m in the word at a and returns the word it
// replaced, atomically; counted as FetchOr is.
func (p *Proc) FetchAndNot(a Addr, m uint64) uint64 { return p.fetchSwap(a, m, 0) }

// fetchSwap sets the bits of m in the word at a to those of bits and
// returns the word it replaced, marking the line written if it changed. A
// CAS loop rather than sync/atomic's Or and And: Go 1.24.0 miscompiles
// their value-returning forms on amd64 (the result is taken for an address).
func (p *Proc) fetchSwap(a Addr, m, bits uint64) uint64 {
	if p.h.tracked {
		p.checkCrash()
	}
	if a == Null {
		panic("pmem: read-modify-write on Null")
	}
	p.stats.CASes++
	w := &p.h.vol[a]
	for {
		old := w.Load()
		new := old&^m | bits
		if new == old {
			return old
		}
		if w.CompareAndSwap(old, new) {
			if p.h.tracked {
				p.afterWrite(a)
			}
			return old
		}
	}
}

// CASBool is CAS with a boolean success result, for call sites that do not
// need the read value.
func (p *Proc) CASBool(a Addr, old, new uint64) bool {
	return p.CAS(a, old, new) == old
}

// afterWrite marks a's line dirty and applies private-cache persistence and
// simulated eviction: a tracked heap's write.
func (p *Proc) afterWrite(a Addr) {
	p.h.markDirty(a)
	if p.h.model == PrivateCache {
		p.h.persistLine(lineOf(a))
		return
	}
	if e := p.h.evictEvery; e > 0 {
		if p.nextRand()%e == 0 {
			p.h.persistLine(lineOf(a))
			p.stats.Evictions++
		}
	}
}

// PWB issues a persistent write-back for the cache line containing a.
// Counted as a stand-alone flush unless issued via PBarrier.
//
// The write-back is applied synchronously: the paper's evaluation simulates
// pwb with x86 clflush, which writes the line back before retiring, and the
// ISB protocol's cross-crash ABA argument (info-field values never recur,
// even through a crash) relies on tag CASes being durable right after their
// pwb. PSync retains its ordering/accounting role (the authors' mfence).
//
// What hardware this models: deferring a psync (see OpenSyncScope) is sound
// exactly where a write-back completes before the issuing process's next
// store can reach NVM — clflush, which the paper's evaluation used and this
// method implements. On clwb-class hardware, where a write-back may still be
// in flight when later stores drain, the psync between phases is what orders
// them, and the written placement (isb.NewEngine, the Isb curve) is the one
// to run.
func (p *Proc) PWB(a Addr) {
	p.checkCrash()
	if p.h.model == PrivateCache {
		return // shared variables are always persistent
	}
	p.stats.Flushes++
	p.unsynced = true
	p.pwb(a)
}

// pwb is the uncounted core of PWB, shared with PBarrier.
func (p *Proc) pwb(a Addr) {
	if p.h.pwbSpin > 0 && !p.syncScope {
		p.spin(p.h.pwbSpin)
	}
	if p.h.tracked {
		p.h.persistLine(lineOf(a))
	}
}

// PFence orders preceding PWBs before subsequent PWBs. Under TSO (which the
// paper assumes, and which Go's seq-cst atomics exceed) it has no simulated
// semantic effect beyond its accounting.
func (p *Proc) PFence() {
	p.checkCrash()
	if p.h.model == PrivateCache {
		return
	}
	p.stats.Fences++
}

// PSync waits until all previous PWBs by this process complete their write
// back. Since PWB applies synchronously (see its doc), PSync contributes
// ordering cost and accounting only.
func (p *Proc) PSync() {
	p.checkCrash()
	if p.h.model == PrivateCache {
		return
	}
	p.stats.Syncs++
	p.unsynced = false
	if p.h.psyncSpin > 0 {
		p.spin(p.h.psyncSpin)
	}
}

// Carry hands the line containing a to this process's next barrier
// (PBarrierAddrs, PBarrierRange), whichever structure or engine issues it: a
// line whose durability only has to precede what that barrier's fence
// orders. The line is written back with the barrier's own and leaves the
// carry set; until then a crash may or may not find it persisted. Lines are
// kept once however often they are carried.
func (p *Proc) Carry(a Addr) {
	if p.h.model == PrivateCache {
		return
	}
	if l := lineOf(a); !slices.Contains(p.carry, l) {
		p.carry = append(p.carry, l)
	}
}

// flushLines writes back each distinct cache line of own — the lines a
// barrier collected in lineScratch, repeats allowed — and of the carry set
// (Carry) exactly once, and empties the carry set. The carry set is distinct
// already, so dedup is a linear scan of the lines kept so far, exact for any
// barrier size. The carried lines go first, then own's in their order; no
// write-back is a crash point, so nothing observes the order. Both buffers keep their capacity, so steady-state barriers perform
// zero Go allocations (pinned by TestBarrierZeroAllocs).
func (p *Proc) flushLines(own []Addr) {
	p.barriers++
	p.lineScratch = own
	ls := p.carry
	for _, l := range own {
		if !slices.Contains(ls, l) {
			ls = append(ls, l)
		}
	}
	p.carry = ls[:0]
	for _, line := range ls {
		p.stats.LineFlushes++
		p.pwb(line)
	}
}

// PBarrier issues PWBs for the cache lines covering the given addresses
// followed by a PFence (the paper's pbarrier). It is counted once as a
// barrier, not as stand-alone flushes; each distinct line is flushed
// exactly once.
func (p *Proc) PBarrier(addrs ...Addr) {
	p.PBarrierAddrs(addrs)
}

// PBarrierAddrs issues one barrier (single pfence, counted once) covering
// the cache lines of all given addresses and every carried line (Carry),
// flushing each distinct line exactly once however many there are. This is
// the hand-tuned batching the paper describes: "all pwb instructions can be
// issued at the end of the phase, before the psync; a single pwb flushes all
// fields fitting in a cache line."
func (p *Proc) PBarrierAddrs(addrs []Addr) {
	p.checkCrash()
	if p.h.model == PrivateCache {
		return
	}
	p.stats.Barriers++
	ls := p.lineScratch[:0]
	for _, a := range addrs {
		ls = append(ls, lineOf(a))
	}
	p.flushLines(ls)
	p.stats.Fences++
	p.unsynced = true
}

// PBarrierRange issues a barrier covering [a, a+words) and every carried
// line (Carry).
func (p *Proc) PBarrierRange(a Addr, words uint64) {
	p.checkCrash()
	if p.h.model == PrivateCache {
		return
	}
	p.stats.Barriers++
	ls := p.lineScratch[:0]
	for line := lineOf(a); line < a+Addr(words); line += WordsPerLine {
		ls = append(ls, line)
	}
	p.flushLines(ls)
	p.stats.Fences++
	p.unsynced = true
}

// Alloc carves words fresh zeroed words out of the arena, even-aligned so
// bit 0 of the address is free for tags/marks. Memory is never reused
// within a run: the paper's algorithms assume a garbage collector and never
// free (README, "Crash-consistent node reclamation", says what replaces this
// leak-forever arena when Config.Reclaim is on).
func (p *Proc) Alloc(words uint64) Addr {
	p.checkCrash()
	words = (words + 1) &^ 1 // keep the local bump pointer even
	if words > p.chunkLeft {
		req := uint64(allocChunk)
		if words > req {
			req = words
		}
		p.chunk = p.h.grabChunk(req)
		p.chunkLeft = req
	}
	a := p.chunk
	p.chunk += Addr(words)
	p.chunkLeft -= words
	p.stats.AllocWords += words
	return a
}

// OpenSyncScope opens a sync scope on this process (see the syncScope
// field). The admitting runtime opens it ahead of the begin: under Isb-Opt
// the begin's psync is then one more deferred sync point; CloseSyncScope
// issues the one psync that ends the scope.
func (p *Proc) OpenSyncScope() { p.syncScope = true }

// CloseSyncScope closes the open sync scope with the single psync every
// deferred sync point and overlapped write-back was waiting for — if there is
// one: a scope in which nothing was written back since the last psync (a
// read, an effect-free update, a window of them) has nothing to order, and
// closes without it.
func (p *Proc) CloseSyncScope() {
	p.syncScope = false
	if p.unsynced {
		p.PSync()
	}
}

// ResetSyncScope abandons a sync scope a crash interrupted, without the
// closing psync: recovery runs with every sync point eager and every pwb at
// full latency.
func (p *Proc) ResetSyncScope() { p.syncScope = false }

// InSyncScope reports whether a sync scope is open on this process.
func (p *Proc) InSyncScope() bool { return p.syncScope }

// nextRand steps the per-proc xorshift PRNG.
func (p *Proc) nextRand() uint64 {
	x := p.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	p.rng = x
	return x
}

// Stats returns a copy of the per-proc instruction counters.
func (p *Proc) Stats() Stats { return p.stats }

// ResetStats zeroes the per-proc instruction counters.
func (p *Proc) ResetStats() { p.stats = Stats{} }

// ScheduleSelfCrash arms an individual failure of this process after
// roughly n more of its own accesses: the process panics with Crash, losing
// its volatile state (locals), while shared memory and other processes
// continue unaffected. This models the paper's footnote-1 failure model,
// meaningful in the private cache model where shared variables are always
// persistent. Arm from the process's own goroutine.
func (p *Proc) ScheduleSelfCrash(n uint64) {
	p.accesses = 0
	if n == 0 {
		n = 1
	}
	p.selfCrashAt = n
}

// CancelSelfCrash disarms a pending individual failure.
func (p *Proc) CancelSelfCrash() { p.selfCrashAt = 0 }

// RunOp executes f, converting a simulated crash panic into a false return.
// Any other panic propagates. It is the harness-side bracket for one
// recoverable operation (or recovery function) execution.
func RunOp(f func()) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(Crash); ok {
				completed = false
				return
			}
			panic(r)
		}
	}()
	f()
	return true
}
