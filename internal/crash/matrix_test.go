package crash

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro"
	"repro/internal/bst"
	"repro/internal/hashmap"
	"repro/internal/isb"
	"repro/internal/linearize"
	"repro/internal/list"
	"repro/internal/pmem"
	"repro/internal/queue"
	"repro/internal/stack"
)

// This file is the crash-point conformance matrix, whole: one cell axis
// (engine, eviction, allocator, forced recovery mode, lines persisted at the
// crash) crossed with subjects (structures and their prefill) and their cases
// (legs), each row checked against the responses and the final state the
// sequential model derives (expect). matrix enumerates it; the conformance
// tests each sweep one family of its rows, as raw (direct) or Runtime-routed
// (vector) Sweep instances.

// sweepHeapWords sizes a sweep heap: small, because a sweep builds one per
// crash offset, and large enough for the reclaim-churn prefill (1<<14
// exhausts the arena there).
const sweepHeapWords = 1 << 16

// engineVariant is one persistence placement under both of its names: the
// engine factory the raw structure packages take and the kind a Runtime
// takes. Storms and sweeps alike run once per variant, holding Isb and
// Isb-Opt to the same detectability bar.
type engineVariant struct {
	name string
	kind repro.EngineKind
	mk   func(h *pmem.Heap) *isb.Engine
}

var engineVariants = []engineVariant{
	{"isb", repro.EngineIsb, isb.NewEngine},
	{"isb-opt", repro.EngineIsbOpt, isb.NewEngineOpt},
}

// cell is one column of the matrix: where a subject is built.
type cell struct {
	eng engineVariant
	// evict is the heap's EvictEvery: >0 adds simulated arbitrary cache
	// evictions, widening the crash-state space (persisted state may be
	// newer than the last explicit sync).
	evict uint64
	// reclaim draws nodes from the crash-consistent reclaimer instead of the
	// leak-forever arena; mode then forces the path every recovery takes
	// (RecoverAuto leaves the garbage rule in charge). A forced-fast cell
	// audits every recovery with the scan's mark phase.
	reclaim bool
	mode    pmem.RecoveryMode
	// persist sweeps every crash point with each dirty line persisted at the
	// crash, and each complement (Instance.Persist).
	persist bool
}

// engine and alloc spell the cell in subtest paths.
func (c cell) engine() string {
	if c.evict > 0 {
		return c.eng.name + "-evict"
	}
	return c.eng.name
}

func (c cell) alloc() string {
	switch {
	case !c.reclaim:
		return "arena"
	case c.mode == pmem.RecoverFull:
		return "reclaim-full"
	}
	return "reclaim"
}

// heap builds the cell's heap for a raw-package subject.
func (c cell) heap() *pmem.Heap {
	return pmem.NewHeap(pmem.Config{
		Words: sweepHeapWords, Procs: 1, Tracked: true, Seed: 42, EvictEvery: c.evict,
	})
}

// runtime builds the cell's Runtime for a registered subject.
func (c cell) runtime() *repro.Runtime {
	rt := repro.New(repro.Config{
		Procs: 1, CrashSim: true, HeapWords: sweepHeapWords, Seed: 42,
		EvictEvery: c.evict, Engine: c.eng.kind, Reclaim: c.reclaim,
	})
	if c.reclaim {
		rt.Reclaimer().ForceRecovery(c.mode)
	}
	return rt
}

// structure is one structure of a subject: its type, its one constructor
// parameter (hash-map shards, stack elimination spins) and the operations
// that prefill it.
type structure struct {
	kind    repro.StructKind
	param   int
	prefill []repro.Op
}

// raw builds the structure straight from its package on engine e.
func (s structure) raw(h *pmem.Heap, e *isb.Engine) Applier {
	var a Applier
	switch s.kind {
	case repro.KindList:
		a = list.NewWithEngine(h, e)
	case repro.KindBST:
		a = bst.NewWithEngine(h, e)
	case repro.KindHashMap:
		a = hashmap.NewWithEngine(h, e, s.param)
	case repro.KindQueue:
		a = queue.NewWithEngine(h, e)
	case repro.KindStack:
		a = stack.NewWithEngine(h, e, s.param)
	}
	for _, op := range s.prefill {
		a.ApplyOp(h.Proc(0), op.Kind, op.Arg)
	}
	return a
}

// register builds the structure on rt, unfilled: a subject registers all of
// its structures before it prefills any.
func (s structure) register(rt *repro.Runtime) repro.Structure {
	switch s.kind {
	case repro.KindList:
		return rt.NewList()
	case repro.KindBST:
		return rt.NewBST()
	case repro.KindHashMap:
		return rt.NewHashMap(s.param)
	case repro.KindQueue:
		return rt.NewQueue()
	}
	return rt.NewStack(s.param)
}

// leg is one leg of a case: the operation and which of the subject's
// structures it runs on.
type leg struct {
	s        int
	op       repro.Op
	fromLeg1 bool // repro.TxnLeg.ArgFromLeg1
}

// sweepCase is one deterministic admission — a single operation, a window or
// an atomic transaction.
type sweepCase struct {
	name   string
	legs   []leg
	atomic bool
}

// subject is one row group of the matrix: structures, prefilled, and the
// cases swept on them.
type subject struct {
	name    string
	structs []structure
	cases   []sweepCase
}

// ops spells a run of same-kind operations.
func ops(kind uint64, args ...uint64) []repro.Op {
	out := make([]repro.Op, len(args))
	for i, a := range args {
		out[i] = repro.Op{Kind: kind, Arg: a}
	}
	return out
}

// window is a case of ops on a subject's only structure.
func window(name string, ops []repro.Op) sweepCase {
	c := sweepCase{name: name}
	for _, op := range ops {
		c.legs = append(c.legs, leg{op: op})
	}
	return c
}

// single is a one-operation case.
func single(name string, kind, arg uint64) sweepCase { return window(name, ops(kind, arg)) }

// txn is an atomic case across a subject's structures.
func txn(name string, leg1, leg2 leg) sweepCase {
	return sweepCase{name: name, legs: []leg{leg1, leg2}, atomic: true}
}

var (
	// setPrefill seeds every set under single-operation sweep; setCases is
	// the case table they share (the packages' op codes coincide).
	setPrefill = ops(repro.OpInsert, 3, 9, 14, 27, 31)
	setCases   = []sweepCase{
		single("insert-fresh", repro.OpInsert, 8),
		single("insert-dup", repro.OpInsert, 9),
		single("delete-present", repro.OpDelete, 14),
		single("delete-absent", repro.OpDelete, 15),
		single("find-present", repro.OpFind, 27),
		single("find-absent", repro.OpFind, 28),
	}
	queueCases = []sweepCase{single("enqueue", repro.OpEnq, 7), single("dequeue", repro.OpDeq, 0)}
	stackCases = []sweepCase{single("push", repro.OpPush, 7), single("pop", repro.OpPop, 0)}

	// windowSetCases interleave mutations with reads (one mid-window, one
	// terminal), so the sweep hits reads whose results must be durable
	// before the next leg's effect, and a read as the final — never
	// result-slot-covered — leg. Prefill {3, 9}. The third inserts 5 and 6,
	// neighbours in one hash-map shard too: leg 2's gather meets the tags of
	// leg 1's update, which waits for leg 2's install barrier under Isb-Opt.
	windowSetCases = []sweepCase{
		window("mixed", []repro.Op{
			{Kind: repro.OpInsert, Arg: 5}, {Kind: repro.OpFind, Arg: 5},
			{Kind: repro.OpDelete, Arg: 9}, {Kind: repro.OpInsert, Arg: 9},
		}),
		window("read-tail", []repro.Op{
			{Kind: repro.OpInsert, Arg: 5}, {Kind: repro.OpDelete, Arg: 7},
			{Kind: repro.OpFind, Arg: 3}, {Kind: repro.OpFind, Arg: 7},
		}),
		window("adjacent-inserts", ops(repro.OpInsert, 5, 6)),
	}
)

// one is a subject of a single structure.
func one(name string, kind repro.StructKind, param int, prefill []repro.Op, cases []sweepCase) subject {
	return subject{name, []structure{{kind, param, prefill}}, cases}
}

// singleSubjects are the single-operation subjects: the five structures, the
// queue and stack holding a single zero — regression instances: a removed
// value of 0 must stay distinguishable from "empty" at every crash point —
// then extra. The raw family adds the queue and stack empty and the BST's
// small shapes beside its root. The routed family adds a dequeue repeating
// the prefill's last one, which must resolve to the next value, never
// re-deliver the previous one, and stack-elim, which keeps the elimination
// window open (one proc, so every exchange times out and falls back to the
// central stack): it sweeps the announce-before-elimination entry sequence
// and the exchanger-first recovery, which elimSpins=0 never reaches. Actual
// collisions need concurrency: the elimination storms cover them.
func singleSubjects(extra ...subject) []subject {
	return append([]subject{
		one("list", repro.KindList, 0, setPrefill, setCases),
		one("bst", repro.KindBST, 0, setPrefill, setCases),
		one("hashmap", repro.KindHashMap, 4, setPrefill, setCases),
		one("queue", repro.KindQueue, 0, ops(repro.OpEnq, 5, 6), queueCases),
		one("stack", repro.KindStack, 0, ops(repro.OpPush, 5, 6), stackCases),
		one("queue-zero", repro.KindQueue, 0, ops(repro.OpEnq, 0), []sweepCase{single("dequeue-zero", repro.OpDeq, 0)}),
		one("stack-zero", repro.KindStack, 0, ops(repro.OpPush, 0), []sweepCase{single("pop-zero", repro.OpPop, 0)}),
	}, extra...)
}

// churnSubjects prefill through enough allocate/retire cycles that the swept
// operation runs against recycled memory — retired rings populated, the epoch
// advanced, reuse active — so its crash offsets also land inside slab
// adoptions and the dead-bit flips of Alloc, Free and Retire (the epoch and
// the free stacks touch no heap word). The churned keys are disjoint from
// setPrefill and every case argument, and the queue's ring drains itself
// (every dequeue retires the old dummy), so the sequential model is
// unchanged: only the allocator's state is hot.
func churnSubjects() []subject {
	var sets, ring []repro.Op
	for k := uint64(40); k <= 55; k++ {
		sets = append(sets, repro.Op{Kind: repro.OpInsert, Arg: k}, repro.Op{Kind: repro.OpDelete, Arg: k})
	}
	for v := uint64(1); v <= 32; v++ {
		ring = append(ring, repro.Op{Kind: repro.OpEnq, Arg: v}, repro.Op{Kind: repro.OpDeq})
	}
	sets = append(sets, setPrefill...)
	return []subject{
		one("list-churn", repro.KindList, 0, sets, setCases),
		one("hashmap-churn", repro.KindHashMap, 4, sets, setCases),
		one("queue-ring", repro.KindQueue, 0, append(ring, ops(repro.OpEnq, 5, 6)...), queueCases),
	}
}

// windowSubjects: all five structures. The stack cells disable elimination
// (vector legs bypass it by design; see isb.Ops.SetElimination).
func windowSubjects() []subject {
	small := ops(repro.OpInsert, 3, 9)
	return []subject{
		one("list", repro.KindList, 0, small, windowSetCases),
		one("bst", repro.KindBST, 0, small, windowSetCases),
		one("hashmap", repro.KindHashMap, 4, small, windowSetCases),
		one("queue", repro.KindQueue, 0, ops(repro.OpEnq, 7), []sweepCase{window("enq-peek-deq", []repro.Op{
			{Kind: repro.OpEnq, Arg: 41}, {Kind: repro.OpPeek}, {Kind: repro.OpDeq}, {Kind: repro.OpDeq},
		})}),
		one("stack", repro.KindStack, 0, ops(repro.OpPush, 7), []sweepCase{window("push-top-pop", []repro.Op{
			{Kind: repro.OpPush, Arg: 41}, {Kind: repro.OpTop}, {Kind: repro.OpPop}, {Kind: repro.OpPop},
		})}),
	}
}

// txnSubjects are five transaction shapes: queue→map handoff with a derived
// argument, a move between two maps (two engines), a move within one map (one
// engine, two sequence-stamped legs), an elided leg 2 (handoff from an empty
// queue), and a copy whose leg 1 is a read (the queue's front into the map):
// leg 1 takes no effect, so only leg 2's install barrier, on the other
// engine, makes the commit point durable.
func txnSubjects() []subject {
	deq, peek := leg{op: repro.Op{Kind: repro.OpDeq}}, leg{op: repro.Op{Kind: repro.OpPeek}}
	insertIt := leg{s: 1, op: repro.Op{Kind: repro.OpInsert}, fromLeg1: true}
	del5, ins5 := leg{op: repro.Op{Kind: repro.OpDelete, Arg: 5}}, leg{s: 1, op: repro.Op{Kind: repro.OpInsert, Arg: 5}}
	return []subject{
		{"handoff", []structure{{repro.KindQueue, 0, ops(repro.OpEnq, 7)}, {repro.KindHashMap, 4, ops(repro.OpInsert, 3)}},
			[]sweepCase{txn("deq-insert", deq, insertIt)}},
		{"two-map-move", []structure{{repro.KindHashMap, 2, ops(repro.OpInsert, 5)}, {repro.KindHashMap, 2, ops(repro.OpInsert, 9)}},
			[]sweepCase{txn("move", del5, ins5)}},
		{"same-map-move", []structure{{repro.KindHashMap, 4, ops(repro.OpInsert, 5)}},
			[]sweepCase{txn("rename", del5, leg{op: repro.Op{Kind: repro.OpInsert, Arg: 9}})}},
		{"empty-handoff", []structure{{repro.KindQueue, 0, nil}, {repro.KindHashMap, 2, ops(repro.OpInsert, 3)}},
			[]sweepCase{txn("deq-empty", deq, insertIt)}},
		{"copy", []structure{{repro.KindQueue, 0, ops(repro.OpEnq, 7)}, {repro.KindHashMap, 4, ops(repro.OpInsert, 3)}},
			[]sweepCase{txn("peek-insert", peek, insertIt)}},
	}
}

// family is one conformance test's share of the matrix: which subjects it
// crosses with which cells, how they are built and recovered, and how its
// subtest paths are spelled (each keeps the spelling it has always printed).
type family struct {
	name string
	// raw families build a subject from its package and recover it directly;
	// the rest register it on a Runtime and recover through RecoverAll.
	raw bool
	// crashedAt > 0 sweeps RecoverAll itself (see vector.instance).
	crashedAt uint64
	cells     []cell
	subjects  []subject
	path      func(s subject, c cell, k sweepCase) []string
}

// row is one sweep of the matrix: a case of a subject in a cell.
type row struct {
	fam  family
	path []string // nested subtest names
	sub  subject
	cell cell
	c    sweepCase
	exp  expected
}

// matrix enumerates every row, family by family.
func matrix() []row {
	// plain cells are the arena with eviction off and on; vectors add the
	// reclaimer to them, and churned and forced its forced recovery modes.
	// persisted is Isb-Opt's alone: only its install barrier carries the
	// announcement and the register, and Isb's keeps the paper's prologue
	// and RD_q pwb. Its reclaimer cell audits every recovery: the barrier
	// also carries the cleared dead bits of the blocks the install names.
	persisted := []cell{{eng: engineVariants[1], persist: true},
		{eng: engineVariants[1], persist: true, reclaim: true, mode: pmem.RecoverFast}}
	var plain, vectors, churned, forced []cell
	for _, e := range engineVariants {
		arena, evicting := cell{eng: e}, cell{eng: e, evict: 32}
		fast := cell{eng: e, reclaim: true, mode: pmem.RecoverFast}
		full := cell{eng: e, reclaim: true, mode: pmem.RecoverFull}
		plain = append(plain, arena, evicting)
		vectors = append(vectors, arena, evicting, cell{eng: e, reclaim: true})
		churned = append(churned, arena, fast, full)
		forced = append(forced, fast, full)
	}
	cellThenCase := func(s subject, c cell, k sweepCase) []string {
		return []string{s.name, c.engine(), c.alloc(), k.name}
	}
	// The crash inside RecoverAll: a churned list's insert, crashed deep
	// enough to have tagged nodes and allocated records.
	inRecovery := churnSubjects()[0]
	inRecovery.cases = setCases[:1]

	var out []row
	for _, f := range []family{
		{name: "raw", raw: true, cells: plain, subjects: singleSubjects(
			one("queue-empty", repro.KindQueue, 0, nil, []sweepCase{single("dequeue-empty", repro.OpDeq, 0)}),
			one("stack-empty", repro.KindStack, 0, nil, []sweepCase{single("pop-empty", repro.OpPop, 0)}),
			one("bst-pair", repro.KindBST, 0, ops(repro.OpInsert, 10, 20), []sweepCase{
				single("insert-between", repro.OpInsert, 15), single("delete-low", repro.OpDelete, 10),
			}),
			one("bst-triple", repro.KindBST, 0, ops(repro.OpInsert, 10, 20, 15), []sweepCase{single("delete-low", repro.OpDelete, 10)}),
		), path: func(s subject, c cell, k sweepCase) []string { return []string{s.name, c.engine(), k.name} }},
		{name: "routed", cells: plain, subjects: singleSubjects(
			one("queue-repeat", repro.KindQueue, 0, []repro.Op{{Kind: repro.OpEnq, Arg: 11}, {Kind: repro.OpEnq, Arg: 22}, {Kind: repro.OpDeq}},
				[]sweepCase{single("dequeue-again", repro.OpDeq, 0)}),
			one("stack-elim", repro.KindStack, 2, ops(repro.OpPush, 5, 6), stackCases),
		), path: func(s subject, c cell, k sweepCase) []string { return []string{c.engine(), s.name, k.name} }},
		{name: "churn", cells: churned, subjects: churnSubjects(), path: cellThenCase},
		{name: "in-recovery", crashedAt: 60, cells: forced, subjects: []subject{inRecovery},
			path: func(_ subject, c cell, _ sweepCase) []string {
				if c.mode == pmem.RecoverFull {
					return []string{c.eng.name, "full"}
				}
				return []string{c.eng.name, "fast"}
			}},
		{name: "window", cells: vectors, subjects: windowSubjects(), path: cellThenCase},
		{name: "txn", cells: vectors, subjects: txnSubjects(),
			path: func(s subject, c cell, _ sweepCase) []string { return []string{s.name, c.engine(), c.alloc()} }},
		{name: "persist", cells: persisted, subjects: append(append(singleSubjects(), windowSubjects()...), txnSubjects()...),
			path: func(s subject, c cell, k sweepCase) []string {
				if c.reclaim {
					return []string{c.eng.name + "-reclaim", s.name, k.name}
				}
				return []string{c.eng.name, s.name, k.name}
			}},
	} {
		for _, s := range f.subjects {
			for _, c := range f.cells {
				for _, k := range s.cases {
					out = append(out, row{f, f.path(s, c, k), s, c, k, expect(s, k)})
				}
			}
		}
	}
	return out
}

// build returns a fresh instance of the row: same constructors, same
// prefill, same access sequence on every call.
func (r row) build() Instance {
	if r.fam.raw {
		h := r.cell.heap()
		a := r.sub.structs[0].raw(h, r.cell.eng.mk(h))
		return Direct(h, a, Op(r.c.legs[0].op), r.exp.want[0], func() string { return sameState([]any{a}, r.exp.final) })
	}
	rt := r.cell.runtime()
	regs, structs := make([]repro.Structure, len(r.sub.structs)), make([]any, len(r.sub.structs))
	for i, s := range r.sub.structs {
		regs[i] = s.register(rt)
		structs[i] = regs[i]
	}
	for i, s := range r.sub.structs {
		for _, op := range s.prefill {
			regs[i].Apply(rt.Proc(0), op)
		}
	}
	v := vector{rt: rt, atomic: r.c.atomic, pre: func() string { return sameState(structs, r.exp.pre) }}
	for _, l := range r.c.legs {
		v.legs = append(v.legs, repro.TxnLeg{S: regs[l.s], Op: l.op, ArgFromLeg1: l.fromLeg1})
	}
	verify := func() string { return sameState(structs, r.exp.final) }
	if r.cell.reclaim && r.cell.mode == pmem.RecoverFast {
		v.audit = func() string { return auditFastRecovery(rt, rt.Heap().Epoch()) }
		verify = func() string {
			if msg := sameState(structs, r.exp.final); msg != "" {
				return msg
			}
			return v.audit()
		}
	}
	in := v.instance(verify, r.exp.want, r.fam.crashedAt)
	in.Persist = r.cell.persist
	return in
}

// inFlightBound bounds, in words, what crashes crashes leak outside the
// reclaimer's garbage account. Per crash and process: on the structure it
// was operating on, what the interrupted attempt allocated or unlinked (at
// most MaxAffect 4-word nodes) plus its Info record; on every structure,
// whatever the records its registers name name, which a full scan keeps
// alive until installs there overwrite them. Structures × (MaxAffect nodes +
// a record) covers both.
func inFlightBound(rt *repro.Runtime, crashes uint64) uint64 {
	return crashes * uint64(rt.NumProcs()*len(rt.Structures())) * (isb.MaxAffect*4 + isb.InfoWords)
}

// auditFastRecovery is the checker behind every fast recovery in the
// sweeps: if the runtime's last recovery skipped the scan, run the scan's
// mark phase read-only and hold the reclaimer's books to it — no reachable
// block on a free stack or in a ring, and no more unreachable words than
// the garbage account, the words now held and the in-flight bound of the
// crashes since the last full scan explain. It returns the first
// violation, or "". A runtime under RecoverFast never scans, so there every
// crash the heap has seen (Heap.Epoch) counts towards the bound.
func auditFastRecovery(rt *repro.Runtime, crashesSinceFull uint64) string {
	if scan, ok := rt.LastScan(); !ok || scan.Full {
		return ""
	}
	return rt.AuditReclaim().Check(inFlightBound(rt, crashesSinceFull))
}

// sameState is the one post-state oracle: each structure's snapshot — a set's
// keys ascending, a queue's values front to back, a stack's top to bottom —
// must equal, element for element, the slice the sequential model leaves, and
// then its own invariant check must pass. It takes raw-package structures and
// registered ones alike.
func sameState(structs []any, want [][]uint64) string {
	for i, s := range structs {
		got, ok := snapshot(s)
		if !ok {
			return fmt.Sprintf("structure %d (%T) has no snapshot", i, s)
		}
		if !slices.Equal(got, want[i]) {
			return fmt.Sprintf("structure %d (%T) holds %v, want %v", i, s, got, want[i])
		}
	}
	for _, s := range structs {
		if msg := s.(interface{ CheckInvariants() string }).CheckInvariants(); msg != "" {
			return msg
		}
	}
	return ""
}

// snapshot reads a structure's contents the way the sequential models spell
// them: a set's keys ascending, a queue's values front to back, a stack's top
// to bottom. ok is false for a value that is no structure.
func snapshot(s any) (contents []uint64, ok bool) {
	switch s := s.(type) {
	case interface{ Keys() []uint64 }:
		return s.Keys(), true
	case interface{ Values() []uint64 }:
		return s.Values(), true
	}
	return nil, false
}

// model is the sequential specification of a structure kind.
func model(kind repro.StructKind) linearize.Model {
	switch kind {
	case repro.KindQueue:
		return linearize.QueueModel()
	case repro.KindStack:
		return linearize.StackModel()
	}
	return linearize.SetModel()
}

// expected is what the sequential model requires of a case: each leg's
// encoded response, and each structure's snapshot before and after it (the
// one before backs the check behind an atomic case's no-effect report).
type expected struct {
	want       []uint64
	pre, final [][]uint64
}

// expect runs each structure's prefill and then the case's legs through the
// structure's sequential model (internal/linearize, whose op codes are the
// structures'). A leg whose argument derives from leg 1
// (repro.TxnLeg.ArgFromLeg1) takes leg 1's value, or is skipped when leg 1
// carried none.
func expect(s subject, c sweepCase) expected {
	models, states := make([]linearize.Model, len(s.structs)), make([]any, len(s.structs))
	for i, st := range s.structs {
		models[i] = model(st.kind)
		states[i] = models[i].Init()
		for _, op := range st.prefill {
			states[i], _ = models[i].Step(states[i], op.Kind, op.Arg)
		}
	}
	e := expected{pre: snapshots(s, states)}
	var resp uint64
	for _, l := range c.legs {
		arg := l.op.Arg
		if l.fromLeg1 && !isb.IsValue(resp) {
			resp = isb.RespSkipped
		} else {
			if l.fromLeg1 {
				arg = isb.DecodeValue(resp)
			}
			states[l.s], resp = models[l.s].Step(states[l.s], l.op.Kind, arg)
		}
		e.want = append(e.want, resp)
	}
	e.final = snapshots(s, states)
	return e
}

// snapshots spells model states the way sameState reads the structures: a
// set's keys ascending, a queue front to back, a stack top to bottom.
func snapshots(s subject, states []any) [][]uint64 {
	out := make([][]uint64, len(states))
	for i, st := range states {
		switch st := st.(type) {
		case map[uint64]bool:
			out[i] = slices.Sorted(maps.Keys(st))
		case []uint64:
			out[i] = slices.Clone(st)
			if s.structs[i].kind == repro.KindStack {
				slices.Reverse(out[i])
			}
		}
	}
	return out
}

// vector is an announced vector of legs under sweep — one leg for a single
// operation, a window's, or a transaction's atomic two — submitted through the
// Runtime and resolved the way a real application would: through RecoverAll's
// report, re-submitting exactly the legs the report proves had no effect.
type vector struct {
	rt     *repro.Runtime
	legs   []repro.TxnLeg
	atomic bool
	// pre, for an atomic vector, reports "" exactly when every structure
	// still holds its pre-admission state: the atomicity check behind a
	// no-effect report.
	pre func() string
	// audit, when non-nil, checks the reclaimer right after RecoverAll,
	// before anything re-submitted can draw on the pool it rebuilt.
	audit func() string
}

// submit admits legs[from:] and returns their responses.
func (v vector) submit(from int) []uint64 {
	p := v.rt.Proc(0)
	if v.atomic {
		r1, r2 := v.rt.ApplyTxn(p, v.legs[0], v.legs[1])
		return []uint64{r1.Raw(), r2.Raw()}
	}
	if len(v.legs) == 1 {
		return []uint64{v.legs[0].S.Apply(p, v.legs[0].Op).Raw()}
	}
	ops := make([]repro.Op, 0, len(v.legs))
	for _, l := range v.legs[from:] {
		ops = append(ops, l.Op)
	}
	var out []uint64
	for _, r := range v.rt.ApplyWindow(p, v.legs[0].S, ops) {
		out = append(out, r.Raw())
	}
	return out
}

// instance is the vector as Sweep drives it. A single operation takes the
// system-side invocation step first, as the storms do: Begin durably retires
// the previous announcement, so any report is this operation's. Longer
// vectors retire it inside the admission, under sweep.
//
// With crashedAt > 0 what is swept is RecoverAll itself: the admission is
// first crashed at that access offset and the heap restarted, unswept, and a
// crash inside the recovery that follows is resolved by running it again.
func (v vector) instance(verify func() string, want []uint64, crashedAt uint64) Instance {
	in := Instance{
		Heap:    v.rt.Heap(),
		Run:     func() ([]uint64, error) { return v.submit(0), nil },
		Resolve: v.resolve,
		Verify:  verify,
		After:   func() string { return v.duplicate(want) },
	}
	if len(v.legs) == 1 {
		in.Prepare = func() { v.legs[0].S.Begin(v.rt.Proc(0)) }
	}
	if crashedAt > 0 {
		begin := in.Prepare
		in.Prepare = func() {
			if begin != nil {
				begin()
			}
			in.Heap.ScheduleCrashAt(in.Heap.AccessCount() + crashedAt)
			if pmem.RunOp(func() { v.submit(0) }) {
				panic(fmt.Sprintf("crash: the admission completed within %d accesses; nothing left to recover", crashedAt))
			}
			v.rt.Restart()
		}
		in.Run = v.resolve
	}
	return in
}

// effectFree reports whether leg i, answering resp, changed nothing: a read,
// an update the structure found nothing to do for (an insert of a present
// key, a delete of an absent one, a dequeue or pop on empty), or a leg elided
// because leg 1 carried no value. Under Isb-Opt such a leg need leave no
// durable trace, and re-submitting it is exactly-once.
func (v vector) effectFree(i int, resp uint64) bool {
	switch resp {
	case isb.RespFalse, isb.RespEmpty, isb.RespSkipped:
		return true
	}
	for _, k := range v.legs[i].S.(interface{ OpKinds() []repro.OpKind }).OpKinds() {
		if k.Kind == v.legs[i].Op.Kind {
			return k.ReadOnly
		}
	}
	return false
}

// resolve turns a crashed replay into the full response vector: completed
// and in-flight legs take their reported responses and the no-effect suffix
// — for an atomic vector that is all of it or none — is re-submitted. No
// report proves the vector never announced, so every leg is re-submitted; so
// does, for a vector of several legs, a report of another shape (the
// prefill's last single operation, idempotently re-confirmed: the crash
// landed before this vector's record became durable). Whenever the whole of
// an atomic vector is re-submitted, pre must hold first: neither structure
// changed.
//
// It also checks the report's routing and shape: it is Proc 0's, the legs are
// the announced ones on the announced structures, and their statuses form a
// completed prefix, exactly one in-flight leg and a no-effect suffix, in that
// order — except that an atomic report is either wholly no-effect or has no
// no-effect leg at all.
func (v vector) resolve() ([]uint64, error) {
	reps := v.rt.RecoverAll()
	if len(reps) > 1 || len(reps) == 1 && reps[0].Proc != 0 {
		return nil, fmt.Errorf("single-proc sweep on proc 0 reported %+v", reps)
	}
	if v.audit != nil {
		if msg := v.audit(); msg != "" {
			return nil, errors.New(msg)
		}
	}
	got := make([]uint64, len(v.legs))
	from := 0
	if len(reps) == 1 && len(reps[0].Legs) == len(v.legs) && reps[0].Atomic == v.atomic {
		legs := reps[0].Legs
		for i, leg := range legs {
			if leg.Op != v.legs[i].Op || leg.StructID != v.legs[i].S.ID() {
				return nil, fmt.Errorf("leg %d reported as %+v on struct %d, announced %+v on %d",
					i, leg.Op, leg.StructID, v.legs[i].Op, v.legs[i].S.ID())
			}
			got[i] = leg.Resp.Raw()
		}
		completed := 0
		for completed < len(legs) && legs[completed].Status == repro.OpCompleted {
			completed++
		}
		if completed < len(legs) && legs[completed].Status == repro.OpInFlight {
			from = completed + 1
		} else if !v.atomic || completed > 0 {
			return nil, fmt.Errorf("no in-flight leg after %d completed ones: %+v", completed, legs)
		}
		for i := from; i < len(legs); i++ {
			if legs[i].Status != repro.OpNoEffect {
				return nil, fmt.Errorf("leg %d is %v after the in-flight leg %d: %+v", i, legs[i].Status, from-1, legs)
			}
		}
		if v.atomic && from != 0 && from != len(legs) {
			return nil, fmt.Errorf("atomic report resolves %d of %d legs: %+v", from, len(legs), legs)
		}
	} else if len(reps) == 1 && len(v.legs) == 1 {
		return nil, fmt.Errorf("Begin retired the previous announcement, yet RecoverAll reported %+v", reps[0])
	}
	if v.atomic && from == 0 {
		if msg := v.pre(); msg != "" {
			return nil, fmt.Errorf("no-effect transaction but pre-state check failed: %s", msg)
		}
	}
	if from < len(v.legs) {
		copy(got[from:], v.submit(from))
	}
	return got, nil
}

// duplicate is the exactly-once check under a duplicate recovery pass — the
// path a rebooted application drives when it recovers twice: a second
// RecoverAll must re-report the last announced vector (the whole admission,
// or the suffix resolve re-submitted) with every leg resolved to the same
// response, except an effect-free suffix (effectFree), which may have left no
// durable trace — an admission that installs nothing stores no record — and,
// re-submitted the way resolve does, must answer the same again.
func (v vector) duplicate(want []uint64) string {
	reps := v.rt.RecoverAll()
	if len(reps) > 1 {
		return fmt.Sprintf("reported %+v", reps)
	}
	from := 0 // legs [0, from) are re-reported; the rest is re-submitted
	if len(reps) == 1 && reps[0].Atomic == v.atomic && len(reps[0].Legs) <= len(v.legs) {
		tail := len(v.legs) - len(reps[0].Legs)
		for i, leg := range reps[0].Legs {
			if leg.Op != v.legs[tail+i].Op {
				return fmt.Sprintf("leg %d of %d re-reported as %+v, want %+v", tail+i, len(v.legs), leg, v.legs[tail+i].Op)
			}
			if leg.Status == repro.OpNoEffect {
				break
			}
			if leg.Resp.Raw() != want[tail+i] {
				return fmt.Sprintf("leg %d of %d re-reported as %+v, want %+v → %d", tail+i, len(v.legs), leg, v.legs[tail+i].Op, want[tail+i])
			}
			from = tail + i + 1
		}
	}
	if v.atomic && from != len(v.legs) {
		from = 0
	}
	for i := from; i < len(v.legs); i++ {
		if !v.effectFree(i, want[i]) {
			return fmt.Sprintf("leg %d (%+v → %d) took effect, yet recovery does not re-report it: %+v", i, v.legs[i].Op, want[i], reps)
		}
	}
	if from < len(v.legs) {
		if got := v.submit(from); !slices.Equal(got, want[from:]) {
			return fmt.Sprintf("effect-free legs %d.. re-submitted answered %v, want %v", from, got, want[from:])
		}
	}
	return ""
}
