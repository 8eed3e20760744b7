package crash

import (
	"fmt"

	"repro"
	"repro/internal/bst"
	"repro/internal/hashmap"
	"repro/internal/isb"
	"repro/internal/list"
	"repro/internal/pmem"
	"repro/internal/queue"
	"repro/internal/stack"
)

// This file is the home of the crash-point conformance matrix: which
// structures are swept, under which engine placements and heap
// configurations, with which operation cases and post-state oracles. The
// conformance tests iterate it under `go test`.

// sweepHeapWords sizes a sweep heap. Sweeps rebuild the heap once per crash
// offset, so the tracked images must stay small: at 1<<16 words a rebuild
// zeroes ~1 MiB instead of the 32 MiB a benchmark-sized arena would cost
// (which used to dominate the conformance job's wall clock).
const sweepHeapWords = 1 << 16

// EngineVariant names one persistence placement (and optionally a heap
// eviction rate) the conformance matrix runs under.
type EngineVariant struct {
	Name string
	// Evict is the sweep heap's Config.EvictEvery: >0 adds simulated
	// arbitrary cache evictions, widening the crash-state space (persisted
	// state may be newer than the last explicit sync).
	Evict uint64
	New   func(h *pmem.Heap) *isb.Engine
}

// EngineVariants returns the two persistence placements every crash test
// holds to the same detectability bar.
func EngineVariants() []EngineVariant {
	return []EngineVariant{
		{Name: "isb", New: isb.NewEngine},
		{Name: "isb-opt", New: isb.NewEngineOpt},
	}
}

// SweepEngineVariants is EngineVariants plus the eviction-enabled heap
// variants the crash-point sweep additionally covers.
func SweepEngineVariants() []EngineVariant {
	return append(EngineVariants(),
		EngineVariant{Name: "isb-evict", Evict: 32, New: isb.NewEngine},
		EngineVariant{Name: "isb-opt-evict", Evict: 32, New: isb.NewEngineOpt},
	)
}

// Scenario is one (structure instance, engine variant) cell of the
// conformance matrix: a fresh-instance factory plus the operation cases to
// sweep on it.
type Scenario struct {
	Structure string // structure instance name (e.g. "list", "queue-empty")
	Engine    EngineVariant
	Build     func() SweepInstance
	Cases     []SweepCase
}

// Name identifies the scenario in test and benchmark output.
func (s Scenario) Name() string { return s.Structure + "/" + s.Engine.Name }

// sweepHeap builds the heap every sweep scenario runs on.
func sweepHeap(v EngineVariant) *pmem.Heap {
	return pmem.NewHeap(pmem.Config{
		Words: sweepHeapWords, Procs: 1, Tracked: true, Seed: 42,
		EvictEvery: v.Evict,
	})
}

// Scenarios returns the full conformance matrix over the given engine
// variants: every structure (the queue and stack with prefilled, empty and
// zero-value instances) crossed with every variant.
func Scenarios(variants []EngineVariant) []Scenario {
	var out []Scenario
	for _, v := range variants {
		v := v
		out = append(out,
			Scenario{
				Structure: "list", Engine: v,
				Build: func() SweepInstance {
					h := sweepHeap(v)
					l := list.NewWithEngine(h, v.New(h))
					p := h.Proc(0)
					for _, k := range setPrefill {
						l.Insert(p, k)
					}
					return SweepInstance{
						Heap:   h,
						Target: Adapt(l),
						Verify: setVerify(list.OpInsert, list.OpDelete, l.Keys, l.CheckInvariants),
					}
				},
				Cases: setSweepCases(list.OpInsert, list.OpDelete, list.OpFind),
			},
			Scenario{
				Structure: "bst", Engine: v,
				Build: func() SweepInstance {
					h := sweepHeap(v)
					b := bst.NewWithEngine(h, v.New(h))
					p := h.Proc(0)
					for _, k := range setPrefill {
						b.Insert(p, k)
					}
					return SweepInstance{
						Heap:   h,
						Target: Adapt(b),
						Verify: setVerify(bst.OpInsert, bst.OpDelete, b.Keys, b.CheckInvariants),
					}
				},
				Cases: setSweepCases(bst.OpInsert, bst.OpDelete, bst.OpFind),
			},
			Scenario{
				Structure: "hashmap", Engine: v,
				Build: func() SweepInstance {
					h := sweepHeap(v)
					m := hashmap.NewWithEngine(h, v.New(h), 4)
					p := h.Proc(0)
					for _, k := range setPrefill {
						m.Insert(p, k)
					}
					return SweepInstance{
						Heap:   h,
						Target: Adapt(m),
						Verify: setVerify(hashmap.OpInsert, hashmap.OpDelete, m.Keys, m.CheckInvariants),
					}
				},
				Cases: setSweepCases(hashmap.OpInsert, hashmap.OpDelete, hashmap.OpFind),
			},
			Scenario{
				Structure: "queue", Engine: v,
				Build: func() SweepInstance {
					h := sweepHeap(v)
					q := queue.NewWithEngine(h, v.New(h))
					p := h.Proc(0)
					q.Enqueue(p, 5)
					q.Enqueue(p, 6)
					return SweepInstance{
						Heap:   h,
						Target: Adapt(q),
						Verify: queueVerify(q, func(c SweepCase) []uint64 {
							if c.Op.Kind == queue.OpEnq {
								return []uint64{5, 6, c.Op.Arg}
							}
							return []uint64{6}
						}),
					}
				},
				Cases: []SweepCase{
					{"enqueue", Op{Kind: queue.OpEnq, Arg: 7}, isb.RespTrue},
					{"dequeue", Op{Kind: queue.OpDeq}, isb.EncodeValue(5)},
				},
			},
			Scenario{
				Structure: "queue-empty", Engine: v,
				Build: func() SweepInstance {
					h := sweepHeap(v)
					q := queue.NewWithEngine(h, v.New(h))
					return SweepInstance{
						Heap:   h,
						Target: Adapt(q),
						Verify: queueVerify(q, func(SweepCase) []uint64 { return nil }),
					}
				},
				Cases: []SweepCase{
					{"dequeue-empty", Op{Kind: queue.OpDeq}, isb.RespEmpty},
				},
			},
			// Regression instance: a dequeued value of 0 must stay
			// distinguishable from "empty" at every crash point (the response
			// encoding keeps payloads disjoint from RespEmpty; decoding must
			// not conflate them).
			Scenario{
				Structure: "queue-zero", Engine: v,
				Build: func() SweepInstance {
					h := sweepHeap(v)
					q := queue.NewWithEngine(h, v.New(h))
					q.Enqueue(h.Proc(0), 0)
					return SweepInstance{
						Heap:   h,
						Target: Adapt(q),
						Verify: queueVerify(q, func(SweepCase) []uint64 { return nil }),
					}
				},
				Cases: []SweepCase{
					{"dequeue-zero", Op{Kind: queue.OpDeq}, isb.EncodeValue(0)},
				},
			},
			Scenario{
				Structure: "stack", Engine: v,
				Build: func() SweepInstance {
					h := sweepHeap(v)
					s := stack.NewWithEngine(h, v.New(h), 0)
					p := h.Proc(0)
					s.Push(p, 5)
					s.Push(p, 6)
					return SweepInstance{
						Heap:   h,
						Target: Adapt(s),
						Verify: stackVerify(s, func(c SweepCase) []uint64 {
							if c.Op.Kind == stack.OpPush {
								return []uint64{c.Op.Arg, 6, 5}
							}
							return []uint64{5}
						}),
					}
				},
				Cases: []SweepCase{
					{"push", Op{Kind: stack.OpPush, Arg: 7}, isb.RespTrue},
					{"pop", Op{Kind: stack.OpPop}, isb.EncodeValue(6)},
				},
			},
			Scenario{
				Structure: "stack-empty", Engine: v,
				Build: func() SweepInstance {
					h := sweepHeap(v)
					s := stack.NewWithEngine(h, v.New(h), 0)
					return SweepInstance{
						Heap:   h,
						Target: Adapt(s),
						Verify: stackVerify(s, func(SweepCase) []uint64 { return nil }),
					}
				},
				Cases: []SweepCase{
					{"pop-empty", Op{Kind: stack.OpPop}, isb.RespEmpty},
				},
			},
			// Regression instance: a popped value of 0 must stay
			// distinguishable from "empty" at every crash point.
			Scenario{
				Structure: "stack-zero", Engine: v,
				Build: func() SweepInstance {
					h := sweepHeap(v)
					s := stack.NewWithEngine(h, v.New(h), 0)
					s.Push(h.Proc(0), 0)
					return SweepInstance{
						Heap:   h,
						Target: Adapt(s),
						Verify: stackVerify(s, func(SweepCase) []uint64 { return nil }),
					}
				},
				Cases: []SweepCase{
					{"pop-zero", Op{Kind: stack.OpPop}, isb.EncodeValue(0)},
				},
			},
		)
	}
	return out
}

// runtimeTarget drives a registered repro.Structure through its uniform
// Apply surface (the runtime-level twin of applierTarget).
type runtimeTarget struct{ s repro.Structure }

func (t runtimeTarget) Begin(p *pmem.Proc) { t.s.Begin(p) }
func (t runtimeTarget) Invoke(p *pmem.Proc, op Op) uint64 {
	return t.s.Apply(p, repro.Op{Kind: op.Kind, Arg: op.Arg}).Raw()
}
func (t runtimeTarget) Recover(p *pmem.Proc, op Op) uint64 {
	return t.s.RecoverOp(p, repro.Op{Kind: op.Kind, Arg: op.Arg}).Raw()
}

// resolveViaRecoverAll returns the SweepInstance.RecoverAll callback for a
// single-process runtime sweep: route the crashed operation through
// Runtime.RecoverAll (which, with reclamation on, first runs the
// conservative scan); an empty report means the crash preceded the durable
// announcement — the operation provably had no effect — so it is simply
// re-submitted.
func resolveViaRecoverAll(rt *repro.Runtime, tgt Target) func(p *pmem.Proc, op Op) uint64 {
	return func(p *pmem.Proc, op Op) uint64 {
		reps := rt.RecoverAll()
		if len(reps) == 0 {
			return tgt.Invoke(p, op)
		}
		return reps[len(reps)-1].Legs[0].Resp.Raw()
	}
}

// ReclaimScenario is one cell of the reclaim-churn conformance matrix: a
// runtime-level structure whose prefill churns enough allocate/retire
// cycles that the swept operation runs against recycled memory — retired
// rings populated, the epoch advanced, free-list reuse active — so every
// crash offset of the operation also lands inside Retire calls, epoch
// advances and frees. The reclaimer cells run twice — every recovery the
// fast reset (each followed by the read-only audit), then every recovery the
// full scan — and the same cells run with reclamation off as the
// leak-forever control.
type ReclaimScenario struct {
	Structure string
	Engine    string
	Reclaim   bool
	Mode      pmem.RecoveryMode // with Reclaim: RecoverFast or RecoverFull
	Build     func() SweepInstance
	Cases     []SweepCase
}

// Name identifies the cell in test output: "reclaim" is the fast leg (the
// path a crash normally takes), "reclaim-full" the forced scan.
func (s ReclaimScenario) Name() string {
	mode := "arena"
	switch {
	case s.Reclaim && s.Mode == pmem.RecoverFull:
		mode = "reclaim-full"
	case s.Reclaim:
		mode = "reclaim"
	}
	return s.Structure + "/" + s.Engine + "/" + mode
}

// reclaimChurnKeys are churned (inserted then deleted) before a reclaim
// sweep: disjoint from setPrefill and from every case argument, so the
// sequential model is unchanged — only the allocator's state is hot.
var reclaimChurnKeys = []uint64{40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55}

// reclaimRT builds the sweep runtime for one reclaim cell; with the
// reclaimer on, mode forces which recovery path every crash takes.
func reclaimRT(kind repro.EngineKind, reclaim bool, mode pmem.RecoveryMode) *repro.Runtime {
	rt := repro.New(repro.Config{
		Procs: 1, CrashSim: true, HeapWords: sweepHeapWords,
		Seed: 42, Engine: kind, Reclaim: reclaim,
	})
	if reclaim {
		rt.Reclaimer().ForceRecovery(mode)
	}
	return rt
}

// inFlightBound bounds, in words, what crashes crashes leak outside the
// reclaimer's garbage account. Per crash and process: on the structure it
// was operating on, what the interrupted attempt allocated or unlinked (at
// most MaxAffect 4-word nodes) plus its Info record; on every structure,
// the last Info record, whose pending retirement RecoverAll forgets — and a
// full scan keeps alive, until the next operation there, whatever that
// record names. Structures × (MaxAffect nodes + a record) covers both.
func inFlightBound(rt *repro.Runtime, crashes uint64) uint64 {
	return crashes * uint64(rt.NumProcs()*len(rt.Structures())) * (isb.MaxAffect*4 + isb.InfoWords)
}

// auditFastRecovery is the checker behind every fast recovery in the
// sweeps: if the runtime's last recovery skipped the scan, run the scan's
// mark phase read-only and hold the reclaimer's books to it — no reachable
// block on a free list or in a ring, and no more unreachable words than
// the garbage account, the words now held and the in-flight bound of the
// crashes since the last full scan explain. It returns the first
// violation, or "".
func auditFastRecovery(rt *repro.Runtime, crashesSinceFull uint64) string {
	if scan, ok := rt.LastScan(); !ok || scan.Full {
		return ""
	}
	return rt.AuditReclaim().Check(inFlightBound(rt, crashesSinceFull))
}

// auditForcedFast is auditFastRecovery for a runtime under RecoverFast: it
// never scans, so every crash the heap has seen counts towards the bound.
func auditForcedFast(rt *repro.Runtime) string {
	return auditFastRecovery(rt, rt.Heap().Epoch())
}

// auditedVerify chains the fast-recovery audit onto a sweep instance's
// post-state check.
func auditedVerify(rt *repro.Runtime, verify func(SweepCase) string) func(SweepCase) string {
	return func(c SweepCase) string {
		if msg := verify(c); msg != "" {
			return msg
		}
		return auditForcedFast(rt)
	}
}

// ReclaimScenarios returns the reclaim-churn conformance matrix: list,
// hashmap (insert/delete churn) and queue (enqueue/dequeue ring) × both
// public engine kinds × {arena, reclaimer with every recovery fast,
// reclaimer with every recovery a full scan}, recovery routed through
// Runtime.RecoverAll so a crashed replay exercises the reclaimer's
// recovery before the announced operation resolves.
func ReclaimScenarios() []ReclaimScenario {
	var out []ReclaimScenario
	for _, eng := range []struct {
		name string
		kind repro.EngineKind
	}{{"isb", repro.EngineIsb}, {"isb-opt", repro.EngineIsbOpt}} {
		for _, cell := range []struct {
			rec  bool
			mode pmem.RecoveryMode
		}{{false, pmem.RecoverAuto}, {true, pmem.RecoverFast}, {true, pmem.RecoverFull}} {
			eng, rec, mode := eng, cell.rec, cell.mode
			out = append(out,
				ReclaimScenario{
					Structure: "list-churn", Engine: eng.name, Reclaim: rec, Mode: mode,
					Build: func() SweepInstance {
						rt := reclaimRT(eng.kind, rec, mode)
						l := rt.NewList()
						p := rt.Proc(0)
						for _, k := range reclaimChurnKeys {
							l.Insert(p, k)
							l.Delete(p, k)
						}
						for _, k := range setPrefill {
							l.Insert(p, k)
						}
						tgt := runtimeTarget{l}
						return SweepInstance{
							Heap:       rt.Heap(),
							Target:     tgt,
							Verify:     auditedVerify(rt, setVerify(list.OpInsert, list.OpDelete, l.Keys, l.CheckInvariants)),
							RecoverAll: resolveViaRecoverAll(rt, tgt),
						}
					},
					Cases: setSweepCases(list.OpInsert, list.OpDelete, list.OpFind),
				},
				ReclaimScenario{
					Structure: "hashmap-churn", Engine: eng.name, Reclaim: rec, Mode: mode,
					Build: func() SweepInstance {
						rt := reclaimRT(eng.kind, rec, mode)
						m := rt.NewHashMap(4)
						p := rt.Proc(0)
						for _, k := range reclaimChurnKeys {
							m.Insert(p, k)
							m.Delete(p, k)
						}
						for _, k := range setPrefill {
							m.Insert(p, k)
						}
						tgt := runtimeTarget{m}
						return SweepInstance{
							Heap:       rt.Heap(),
							Target:     tgt,
							Verify:     auditedVerify(rt, setVerify(hashmap.OpInsert, hashmap.OpDelete, m.Keys, m.CheckInvariants)),
							RecoverAll: resolveViaRecoverAll(rt, tgt),
						}
					},
					Cases: setSweepCases(hashmap.OpInsert, hashmap.OpDelete, hashmap.OpFind),
				},
				ReclaimScenario{
					Structure: "queue-ring", Engine: eng.name, Reclaim: rec, Mode: mode,
					Build: func() SweepInstance {
						rt := reclaimRT(eng.kind, rec, mode)
						q := rt.NewQueue()
						p := rt.Proc(0)
						// Enqueue/dequeue ring: every dequeue retires the old
						// dummy, so the ring cycles the same small working set
						// through the retired rings and free lists.
						for i := uint64(1); i <= 32; i++ {
							q.Enqueue(p, i)
							q.Dequeue(p)
						}
						q.Enqueue(p, 5)
						q.Enqueue(p, 6)
						tgt := runtimeTarget{q}
						return SweepInstance{
							Heap:   rt.Heap(),
							Target: tgt,
							Verify: auditedVerify(rt, queueVerify2(q.Values, q.CheckInvariants, func(c SweepCase) []uint64 {
								if c.Op.Kind == queue.OpEnq {
									return []uint64{5, 6, c.Op.Arg}
								}
								return []uint64{6}
							})),
							RecoverAll: resolveViaRecoverAll(rt, tgt),
						}
					},
					Cases: []SweepCase{
						{"enqueue", Op{Kind: queue.OpEnq, Arg: 7}, isb.RespTrue},
						{"dequeue", Op{Kind: queue.OpDeq}, isb.EncodeValue(5)},
					},
				},
			)
		}
	}
	return out
}

// queueVerify2 checks a sequence snapshot against the sequential model (the
// runtime-level twin of queueVerify, taking accessors instead of a *Queue).
func queueVerify2(values func() []uint64, invariants func() string, want func(c SweepCase) []uint64) func(SweepCase) string {
	return func(c SweepCase) string {
		w := want(c)
		got := values()
		if len(got) != len(w) {
			return fmt.Sprintf("queue %v, want %v", got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				return fmt.Sprintf("queue %v, want %v", got, w)
			}
		}
		return invariants()
	}
}

// respBool encodes a boolean operation response.
func respBool(b bool) uint64 {
	if b {
		return isb.RespTrue
	}
	return isb.RespFalse
}

// setPrefill seeds every set-like structure before a sweep.
var setPrefill = []uint64{3, 9, 14, 27, 31}

// setSweepCases builds the shared set case table from a structure's op
// codes (list and hashmap share the list's; the BST has its own constants
// with identical values).
func setSweepCases(opIns, opDel, opFind uint64) []SweepCase {
	return []SweepCase{
		{"insert-fresh", Op{Kind: opIns, Arg: 8}, respBool(true)},
		{"insert-dup", Op{Kind: opIns, Arg: 9}, respBool(false)},
		{"delete-present", Op{Kind: opDel, Arg: 14}, respBool(true)},
		{"delete-absent", Op{Kind: opDel, Arg: 15}, respBool(false)},
		{"find-present", Op{Kind: opFind, Arg: 27}, respBool(true)},
		{"find-absent", Op{Kind: opFind, Arg: 28}, respBool(false)},
	}
}

// setExpect is the sequential model: prefill, then the case's op applied.
func setExpect(opIns, opDel uint64, op Op) map[uint64]bool {
	w := map[uint64]bool{}
	for _, k := range setPrefill {
		w[k] = true
	}
	switch op.Kind {
	case opIns:
		w[op.Arg] = true
	case opDel:
		delete(w, op.Arg)
	}
	return w
}

// setVerify compares a snapshot against the sequential model and then runs
// the structure's own invariant check.
func setVerify(opIns, opDel uint64, keys func() []uint64, invariants func() string) func(SweepCase) string {
	return func(c SweepCase) string {
		want := setExpect(opIns, opDel, c.Op)
		got := keys()
		if len(got) != len(want) {
			return fmt.Sprintf("key set %v, want %v", got, keysOf(want))
		}
		for _, k := range got {
			if !want[k] {
				return fmt.Sprintf("unexpected key %d (set %v)", k, got)
			}
		}
		return invariants()
	}
}

func keysOf(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// queueVerify checks the queue's remaining values front-to-back.
func queueVerify(q *queue.Queue, want func(c SweepCase) []uint64) func(SweepCase) string {
	return func(c SweepCase) string {
		w := want(c)
		got := q.Values()
		if len(got) != len(w) {
			return fmt.Sprintf("queue %v, want %v", got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				return fmt.Sprintf("queue %v, want %v", got, w)
			}
		}
		return q.CheckInvariants()
	}
}

// stackVerify checks the stack's remaining values top-to-bottom.
func stackVerify(s *stack.Stack, want func(c SweepCase) []uint64) func(SweepCase) string {
	return func(c SweepCase) string {
		w := want(c)
		got := s.Values()
		if len(got) != len(w) {
			return fmt.Sprintf("stack %v, want %v", got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				return fmt.Sprintf("stack %v, want %v", got, w)
			}
		}
		return s.CheckInvariants()
	}
}
