package isb_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/crash"
	"repro/internal/isb"
	"repro/internal/list"
	"repro/internal/pmem"
	"repro/internal/queue"
)

// listPrefill is what every swept list holds before its operation.
var listPrefill = []uint64{10, 30}

// listOps are the swept operations; each succeeds, and the inverse of each is
// its follow-up on the same key.
var listOps = []struct {
	name               string
	kind, inverse, key uint64
	want               []uint64
}{
	{"insert", list.OpInsert, list.OpDelete, 20, []uint64{10, 20, 30}},
	{"delete", list.OpDelete, list.OpInsert, 30, []uint64{10}},
}

// crashPoint is one crash of sweepEvicting, handed over after recovery.
type crashPoint struct {
	h         *pmem.Heap
	e         *isb.Engine
	l         *list.List
	p         *pmem.Proc
	kind, key uint64
	inverse   uint64
	all       isb.Durable  // persisted at the crash
	at        isb.Register // of all, the register whose CP_q is the admission number, if any
	keysAt    []uint64     // persisted at the crash
	tagged    int          // CleanupSet entries persisted tagged by at's record at the crash
}

// newList builds a list holding listPrefill, under Isb-Opt (opt) or Isb, on
// a heap that persists the line of one in evictEvery stores at once (0:
// none), and returns it with its heap, engine and Proc 0.
func newList(opt bool, evictEvery uint64) (*pmem.Heap, *isb.Engine, *list.List, *pmem.Proc) {
	h := pmem.NewHeap(pmem.Config{Words: 1 << 16, Procs: 1, Tracked: true, EvictEvery: evictEvery})
	e := isb.NewEngine(h)
	if opt {
		e = isb.NewEngineOpt(h)
	}
	e.SetAnnounceID(1, isb.NewRecords(h))
	l := list.NewWithEngine(h, e)
	p := h.Proc(0)
	for _, k := range listPrefill {
		l.Insert(p, k)
	}
	return h, e, l, p
}

// sweepEvicting runs each of listOps, under Isb-Opt (opt) or Isb, on a fresh
// list whose heap persists every store's line at once (EvictEvery 1: a crash
// persists exactly the stores before it), with a system-wide crash at every
// access (crash.Sweep), one subtest per operation. The system-side Begin
// runs before the crash is armed, so every sweep starts from a durable CP_q
// older than the admission number. After each crash the operation is
// recovered, its response and the list's state checked, and visit gets the
// crash point: it returns a violation, or "".
func sweepEvicting(t *testing.T, opt bool, visit func(c crashPoint) string) {
	for _, op := range listOps {
		t.Run(fmt.Sprintf("opt=%v/%s", opt, op.name), func(t *testing.T) {
			n := crash.SweepTest(t, func() crash.Instance {
				h, e, l, p := newList(opt, 1)
				var c *crashPoint // the crash, once recovered
				return crash.Instance{
					Heap:    h,
					Prepare: func() { l.Begin(p) },
					Run:     func() ([]uint64, error) { return []uint64{l.ApplyOp(p, op.kind, op.key)}, nil },
					Resolve: func() ([]uint64, error) {
						// the volatile image is now the persisted one
						c = &crashPoint{h: h, e: e, l: l, p: p, kind: op.kind, key: op.key, inverse: op.inverse, all: e.Durable(p)}
						c.at = c.all.Current()
						for _, a := range c.at.Cleanup {
							if h.ReadPersisted(a) == isb.Tagged(c.at.RD) {
								c.tagged++
							}
						}
						c.keysAt = l.Keys()
						return []uint64{l.RecoverLeg(p, 0, op.kind, op.key)}, nil
					},
					Verify: func() string {
						if ks := l.Keys(); !slices.Equal(ks, op.want) {
							return fmt.Sprintf("keys %v after recovery, want %v", ks, op.want)
						}
						if msg := l.CheckInvariants(); msg != "" || c == nil {
							return msg
						}
						return visit(*c)
					},
				}
			}, []uint64{isb.RespTrue})
			if n < 20 {
				t.Fatalf("only %d crash points; the sweep is not reaching inside the operation", n)
			}
		})
	}
}

// TestFirstInstallRaisesCPCrash pins where Isb-Opt raises CP_q: with the
// prologue gone, an install stores RD_q := info, then CP_q := the admission
// number, into the register its barrier writes back. Crashed at every access
// of an insert and a delete, a persisted register may show CP_q equal to the
// admission number only with RD_q naming this operation's record — stamped
// with its kind, key and leg index — and both stale only with the list
// untouched. The (this record, old number) pair, which the Null prologue used
// to rule out, must occur and must recover as not installed: recovery
// re-invokes, and a new record replaces it in its register.
func TestFirstInstallRaisesCPCrash(t *testing.T) {
	ownStale := map[uint64]int{}
	sweepEvicting(t, true, func(c crashPoint) string {
		current := false
		for _, reg := range c.all.Regs {
			own := reg.RD != pmem.Null && reg.Kind == c.kind && reg.Key == c.key && reg.Seq == 0
			switch {
			case reg.CP == c.all.Adm && !own:
				return fmt.Sprintf("CP_q = admission %d persisted with RD_q = %d stamped (kind %d, key %d, seq %d), want (%d, %d, 0)",
					c.all.Adm, reg.RD, reg.Kind, reg.Key, reg.Seq, c.kind, c.key)
			case reg.CP == c.all.Adm:
				current = true
			case own:
				ownStale[c.kind]++
				if c.e.Durable(c.p).Names(reg.RD) {
					return fmt.Sprintf("recovery kept RD_q = %d, which a stale CP_q names: it helped the record instead of re-invoking", reg.RD)
				}
			}
		}
		if !current && !slices.Equal(c.keysAt, listPrefill) {
			return fmt.Sprintf("stale CP_q in both registers (admission %d) persisted with keys %v, want %v", c.all.Adm, c.keysAt, listPrefill)
		}
		return ""
	})
	for _, op := range listOps {
		if ownStale[op.kind] == 0 {
			t.Errorf("%s: no crash persisted RD_q = this operation's record with a stale CP_q", op.name)
		}
	}
}

// TestDoneRidesCleanupBarrierCrash pins where an update's cleanup — its done
// flag and its untags — becomes durable, on both engines, in two sweeps.
//
// The operation itself, crashed at every access on a heap that persists
// every store's line at once: the invoker stores done as the cleanup phase
// starts, so eviction makes it durable while some untags are not. Every
// crash that left the record durably done must recover with no CleanupSet
// node tagged by the record, volatile or persisted — Help on a done record
// re-runs the untags.
//
// The deferral window: under Isb the cleanup phase ends with its barrier
// before the response, and under Isb-Opt, inside the operation's sync scope,
// it rides the process's next barrier, the next install's. An insert and a
// delete each complete; then the follow-up on the same key, begin included,
// is crashed at every access on a heap that never evicts, so persistent
// memory holds exactly what was written back. Isb-Opt must leave some crash
// with an untag of the completed operation still volatile, and Isb none, and
// no crash may find one volatile once the follow-up's record is installed.
// Every crash must recover the follow-up to its response and the list to its
// prefill, with no node tagged by the completed operation's record, volatile
// or persisted: recovery — or, after a crash inside the begin, the retried
// begin — settles it (Engine.Settle).
//
// After either recovery the next operation on the key must finish in one
// attempt: a tag left behind would send it to help and retry, allocating a
// second record.
func TestDoneRidesCleanupBarrierCrash(t *testing.T) {
	oneAttempt := func(l *list.List, p *pmem.Proc, kind, key uint64) string {
		before := p.Stats().AllocWords
		if r := l.ApplyOp(p, kind, key); !isb.Bool(r) {
			return fmt.Sprintf("next operation (kind %d) on key %d answered %d, want true", kind, key, r)
		}
		if words := p.Stats().AllocWords - before; words >= 2*isb.InfoWords {
			return fmt.Sprintf("next operation (kind %d) on key %d allocated %d words: more than one attempt", kind, key, words)
		}
		return ""
	}
	for _, opt := range []bool{false, true} {
		done, partial := 0, 0
		sweepEvicting(t, opt, func(c crashPoint) string {
			if c.at.CP != c.all.Adm || c.at.Done == 0 || c.at.Kind != c.kind || c.at.Key != c.key {
				return ""
			}
			done++
			if c.tagged > 0 {
				partial++
			}
			for _, a := range c.at.Cleanup {
				if c.h.ReadVolatile(a) == isb.Tagged(c.at.RD) || c.h.ReadPersisted(a) == isb.Tagged(c.at.RD) {
					return fmt.Sprintf("node field %d still tagged by the done record %d after recovery", a, c.at.RD)
				}
			}
			return oneAttempt(c.l, c.p, c.inverse, c.key)
		})
		if partial == 0 {
			t.Fatalf("opt=%v: none of %d crashes with a durable done flag left an untag volatile", opt, done)
		}
		t.Logf("opt=%v: %d crashes left the record durably done, %d of them with an untag volatile", opt, done, partial)
	}
	for _, opt := range []bool{false, true} {
		crashes, volatile := 0, 0
		for _, op := range listOps {
			for off := uint64(1); ; off++ {
				h, e, l, p := newList(opt, 0)
				l.Begin(p)
				if r := l.ApplyOp(p, op.kind, op.key); !isb.Bool(r) {
					t.Fatalf("opt=%v %s: answered %d, want true", opt, op.name, r)
				}
				before := e.Durable(p)
				done := before.Current()
				h.ScheduleCrashAt(h.AccessCount() + off)
				began := false
				crashed := !pmem.RunOp(func() {
					l.Begin(p)
					began = true
					l.ApplyOp(p, op.inverse, op.key)
				})
				h.DisarmCrash()
				if !crashed {
					break
				}
				crashes++
				now := e.Durable(p) // the follow-up's install barrier ran: a register names its record
				installed := now.Regs[0].RD != before.Regs[0].RD || now.Regs[1].RD != before.Regs[1].RD
				for _, a := range done.Cleanup {
					if h.ReadPersisted(a) == isb.Tagged(done.RD) && h.ReadVolatile(a) != isb.Tagged(done.RD) {
						if installed {
							t.Fatalf("opt=%v %s offset %d: the follow-up's install barrier did not carry the untag of node field %d", opt, op.name, off, a)
						}
						volatile++
						break
					}
				}
				h.ResetAfterCrash()
				var r uint64
				if began {
					r = l.RecoverLeg(p, 0, op.inverse, op.key)
				} else { // a crashed begin is retried, not recovered
					l.Begin(p)
					r = l.ApplyOp(p, op.inverse, op.key)
				}
				if !isb.Bool(r) {
					t.Fatalf("opt=%v %s offset %d: follow-up answered %d, want true", opt, op.name, off, r)
				}
				if ks := l.Keys(); !slices.Equal(ks, listPrefill) {
					t.Fatalf("opt=%v %s offset %d: keys %v after the follow-up, want %v", opt, op.name, off, ks, listPrefill)
				}
				if msg := l.CheckInvariants(); msg != "" {
					t.Fatalf("opt=%v %s offset %d: %s", opt, op.name, off, msg)
				}
				for _, a := range done.Cleanup {
					if h.ReadVolatile(a) == isb.Tagged(done.RD) || h.ReadPersisted(a) == isb.Tagged(done.RD) {
						t.Fatalf("opt=%v %s offset %d: node field %d still tagged by the completed record %d", opt, op.name, off, a, done.RD)
					}
				}
				if msg := oneAttempt(l, p, op.kind, op.key); msg != "" {
					t.Fatalf("opt=%v %s offset %d: %s", opt, op.name, off, msg)
				}
			}
		}
		if opt && volatile == 0 {
			t.Fatalf("isb-opt: none of %d crashes after a completed update left one of its untags volatile", crashes)
		}
		if !opt && volatile != 0 {
			t.Fatalf("isb: %d of %d crashes after a completed update left one of its untags volatile", volatile, crashes)
		}
		t.Logf("opt=%v: %d crashes after a completed update, %d with one of its untags volatile", opt, crashes, volatile)
	}
}

// TestDeferredCleanupRecycledSurvivor crashes an Isb-Opt enqueue whose
// deferred cleanup never got its barrier, after the node it linked behind
// has been recycled. Proc 0 enqueues on q1: the update links the new node
// behind q1's dummy, and the untags and done flag wait for Proc 0's next
// barrier, which never comes. Proc 1 dequeues q1, tagging and retiring that
// dummy (its untag is only volatile), and enqueues on q2 until the shared
// reclaimer hands the dummy's block to one of them: the enqueues' retired
// records fill Proc 1's ring until it frees, and q2 retires no node, so the
// dummy is the first node block on its free stack. The crash then
// finds Proc 0's record with its result set, done unset and the new node
// still tagged. Recovering both queues (the reclaimer, the queues' tail
// hints, then Settle on each engine, as Runtime.RecoverAll does) must finish
// that cleanup without re-running the update: its CAS on the dummy's next
// field would now link q1's node behind q2's last.
func TestDeferredCleanupRecycledSurvivor(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Words: 1 << 18, Procs: 2, Tracked: true})
	r := pmem.NewReclaimer(h)
	var engines [2]*isb.Engine
	var queues [2]*queue.Queue
	for i := range engines {
		engines[i] = isb.NewEngineOpt(h)
		engines[i].SetAllocator(r)
		queues[i] = queue.NewWithEngine(h, engines[i])
	}
	q1, q2 := queues[0], queues[1]
	p0, p1 := h.Proc(0), h.Proc(1)

	q1.ApplyOp(p0, queue.OpEnq, 1)
	enq := engines[0].Durable(p0).Current() // CleanupSet: the dummy's info field, then the new node's
	if r := q1.ApplyOp(p1, queue.OpDeq, 0); r != isb.EncodeValue(1) {
		t.Fatalf("q1 dequeue answered %d, want 1", r)
	}
	q1.ApplyOp(p1, queue.OpDeq, 0) // empty: its install retires the dummy
	var want []uint64
	reused := false
	for v := uint64(1); v <= 1000 && !reused; v++ {
		q2.ApplyOp(p1, queue.OpEnq, v)
		want = append(want, v)
		reused = engines[1].Durable(p1).Current().Cleanup[1] == enq.Cleanup[0]
	}
	if !reused {
		t.Fatal("the reclaimer never handed q1's old dummy to an enqueue on q2")
	}
	if at := engines[0].Durable(p0).Current(); at.RD != enq.RD || at.Done != 0 || h.ReadPersisted(enq.Cleanup[1]) != isb.Tagged(enq.RD) {
		t.Fatalf("persisted: RD_0 %d, done %d, new node's info %d; want the enqueue's record %d, not done, its new node tagged",
			at.RD, at.Done, h.ReadPersisted(enq.Cleanup[1]), enq.RD)
	}

	h.Crash()
	h.ResetAfterCrash()
	r.Recover(p0, func(mark func(pmem.Addr)) {
		for i := range queues {
			queues[i].MarkReachable(p0, mark)
			engines[i].MarkReachable(p0, mark)
		}
	})
	for i := range queues {
		queues[i].RepairTail(p0)
		engines[i].Settle(p0)
	}
	if vs := q1.Values(); len(vs) != 0 {
		t.Errorf("q1 holds %v after recovery, want nothing", vs)
	}
	if vs := q2.Values(); !slices.Equal(vs, want) {
		t.Errorf("q2 holds %v after recovery, want %v", vs, want)
	}
	for i, q := range queues {
		if msg := q.CheckInvariants(); msg != "" {
			t.Errorf("q%d: %s", i+1, msg)
		}
	}
}

// TestSettleFlagsDone crashes an Isb-Opt dequeue whose done flag never got
// its barrier, and then lets its operand recycle. Proc 0 dequeues: the scope
// close writes the update back, and the done flag waits for Proc 0's next
// barrier, which the crash preempts. Recovery settles the record, and Proc
// 0's next install retires the old dummy — the Go-side schedule outlives the
// crash — while its other register still names the dequeue's record. After a
// second crash Proc 1 enqueues until the reclaimer hands it that dummy's
// block, then dequeues until the block is the dummy again. A third crash
// must not let the dequeue's record, still named and evident, re-run its
// update: its CAS on Head, from the recycled dummy, would put the dequeued
// nodes back on the queue. Settle therefore flags done an update without a
// CleanupSet it finishes, as the invoker would have.
func TestSettleFlagsDone(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Words: 1 << 18, Procs: 2, Tracked: true})
	r := pmem.NewReclaimer(h)
	e := isb.NewEngineOpt(h)
	e.SetAllocator(r)
	q := queue.NewWithEngine(h, e)
	p0, p1 := h.Proc(0), h.Proc(1)
	crash := func() {
		h.Crash()
		h.ResetAfterCrash()
		r.Recover(p0, func(mark func(pmem.Addr)) {
			q.MarkReachable(p0, mark)
			e.MarkReachable(p0, mark)
		})
		q.RepairTail(p0)
		e.Settle(p0)
	}

	q.ApplyOp(p1, queue.OpEnq, 1)
	dummy := e.Durable(p1).Current().Cleanup[0] // the first dummy's info field
	q.ApplyOp(p1, queue.OpEnq, 2)
	if v := q.ApplyOp(p0, queue.OpDeq, 0); v != isb.EncodeValue(1) {
		t.Fatalf("dequeue answered %d, want 1", v)
	}
	deq := e.Durable(p0).Current()
	crash()
	if d := e.Durable(p0); !slices.ContainsFunc(d.Regs[:], func(reg isb.Register) bool { return reg.RD == deq.RD && reg.Done != 0 }) {
		t.Fatalf("after recovery no register names the dequeue's record %d durably done: %+v", deq.RD, d)
	}
	q.ApplyOp(p0, queue.OpEnq, 3) // retires the first dummy
	crash()
	want := []uint64{2, 3}
	reused := false
	for v := uint64(10); v < 1000 && !reused; v++ {
		q.ApplyOp(p1, queue.OpEnq, v)
		want = append(want, v)
		reused = e.Durable(p1).Current().Cleanup[1] == dummy
	}
	if !reused {
		t.Fatal("the reclaimer never handed the first dummy to an enqueue")
	}
	for len(want) > 0 {
		if got := q.ApplyOp(p1, queue.OpDeq, 0); got != isb.EncodeValue(want[0]) {
			t.Fatalf("dequeue answered %d, want %d", got, want[0])
		}
		want = want[1:]
	}
	if !e.Durable(p0).Names(deq.RD) {
		t.Fatal("no register names the first dequeue's record any more: the scenario needs it named")
	}
	crash()
	if vs := q.Values(); !slices.Equal(vs, want) {
		t.Fatalf("queue holds %v after recovery, want %v", vs, want)
	}
	if msg := q.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestDeferredCleanupHoldsOperands pins when an Isb-Opt update's unlinked
// node retires: not when the update returns, since its cleanup, done flag
// included, is still volatile, and a recovery that re-runs its update phase
// must not meet the node recycled; but as soon as the next install's barrier
// has carried that cleanup. Counted in the reclaimer's retirements: an insert
// after a failed one retires only the failed one's record, and the delete
// after it retires the insert's unlinked node and record.
func TestDeferredCleanupHoldsOperands(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Words: 1 << 16, Procs: 1})
	r := pmem.NewReclaimer(h)
	e := isb.NewEngineOpt(h)
	e.SetAllocator(r)
	l := list.NewWithEngine(h, e)
	p := h.Proc(0)
	for _, k := range listPrefill {
		l.Insert(p, k)
	}
	l.Insert(p, listPrefill[0]) // fails: read-only after its gather
	for _, step := range []struct {
		kind, key, retired uint64
	}{
		{list.OpInsert, 20, 1}, // the failed insert's record
		{list.OpFind, 20, 0},   // the zero-persist read issues no barrier
		{list.OpDelete, 20, 2}, // the insert's unlinked node, then its record
	} {
		before := r.Stats().Retired
		if step.kind == list.OpFind {
			l.ReadOp(p, step.kind, step.key)
		} else {
			l.ApplyOp(p, step.kind, step.key)
		}
		if got := r.Stats().Retired - before; got != step.retired {
			t.Errorf("kind %d key %d retired %d blocks, want %d", step.kind, step.key, got, step.retired)
		}
	}
}

// retireLog is an allocator that remembers every block its engine retires.
type retireLog struct {
	pmem.Arena
	retired map[pmem.Addr]bool
}

func (r *retireLog) Retire(p *pmem.Proc, a pmem.Addr) { r.retired[a] = true }

// TestRegistersNameNoRetiredRecord pins when an Isb-Opt record retires: not
// before both of its process's registers have durably moved off it. An
// install writes the register the last complete install did not, so the
// record the other names — whose cleanup, or whose leg's result slot, the
// barrier carries — stays named until that barrier is done, and a record
// retires only once a later install's barrier durably overwrites its own
// register: one install after the install that replaced it. After every
// admission of a run of single operations and windows, with failed updates
// among them, neither persisted register may name a record the engine has
// retired.
func TestRegistersNameNoRetiredRecord(t *testing.T) {
	_, e, l, p := newList(true, 0)
	alloc := &retireLog{retired: map[pmem.Addr]bool{}}
	e.SetAllocator(alloc)
	check := func(what string) {
		t.Helper()
		for r, reg := range e.Durable(p).Regs {
			if reg.RD != pmem.Null && alloc.retired[reg.RD] {
				t.Fatalf("after %s: register %d durably names record %d, which was retired", what, r, reg.RD)
			}
		}
	}
	for k := uint64(0); k < 12; k++ {
		kind, key := []uint64{list.OpInsert, list.OpDelete}[k%2], 20+k%3
		l.ApplyOp(p, kind, key)
		check(fmt.Sprintf("kind %d key %d", kind, key))
	}
	if len(alloc.retired) == 0 {
		t.Fatal("nothing retired: the run never reached a register's second overwrite")
	}
}
