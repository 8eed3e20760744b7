package isb_test

import (
	"slices"
	"testing"

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
	off       uint64
	h         *pmem.Heap
	e         *isb.Engine
	l         *list.List
	p         *pmem.Proc
	kind, key uint64
	inverse   uint64
	at        isb.Durable // persisted at the crash
	keysAt    []uint64    // persisted at the crash
	tagged    int         // CleanupSet entries persisted tagged by RD_q's record at the crash
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
	e.SetAnnounceID(1)
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
// access offset until an offset outruns the operation. The system-side Begin
// runs before the crash is armed, so every sweep starts from a durable CP_q
// older than the admission number. After each crash the operation is
// recovered, its response and the list's state checked, and visit gets the
// crash point.
func sweepEvicting(t *testing.T, opt bool, visit func(c crashPoint)) {
	for _, op := range listOps {
		crashes := 0
		for off := uint64(1); ; off++ {
			h, e, l, p := newList(opt, 1)
			l.Begin(p)
			h.ScheduleCrashAt(h.AccessCount() + off)
			crashed := !pmem.RunOp(func() { l.ApplyOp(p, op.kind, op.key) })
			h.DisarmCrash()
			if !crashed {
				break
			}
			crashes++
			h.ResetAfterCrash() // the volatile image is now the persisted one
			c := crashPoint{off: off, h: h, e: e, l: l, p: p, kind: op.kind, key: op.key, inverse: op.inverse, at: e.Durable(p)}
			for _, a := range c.at.Cleanup {
				if h.ReadPersisted(a) == isb.Tagged(c.at.RD) {
					c.tagged++
				}
			}
			c.keysAt = l.Keys()
			if r := l.RecoverLeg(p, 0, op.kind, op.key); !isb.Bool(r) {
				t.Fatalf("%s offset %d: recovery answered %d, want true", op.name, off, r)
			}
			if ks := l.Keys(); !slices.Equal(ks, op.want) {
				t.Fatalf("%s offset %d: keys %v after recovery, want %v", op.name, off, ks, op.want)
			}
			if msg := l.CheckInvariants(); msg != "" {
				t.Fatalf("%s offset %d: %s", op.name, off, msg)
			}
			visit(c)
		}
		if crashes < 20 {
			t.Fatalf("%s: only %d crash points; the sweep is not reaching inside the operation", op.name, crashes)
		}
	}
}

// TestFirstInstallRaisesCPCrash pins where Isb-Opt raises CP_q: with the
// prologue gone, the first install stores RD_q := info, then CP_q := the
// admission number, on one line that one pwb persists. Crashed at every
// access of an insert and a delete, the persisted pair must show CP_q equal
// to the admission number only with RD_q naming this operation's record —
// stamped with its kind, key and leg index — and a stale CP_q only with the
// list untouched. The (this record, old number) pair, which the Null prologue
// used to rule out, must occur and must recover as not installed: recovery
// re-invokes, and a new record replaces it.
func TestFirstInstallRaisesCPCrash(t *testing.T) {
	ownStale := map[uint64]int{}
	sweepEvicting(t, true, func(c crashPoint) {
		own := c.at.RD != pmem.Null && c.at.Kind == c.kind && c.at.Key == c.key && c.at.Seq == 0
		if c.at.CP != c.at.Adm {
			if !slices.Equal(c.keysAt, listPrefill) {
				t.Fatalf("offset %d: stale CP_q %d (admission %d) persisted with keys %v, want %v", c.off, c.at.CP, c.at.Adm, c.keysAt, listPrefill)
			}
			if own {
				ownStale[c.kind]++
				if rd := c.e.Durable(c.p).RD; rd == c.at.RD {
					t.Fatalf("offset %d: recovery kept RD_q = %d, which a stale CP_q names: it helped the record instead of re-invoking", c.off, rd)
				}
			}
			return
		}
		if !own {
			t.Fatalf("offset %d: CP_q = admission %d persisted with RD_q = %d stamped (kind %d, key %d, seq %d), want (%d, %d, 0)",
				c.off, c.at.Adm, c.at.RD, c.at.Kind, c.at.Key, c.at.Seq, c.kind, c.key)
		}
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
	oneAttempt := func(t *testing.T, l *list.List, p *pmem.Proc, kind, key uint64) {
		t.Helper()
		before := p.Stats().AllocWords
		if r := l.ApplyOp(p, kind, key); !isb.Bool(r) {
			t.Fatalf("next operation (kind %d) on key %d answered %d, want true", kind, key, r)
		}
		if words := p.Stats().AllocWords - before; words >= 2*isb.InfoWords {
			t.Fatalf("next operation (kind %d) on key %d allocated %d words: more than one attempt", kind, key, words)
		}
	}
	for _, opt := range []bool{false, true} {
		done, partial := 0, 0
		sweepEvicting(t, opt, func(c crashPoint) {
			if c.at.CP != c.at.Adm || c.at.Done == 0 || c.at.Kind != c.kind || c.at.Key != c.key {
				return
			}
			done++
			if c.tagged > 0 {
				partial++
			}
			for _, a := range c.at.Cleanup {
				if c.h.ReadVolatile(a) == isb.Tagged(c.at.RD) || c.h.ReadPersisted(a) == isb.Tagged(c.at.RD) {
					t.Fatalf("opt=%v offset %d: node field %d still tagged by the done record %d after recovery", opt, c.off, a, c.at.RD)
				}
			}
			oneAttempt(t, c.l, c.p, c.inverse, c.key)
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
				done := e.Durable(p)
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
				installed := e.Durable(p).RD != done.RD // the follow-up's install barrier ran
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
				oneAttempt(t, l, p, op.kind, op.key)
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
// dummy (its untag is only volatile), and churns on q2 until the shared
// reclaimer hands the dummy's block to one of its enqueues. The crash then
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
	enq := engines[0].Durable(p0) // CleanupSet: the dummy's info field, then the new node's
	if r := q1.ApplyOp(p1, queue.OpDeq, 0); r != isb.EncodeValue(1) {
		t.Fatalf("q1 dequeue answered %d, want 1", r)
	}
	q1.ApplyOp(p1, queue.OpDeq, 0) // empty: its install retires the dummy
	var want []uint64
	reused := false
	for v := uint64(1); v <= 10000 && !reused; v++ {
		q2.ApplyOp(p1, queue.OpEnq, v)
		want = append(want, v)
		if reused = engines[1].Durable(p1).Cleanup[1] == enq.Cleanup[0]; !reused {
			q2.ApplyOp(p1, queue.OpDeq, 0)
			want = want[1:]
		}
	}
	if !reused {
		t.Fatal("the reclaimer never handed q1's old dummy to an enqueue on q2")
	}
	if at := engines[0].Durable(p0); at.RD != enq.RD || at.Done != 0 || h.ReadPersisted(enq.Cleanup[1]) != isb.Tagged(enq.RD) {
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
