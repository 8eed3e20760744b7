package isb_test

import (
	"slices"
	"testing"

	"repro/internal/isb"
	"repro/internal/list"
	"repro/internal/pmem"
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
	l         *list.List
	p         *pmem.Proc
	kind, key uint64
	inverse   uint64
	at        isb.Durable // persisted at the crash
	keysAt    []uint64    // persisted at the crash
	tagged    int         // CleanupSet entries persisted tagged by RD_q's record at the crash
}

// sweepEvicting runs each of listOps on a fresh list whose heap persists
// every store's line at once (EvictEvery 1: a crash persists exactly the
// stores before it), with a system-wide crash at every access offset until an
// offset outruns the operation. The system-side Begin
// runs before the crash is armed, so every sweep starts from a durable
// CP_q = 0. After each crash the operation is recovered, its response and the
// list's state checked, and visit gets the crash point.
func sweepEvicting(t *testing.T, opt bool, visit func(c crashPoint)) {
	for _, op := range listOps {
		crashes := 0
		for off := uint64(1); ; off++ {
			h := pmem.NewHeap(pmem.Config{Words: 1 << 16, Procs: 1, Tracked: true, EvictEvery: 1})
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
			l.Begin(p)
			h.ScheduleCrashAt(h.AccessCount() + off)
			crashed := !pmem.RunOp(func() { l.ApplyOp(p, op.kind, op.key) })
			h.DisarmCrash()
			if !crashed {
				break
			}
			crashes++
			c := crashPoint{off: off, h: h, l: l, p: p, kind: op.kind, key: op.key, inverse: op.inverse, at: e.Durable(p)}
			for _, a := range c.at.Cleanup {
				if h.ReadPersisted(a) == isb.Tagged(c.at.RD) {
					c.tagged++
				}
			}
			h.ResetAfterCrash()
			c.keysAt = l.Keys()
			if r := l.RecoverOp(p, op.kind, op.key); !isb.Bool(r) {
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
// prologue gone, the first install stores RD_q := info, then CP_q := 1, on
// one line that one pwb persists. Crashed at every access of an insert and a
// delete, the persisted pair must show CP_q = 1 only with RD_q naming this
// operation's record — stamped with its kind, key and leg index — and CP_q =
// 0 only with the list untouched. The (info, 0) pair, which the Null prologue
// used to rule out, must occur and must recover like any CP_q = 0.
func TestFirstInstallRaisesCPCrash(t *testing.T) {
	ownZero := map[uint64]int{}
	sweepEvicting(t, true, func(c crashPoint) {
		own := c.at.RD != pmem.Null && c.at.Kind == c.kind && c.at.Key == c.key && c.at.Seq == 0
		if c.at.CP == 0 {
			if !slices.Equal(c.keysAt, listPrefill) {
				t.Fatalf("offset %d: CP_q = 0 persisted with keys %v, want %v", c.off, c.keysAt, listPrefill)
			}
			if own {
				ownZero[c.kind]++
			}
			return
		}
		if !own {
			t.Fatalf("offset %d: CP_q = 1 persisted with RD_q = %d stamped (kind %d, key %d, seq %d), want (%d, %d, 0)",
				c.off, c.at.RD, c.at.Kind, c.at.Key, c.at.Seq, c.kind, c.key)
		}
	})
	for _, op := range listOps {
		if ownZero[op.kind] == 0 {
			t.Errorf("%s: no crash persisted RD_q = this operation's record with CP_q = 0", op.name)
		}
	}
}

// TestDoneRidesCleanupBarrierCrash pins the done flag's new place: the
// invoker stores it as the cleanup phase starts and the cleanup barrier
// persists it, so eviction can make it durable while some untags are not.
// Crashed at every access of an insert and a delete on both engines, every
// crash that left the record durably done must recover with no CleanupSet
// node tagged by the record, volatile or persisted — Help on a done record
// re-runs the untags — and the follow-up operation on the same key must
// finish in one attempt (a second attempt would allocate a second record).
func TestDoneRidesCleanupBarrierCrash(t *testing.T) {
	for _, opt := range []bool{false, true} {
		done, partial := 0, 0
		sweepEvicting(t, opt, func(c crashPoint) {
			if c.at.CP != 1 || c.at.Done == 0 || c.at.Kind != c.kind || c.at.Key != c.key {
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
			before := c.p.Stats().AllocWords
			if r := c.l.ApplyOp(c.p, c.inverse, c.key); !isb.Bool(r) {
				t.Fatalf("opt=%v offset %d: follow-up on key %d answered %d, want true", opt, c.off, c.key, r)
			}
			if words := c.p.Stats().AllocWords - before; words >= 2*isb.InfoWords {
				t.Fatalf("opt=%v offset %d: follow-up on key %d allocated %d words: more than one attempt", opt, c.off, c.key, words)
			}
		})
		if partial == 0 {
			t.Fatalf("opt=%v: none of %d crashes with a durable done flag left an untag volatile", opt, done)
		}
		t.Logf("opt=%v: %d crashes left the record durably done, %d of them with an untag volatile", opt, done, partial)
	}
}
