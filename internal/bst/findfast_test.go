package bst

import (
	"math/rand"
	"testing"

	"repro/internal/isb"
	"repro/internal/pmem"
)

// FindFast is the paper's Section 6 extension: Finds with an *empty*
// AffectSet. These tests pin its semantics, persistence profile, and
// recoverability.

func TestFindFastSemantics(t *testing.T) {
	b, h := newBST(t, 1)
	p := h.Proc(0)
	model := map[uint64]bool{}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(32) + 1)
		switch rng.Intn(4) {
		case 0:
			if isb.Bool(b.ApplyOp(p, OpInsert, k)) != !model[k] {
				t.Fatalf("op %d insert(%d)", i, k)
			}
			model[k] = true
		case 1:
			if isb.Bool(b.ApplyOp(p, OpDelete, k)) != model[k] {
				t.Fatalf("op %d delete(%d)", i, k)
			}
			delete(model, k)
		case 2:
			if isb.Bool(b.ApplyOp(p, OpFind, k)) != model[k] {
				t.Fatalf("op %d find(%d)", i, k)
			}
		default:
			if isb.Bool(b.ApplyOp(p, OpFindFast, k)) != model[k] {
				t.Fatalf("op %d findfast(%d)", i, k)
			}
		}
	}
}

func TestFindFastNeverTags(t *testing.T) {
	b, h := newBST(t, 1)
	p := h.Proc(0)
	for k := uint64(1); k <= 50; k++ {
		b.ApplyOp(p, OpInsert, k)
	}
	s0 := p.Stats()
	for k := uint64(1); k <= 50; k++ {
		b.ApplyOp(p, OpFindFast, k)
	}
	d := p.Stats().Sub(s0)
	if d.CASes != 0 {
		t.Fatalf("FindFast performed %d CASes; the empty AffectSet must never tag", d.CASes)
	}
}

func TestFindFastCheaperThanFind(t *testing.T) {
	// Two identically shaped trees; the same Find workload through the
	// regular ROpt path and the empty-AffectSet path.
	hA := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: 1})
	bA := NewWithEngine(hA, isb.NewEngine(hA))
	pA := hA.Proc(0)
	hB := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: 1})
	bB := NewWithEngine(hB, isb.NewEngine(hB))
	pB := hB.Proc(0)
	for k := uint64(1); k <= 50; k++ {
		bA.ApplyOp(pA, OpInsert, k)
		bB.ApplyOp(pB, OpInsert, k)
	}
	sA := pA.Stats()
	sB := pB.Stats()
	for k := uint64(1); k <= 50; k++ {
		bA.ApplyOp(pA, OpFind, k)
		bB.ApplyOp(pB, OpFindFast, k)
	}
	dA := pA.Stats().Sub(sA)
	dB := pB.Stats().Sub(sB)
	if dB.Loads >= dA.Loads {
		t.Fatalf("FindFast loads (%d) not below Find loads (%d)", dB.Loads, dA.Loads)
	}
}

func TestFindFastCrashSweep(t *testing.T) {
	for offset := uint64(1); offset <= 40; offset++ {
		h := pmem.NewHeap(pmem.Config{Words: 1 << 20, Procs: 1, Tracked: true})
		b := NewWithEngine(h, isb.NewEngine(h))
		p := h.Proc(0)
		b.ApplyOp(p, OpInsert, 10)

		b.Begin(p)
		h.ScheduleCrashAt(h.AccessCount() + offset)
		var res bool
		crashed := !pmem.RunOp(func() { res = isb.Bool(b.ApplyOp(p, OpFindFast, 10)) })
		h.DisarmCrash()
		if crashed {
			h.ResetAfterCrash()
			res = isb.Bool(b.RecoverLeg(p, 0, OpFindFast, 10))
		}
		if !res {
			t.Fatalf("offset %d: FindFast(10) false", offset)
		}
		// And a miss:
		b.Begin(p)
		h.ScheduleCrashAt(h.AccessCount() + offset)
		crashed = !pmem.RunOp(func() { res = isb.Bool(b.ApplyOp(p, OpFindFast, 11)) })
		h.DisarmCrash()
		if crashed {
			h.ResetAfterCrash()
			res = isb.Bool(b.RecoverLeg(p, 0, OpFindFast, 11))
		}
		if res {
			t.Fatalf("offset %d: FindFast(11) true", offset)
		}
	}
}
