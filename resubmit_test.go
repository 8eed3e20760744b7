package repro

import (
	"testing"

	"repro/internal/isb"
)

// TestMatchReport pins the resubmission matching the kvstore example, the
// benchmark and the serve layer all depend on, against the one report shape:
// a single operation, a window's completed prefix + in-flight cut, a
// transaction's all-or-nothing, and the stale-report rejection.
func TestMatchReport(t *testing.T) {
	opA := Op{Kind: OpInsert, Arg: 41}
	opB := Op{Kind: OpDelete, Arg: 42}
	opC := Op{Kind: OpInsert, Arg: 43}
	rTrue, rFalse := respOf(isb.RespTrue), respOf(isb.RespFalse)

	type got struct {
		i  int
		op Op
	}
	collect := func() (*[]got, func(i int, op Op, resp Resp)) {
		var g []got
		return &g, func(i int, op Op, resp Resp) { g = append(g, got{i, op}) }
	}

	t.Run("single-op-remainder", func(t *testing.T) {
		rep := ProcReport{Proc: 0, Legs: []LegReport{{StructID: 1, Op: opA, Resp: rTrue, Status: OpInFlight}}}
		g, deliver := collect()
		if n := MatchReport(rep, []Op{opA, opB}, deliver); n != 1 {
			t.Fatalf("resolved %d, want 1", n)
		}
		if len(*g) != 1 || (*g)[0] != (got{0, opA}) {
			t.Fatalf("delivered %v, want [{0 %v}]", *g, opA)
		}
		// A mismatching single-op entry is a previous operation's idempotent
		// re-confirmation: it resolves nothing.
		g, deliver = collect()
		if n := MatchReport(rep, []Op{opB, opA}, deliver); n != 0 || len(*g) != 0 {
			t.Fatalf("stale single-op entry resolved %d ops (%v), want 0", n, *g)
		}
		if n := MatchReport(rep, nil, deliver); n != 0 {
			t.Fatalf("empty pending resolved %d, want 0", n)
		}
	})

	t.Run("batch-prefix", func(t *testing.T) {
		rep := ProcReport{Proc: 1, Legs: []LegReport{
			{StructID: 1, Op: opA, Resp: rTrue, Status: OpCompleted},
			{StructID: 1, Op: opB, Resp: rFalse, Status: OpInFlight},
			{StructID: 1, Op: opC, Status: OpNoEffect},
		}}
		g, deliver := collect()
		if n := MatchReport(rep, []Op{opA, opB, opC}, deliver); n != 2 {
			t.Fatalf("resolved %d, want 2 (completed prefix + in-flight)", n)
		}
		want := []got{{0, opA}, {1, opB}}
		if len(*g) != 2 || (*g)[0] != want[0] || (*g)[1] != want[1] {
			t.Fatalf("delivered %v, want %v", *g, want)
		}
		// Pending shorter than the durable prefix: matching stops at the
		// pending boundary rather than indexing past it.
		g, deliver = collect()
		if n := MatchReport(rep, []Op{opA}, deliver); n != 1 || len(*g) != 1 {
			t.Fatalf("short pending resolved %d (%v), want 1", n, *g)
		}
	})

	t.Run("txn-report", func(t *testing.T) {
		rSkip := respOf(isb.RespSkipped)
		mkRep := func(st1, st2 OpStatus, r1, r2 Resp) ProcReport {
			return ProcReport{Proc: 3, Atomic: true, Legs: []LegReport{
				{StructID: 1, Op: opA, Resp: r1, Status: st1},
				{StructID: 2, Op: opB, Resp: r2, Status: st2},
			}}
		}

		// A committed transaction resolves both pending legs at once: leg 1
		// from its slot, leg 2 — always the leg at the cursor — rolled
		// forward before reporting, including an elided leg 2 (skipped
		// response).
		rep := mkRep(OpCompleted, OpInFlight, rTrue, rFalse)
		g, deliver := collect()
		if n := MatchReport(rep, []Op{opA, opB, opC}, deliver); n != 2 {
			t.Fatalf("committed txn resolved %d, want 2", n)
		}
		if len(*g) != 2 || (*g)[0] != (got{0, opA}) || (*g)[1] != (got{1, opB}) {
			t.Fatalf("delivered %v, want [{0 %v} {1 %v}]", *g, opA, opB)
		}
		g, deliver = collect()
		if n := MatchReport(mkRep(OpCompleted, OpInFlight, rTrue, rSkip), []Op{opA, opB}, deliver); n != 2 || len(*g) != 2 {
			t.Fatalf("txn with an elided leg 2 resolved %d (%v), want 2", n, *g)
		}

		// No effect: neither leg resolves; the caller re-submits the
		// whole transaction.
		g, deliver = collect()
		if n := MatchReport(mkRep(OpNoEffect, OpNoEffect, Resp{}, Resp{}), []Op{opA, opB}, deliver); n != 0 || len(*g) != 0 {
			t.Fatalf("no-effect txn resolved %d ops (%v), want 0", n, *g)
		}

		// Stale transaction report: the legs belong to an earlier, fully
		// answered transaction — a mismatch on either pending position
		// resolves nothing. The partial match (leg 1 matches pending[0],
		// leg 2 does not) is the one a window would half-resolve: an atomic
		// report must not.
		g, deliver = collect()
		if n := MatchReport(rep, []Op{opB, opA}, deliver); n != 0 || len(*g) != 0 {
			t.Fatalf("stale txn report resolved %d ops (%v), want 0", n, *g)
		}
		g, deliver = collect()
		if n := MatchReport(rep, []Op{opA, opC}, deliver); n != 0 || len(*g) != 0 {
			t.Fatalf("leg-2-mismatched txn report resolved %d ops (%v), want 0", n, *g)
		}

		// Pending shorter than a transaction: a two-leg report can never
		// half-resolve a single pending operation.
		g, deliver = collect()
		if n := MatchReport(rep, []Op{opA}, deliver); n != 0 || len(*g) != 0 {
			t.Fatalf("one-op pending resolved %d against a txn report (%v), want 0", n, *g)
		}
	})

	t.Run("stale-report", func(t *testing.T) {
		// An earlier, fully completed window's entries: position 0 does not
		// match the new window's first pending op, so nothing resolves and
		// nothing is delivered twice.
		rep := ProcReport{Proc: 2, Legs: []LegReport{
			{StructID: 1, Op: opB, Resp: rTrue, Status: OpCompleted},
			{StructID: 1, Op: opA, Resp: rTrue, Status: OpInFlight},
		}}
		g, deliver := collect()
		if n := MatchReport(rep, []Op{opA, opB}, deliver); n != 0 || len(*g) != 0 {
			t.Fatalf("stale report resolved %d ops (%v), want 0", n, *g)
		}
	})
}

// TestApplyWindowRejectsOversizedWindow pins that an ApplyWindow larger
// than MaxBatch panics instead of silently splitting into several batch
// announcements: a crash in a later chunk would leave a report that
// MatchReport cannot align against the window's head, and a
// resubmit-the-rest caller would re-execute the earlier chunks.
func TestApplyWindowRejectsOversizedWindow(t *testing.T) {
	rt := New(Config{Procs: 1, HeapWords: 1 << 18})
	m := rt.NewHashMap(4)
	p := rt.Proc(0)

	ops := make([]Op, MaxBatch+1)
	for i := range ops {
		ops[i] = Op{Kind: OpInsert, Arg: uint64(i + 1)}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("ApplyWindow admitted %d ops (> MaxBatch=%d) without panicking", len(ops), MaxBatch)
		}
	}()
	rt.ApplyWindow(p, m, ops)
}

// TestApplyWindowMaxBatch pins that a window of exactly MaxBatch still
// admits as one announcement (the boundary the serve layer clamps to).
func TestApplyWindowMaxBatch(t *testing.T) {
	rt := New(Config{Procs: 1, HeapWords: 1 << 18})
	m := rt.NewHashMap(4)
	p := rt.Proc(0)

	ops := make([]Op, MaxBatch)
	for i := range ops {
		ops[i] = Op{Kind: OpInsert, Arg: uint64(i + 1)}
	}
	out := rt.ApplyWindow(p, m, ops)
	for i, r := range out {
		if !r.Bool() {
			t.Fatalf("op %d: insert of fresh key reported false", i)
		}
	}
}
