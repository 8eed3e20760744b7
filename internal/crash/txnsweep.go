package crash

import (
	"fmt"

	"repro"
	"repro/internal/isb"
)

// This file holds the transaction conformance matrix: every access offset of
// a two-leg transaction is swept — mid-announcement, mid-leg-1,
// mid-commit-point, mid-leg-2. On top of what every sweep checks, each
// offset checks cross-structure atomicity: a no-effect report means NEITHER
// structure changed; anything else means leg 1's effect never exists without
// leg 2's once recovery returns. See sweep.go for how a crashed transaction
// is resolved.

// TxnSweepInstance is one freshly built runtime + prefilled structures +
// the transaction under sweep. VerifyPre must report "" exactly when both
// structures still hold their pre-transaction state (the atomicity check
// behind a no-effect report); VerifyPost when they hold the
// crash-free-execution state.
type TxnSweepInstance struct {
	RT         *repro.Runtime
	Leg1, Leg2 repro.TxnLeg
	VerifyPre  func() string
	VerifyPost func() string
}

// TxnSweepCase is the expected crash-free outcome: both legs' encoded
// responses.
type TxnSweepCase struct {
	Name         string
	Want1, Want2 uint64
}

// RunTxnCase sweeps one transaction at every crash point.
func RunTxnCase(build func() TxnSweepInstance, c TxnSweepCase) (crashPoints int, err error) {
	want := []uint64{c.Want1, c.Want2}
	return Sweep(c.Name, func() Instance {
		in := build()
		v := vector{rt: in.RT, legs: []repro.TxnLeg{in.Leg1, in.Leg2}, atomic: true, pre: in.VerifyPre}
		return v.instance(in.VerifyPost, want)
	}, want)
}

// TxnScenario is one (shape, engine kind, reclaim mode) cell of the
// transaction conformance matrix.
type TxnScenario struct {
	Shape   string
	Engine  string
	Reclaim bool
	Build   func() TxnSweepInstance
	Case    TxnSweepCase
}

// Name identifies the cell in test output.
func (s TxnScenario) Name() string {
	mode := "arena"
	if s.Reclaim {
		mode = "reclaim"
	}
	return s.Shape + "/" + s.Engine + "/" + mode
}

// txnKeysCheck compares a key snapshot against want.
func txnKeysCheck(label string, keys func() []uint64, want []uint64) string {
	got := keys()
	if len(got) != len(want) {
		return fmt.Sprintf("%s keys %v, want %v", label, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("%s keys %v, want %v", label, got, want)
		}
	}
	return ""
}

// TxnScenarios returns the transaction conformance matrix: four
// transaction shapes — queue→map handoff with a derived argument, a move
// between two maps (two engines), a move within one map (one engine, two
// sequence-stamped legs), and an elided leg 2 (handoff from an empty
// queue) — × both public engine kinds × reclamation on/off.
func TxnScenarios() []TxnScenario {
	var out []TxnScenario
	for _, eng := range []struct {
		name string
		kind repro.EngineKind
	}{{"isb", repro.EngineIsb}, {"isb-opt", repro.EngineIsbOpt}} {
		for _, rec := range []bool{false, true} {
			eng, rec := eng, rec
			out = append(out,
				TxnScenario{
					Shape: "handoff", Engine: eng.name, Reclaim: rec,
					Build: func() TxnSweepInstance {
						rt := batchRT(eng.kind, rec)
						q := rt.NewQueue()
						m := rt.NewHashMap(4)
						p := rt.Proc(0)
						q.Enqueue(p, 7)
						m.Insert(p, 3)
						check := func(qWant, mWant []uint64) func() string {
							return func() string {
								if msg := txnKeysCheck("queue", q.Values, qWant); msg != "" {
									return msg
								}
								if msg := txnKeysCheck("map", m.Keys, mWant); msg != "" {
									return msg
								}
								if msg := q.CheckInvariants(); msg != "" {
									return msg
								}
								return m.CheckInvariants()
							}
						}
						return TxnSweepInstance{
							RT:         rt,
							Leg1:       repro.TxnLeg{S: q, Op: repro.Op{Kind: repro.OpDeq}},
							Leg2:       repro.TxnLeg{S: m, Op: repro.Op{Kind: repro.OpInsert}, ArgFromLeg1: true},
							VerifyPre:  check([]uint64{7}, []uint64{3}),
							VerifyPost: check(nil, []uint64{3, 7}),
						}
					},
					Case: TxnSweepCase{Name: "deq-insert", Want1: isb.EncodeValue(7), Want2: isb.RespTrue},
				},
				TxnScenario{
					Shape: "two-map-move", Engine: eng.name, Reclaim: rec,
					Build: func() TxnSweepInstance {
						rt := batchRT(eng.kind, rec)
						src := rt.NewHashMap(2)
						dst := rt.NewHashMap(2)
						p := rt.Proc(0)
						src.Insert(p, 5)
						dst.Insert(p, 9)
						check := func(sWant, dWant []uint64) func() string {
							return func() string {
								if msg := txnKeysCheck("src", src.Keys, sWant); msg != "" {
									return msg
								}
								if msg := txnKeysCheck("dst", dst.Keys, dWant); msg != "" {
									return msg
								}
								if msg := src.CheckInvariants(); msg != "" {
									return msg
								}
								return dst.CheckInvariants()
							}
						}
						return TxnSweepInstance{
							RT:         rt,
							Leg1:       repro.TxnLeg{S: src, Op: repro.Op{Kind: repro.OpDelete, Arg: 5}},
							Leg2:       repro.TxnLeg{S: dst, Op: repro.Op{Kind: repro.OpInsert, Arg: 5}},
							VerifyPre:  check([]uint64{5}, []uint64{9}),
							VerifyPost: check(nil, []uint64{5, 9}),
						}
					},
					Case: TxnSweepCase{Name: "move", Want1: isb.RespTrue, Want2: isb.RespTrue},
				},
				TxnScenario{
					Shape: "same-map-move", Engine: eng.name, Reclaim: rec,
					Build: func() TxnSweepInstance {
						rt := batchRT(eng.kind, rec)
						m := rt.NewHashMap(4)
						p := rt.Proc(0)
						m.Insert(p, 5)
						check := func(want []uint64) func() string {
							return func() string {
								if msg := txnKeysCheck("map", m.Keys, want); msg != "" {
									return msg
								}
								return m.CheckInvariants()
							}
						}
						return TxnSweepInstance{
							RT:         rt,
							Leg1:       repro.TxnLeg{S: m, Op: repro.Op{Kind: repro.OpDelete, Arg: 5}},
							Leg2:       repro.TxnLeg{S: m, Op: repro.Op{Kind: repro.OpInsert, Arg: 9}},
							VerifyPre:  check([]uint64{5}),
							VerifyPost: check([]uint64{9}),
						}
					},
					Case: TxnSweepCase{Name: "rename", Want1: isb.RespTrue, Want2: isb.RespTrue},
				},
				TxnScenario{
					Shape: "empty-handoff", Engine: eng.name, Reclaim: rec,
					Build: func() TxnSweepInstance {
						rt := batchRT(eng.kind, rec)
						q := rt.NewQueue()
						m := rt.NewHashMap(2)
						p := rt.Proc(0)
						m.Insert(p, 3)
						check := func() string {
							if msg := txnKeysCheck("queue", q.Values, nil); msg != "" {
								return msg
							}
							if msg := txnKeysCheck("map", m.Keys, []uint64{3}); msg != "" {
								return msg
							}
							return m.CheckInvariants()
						}
						return TxnSweepInstance{
							RT:         rt,
							Leg1:       repro.TxnLeg{S: q, Op: repro.Op{Kind: repro.OpDeq}},
							Leg2:       repro.TxnLeg{S: m, Op: repro.Op{Kind: repro.OpInsert}, ArgFromLeg1: true},
							VerifyPre:  check,
							VerifyPost: check,
						}
					},
					Case: TxnSweepCase{Name: "deq-empty", Want1: isb.RespEmpty, Want2: isb.RespSkipped},
				},
			)
		}
	}
	return out
}
