// Package txn holds the shared vocabulary of detectably recoverable
// two-structure transactions: the announcement leg flag and the
// deterministic leg-2 argument derivation both the apply and the recovery
// path compute from the same durable inputs.
//
// The protocol itself lives in the repro root (Runtime.ApplyTxn's atomic
// vector and RecoverAll) and in pmem's announcement record
// (Proc.Announce and friends). A transaction's legs stamp their vector index
// (0 and 1) into their tracking records like any window's; what fences a
// previous operation's record off is the begin sequence's CP_q := 0 on every
// involved engine, not the stamp.
package txn

import "repro/internal/isb"

// FlagArgFromLeg1 marks an announced leg (pmem.Leg.Flags) whose argument is
// the previous leg's response value rather than the announced one: the
// dequeue-then-insert handoff shape. When leg 1's response carries no value
// (dequeue on empty), leg 2 is deterministically elided with
// isb.RespSkipped.
const FlagArgFromLeg1 uint64 = 1

// DeriveLeg2Arg computes leg 2's effective argument from the announced
// one, the leg's flags, and leg 1's encoded response. skip reports
// that leg 2 is elided (its response becomes isb.RespSkipped). Both the
// apply path and recovery call this with the same durable inputs — the
// announced argument and the result-slot response — so a re-driven leg 2
// always targets the argument the original execution did.
func DeriveLeg2Arg(announced, flags, resp1 uint64) (arg uint64, skip bool) {
	if flags&FlagArgFromLeg1 == 0 {
		return announced, false
	}
	if !isb.IsValue(resp1) {
		return 0, true
	}
	return isb.DecodeValue(resp1), false
}
