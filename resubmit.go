package repro

// MatchReport consumes one RecoverAll report entry on behalf of a caller
// that crashed mid-submission and still holds the admission's unanswered
// operations in order — one for a single operation, the window's, or a
// transaction's two legs. It aligns the report against pending and delivers
// every operation the report proves durable, returning how many leading
// operations of pending were resolved — the caller re-submits the rest.
//
// Report legs resolve pending in lockstep until the first no-effect leg (the
// unstarted suffix performed no tracked writes) — the completed prefix and
// the recovered in-flight leg both deliver their durable responses — or the
// first leg that does not match its pending position: that report is stale,
// it belongs to an earlier, fully answered admission, and the durable effects
// it describes were already delivered the first time. A report is stale when
// the crash landed after that admission completed and before the next one's
// record was durable: inside an eager begin's write-back, or, under
// EngineIsbOpt, anywhere between the begin and the admission's first
// barrier, which is what writes its record back (a single read's never
// is). An atomic
// report resolves all of its legs or none: recovery rolls a committed
// transaction's last leg forward before reporting, so a transaction that is
// not wholly no-effect is wholly durable, and it must match pending
// wholesale. Matching is on the ANNOUNCED operations, so an ArgFromLeg1 leg
// compares by the argument the caller submitted, not the derived one.
//
// deliver is called once per resolved operation, in order, with the
// operation's index in pending and its durable response. A stale report of
// an operation identical to the pending one — same kind, same Arg — matches,
// and delivers the old response for an operation that took no effect: a
// repeated identical operation is told apart exactly only by an identity
// riding the announced Op.Arg, or by a bare begin (Structure.Begin) between
// the two admissions, whose eager write-back retires the old record. Callers
// that key operations by an identity riding Op.Arg through ApplyWindow or
// ApplyTxn (see HashMap.SetArgMask; Apply announces the masked key) get exact
// stale-report rejection for free: a stale leg's Arg carries the old
// admission's identity and cannot equal the pending one's. Pinned by
// TestMatchReport and TestIdentityRejectsStaleReport.
func MatchReport(rep ProcReport, pending []Op, deliver func(i int, op Op, resp Resp)) int {
	n := 0
	for n < len(rep.Legs) && n < len(pending) && rep.Legs[n].Status != OpNoEffect && rep.Legs[n].Op == pending[n] {
		n++
	}
	if rep.Atomic && n < len(rep.Legs) {
		return 0
	}
	for i := 0; i < n; i++ {
		deliver(i, pending[i], rep.Legs[i].Resp)
	}
	return n
}
