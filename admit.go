package repro

import (
	"fmt"
	"slices"

	"repro/internal/isb"
	"repro/internal/queue"
	"repro/internal/stack"
)

// Read-only operation kinds beyond the sets' OpFind.
const (
	// OpPeek returns the queue's front value without dequeuing it.
	OpPeek = queue.OpPeek
	// OpTop returns the stack's top value without popping it.
	OpTop = stack.OpTop
)

// MaxBatch is the largest number of legs one announcement can carry: the
// longest window ApplyWindow admits. Callers with more operations admit them
// as successive windows of at most this size.
const MaxBatch = isb.MaxBatch

// OpKind describes one operation kind a structure accepts: its durable
// kind code, a human-readable name, and whether the kind is read-only.
// Read-only kinds run on the zero-persist fast path — no Info record, no
// announcement, no pwb and no psync — and consequently leave no durable
// trace: a crash during one simply loses it, and the caller re-submits.
type OpKind struct {
	Kind     uint64
	Name     string
	ReadOnly bool
}

// EngineCounters reports the cumulative deferral/fast-path counters of the
// engine backing s, summed across processes (see isb.Stats): psyncs elided
// inside sync scopes and operations served by the zero-persist read path.
// ok is false for structures without an engine (the exchanger).
func (r *Runtime) EngineCounters(s Structure) (batchSyncs, readFast uint64, ok bool) {
	ad, isAd := s.(admitter)
	if !isAd {
		return 0, 0, false
	}
	bs, rf := ad.adapt().e.Counters()
	return bs, rf, true
}

// TxnLeg names one leg of a two-structure transaction: the structure it
// runs on and the operation to apply there. With ArgFromLeg1 (only valid
// on leg 2) the leg's effective argument is leg 1's response value instead
// of Op.Arg — the dequeue-then-insert handoff shape; when leg 1 carries no
// value (dequeue on empty), the leg is elided and answers Resp.Skipped().
type TxnLeg struct {
	S           Structure
	Op          Op
	ArgFromLeg1 bool
}

// flagArgFromLeg1 marks an announced leg (isb.Leg.Flags) whose argument is
// the previous leg's response value rather than the announced one: the
// dequeue-then-insert handoff shape (TxnLeg.ArgFromLeg1).
const flagArgFromLeg1 uint64 = 1

// deriveLeg2Arg computes leg 2's effective argument from the announced one,
// the leg's flags, and leg 1's encoded response; skip reports that leg 2 is
// elided (its response becomes isb.RespSkipped) because leg 1 carried no
// value (dequeue on empty). Both submit and RecoverAll call it with the same
// durable inputs — the announced argument and the result-slot response — so a
// re-driven leg 2 always targets the argument the original execution did.
func deriveLeg2Arg(announced, flags, resp1 uint64) (arg uint64, skip bool) {
	if flags&flagArgFromLeg1 == 0 {
		return announced, false
	}
	if !isb.IsValue(resp1) {
		return 0, true
	}
	return isb.DecodeValue(resp1), false
}

// submit is the one admission core under ApplyWindow and ApplyTxn: it
// announces legs as one durable vector (see isb.Announce) and runs them
// in order, writing their responses to out.
//
// The whole begin sequence is the one announcement naming every leg, whose
// raised admission number resets CP on every involved engine
// (isb.Engine.Begin). The rest is a sync scope, closed by one psync, and the
// scope opens ahead of the begin: under EngineIsbOpt the begin stores nothing
// — the record is stored at the admission's first install and rides its
// barrier — and every sync point, the begin's included, defers to the close,
// so any vector costs the one psync a single operation costs, and a vector
// that installs nothing (reads and effect-free updates only) costs none;
// under EngineIsb the begin is one write-back and one psync, a window's sync
// points defer to the leg boundaries (still one psync per leg) and a
// transaction stays unscoped, every leg psync where Algorithms 1–2 put it.
// Under EngineIsbOpt a successful leg's update phase is held, its tags set,
// until the process's next barrier — the next installing leg's, on whichever
// structure — so k installing legs write back 2k+1 times: an install and a tag
// barrier each, and the close (isb.Engine.CloseSyncScope), which writes back
// the last update still held and runs its untags before the psync. Between
// two legs the previous
// response goes to its result slot, stamped with the admission number
// (isb.Engine.Boundary): one pwb under EngineIsb, and under EngineIsbOpt none
// — the response waits for the process's next install, whose barrier writes
// the slot back before anything that leg makes durable, and a slot no later
// leg installs after is never stored. The last leg's response stays in its engine's
// tracking record. Read-only kinds run on the zero-persist path but still
// occupy their position: their slot is durable before a later leg can take
// effect, which is what makes a recovered in-flight read safe to re-execute.
// Under EngineIsbOpt an update leg whose gather proves it effect-free does
// the same, wherever it sits, but for an atomic vector's leg 2 once leg 1 has
// installed (the effect-free rule of isb's transition table).
//
// atomic makes the vector all-or-nothing across a crash: its commit point is
// slot 0 stamped, durable strictly before the second leg takes any effect (see
// RecoverAll). Atomic vectors are accepted at length 2 only.
func (r *Runtime) submit(p *Proc, atomic bool, legs []TxnLeg, out []Resp) {
	if atomic && len(legs) != 2 {
		panic("repro: atomic admissions have exactly two legs")
	}
	var (
		rec    [MaxBatch]isb.Leg
		ads    [MaxBatch]*adapter
		others = make([]*isb.Engine, 0, 1)
	)
	for i, l := range legs {
		ad, ok := l.S.(admitter)
		if !ok {
			panic(fmt.Sprintf("repro: structure %d (%v) cannot be admitted in a window or transaction", l.S.ID(), l.S.Kind()))
		}
		ads[i] = ad.adapt()
		acceptKind(ads[i].kinds, ads[i].id, ads[i].kind, l.Op.Kind)
		rec[i] = isb.Leg{StructID: ads[i].id, Kind: l.Op.Kind, Arg: l.Op.Arg}
		if l.ArgFromLeg1 {
			if i == 0 {
				panic("repro: ArgFromLeg1 is only meaningful on leg 2")
			}
			rec[i].Flags = flagArgFromLeg1
		}
		if e := ads[i].e; e != ads[0].e && !slices.Contains(others, e) {
			others = append(others, e)
		}
	}
	scoped := !atomic || ads[0].e.Batched()
	if scoped {
		// Opened ahead of the begin sequence: under EngineIsbOpt the begin
		// then defers its write-back and its psync, and under EngineIsb its
		// write-backs overlap while its psync stays explicit.
		p.OpenSyncScope()
	}
	ads[0].e.Begin(p, atomic, rec[:len(legs)], others...)
	var prev uint64
	for i, l := range legs {
		if i > 0 {
			ads[i].e.Boundary(p, i, prev)
		}
		if arg, skip := deriveLeg2Arg(l.Op.Arg, rec[i].Flags, prev); skip {
			prev = isb.RespSkipped
		} else {
			prev = ads[i].c.ApplyLeg(p, i, l.Op.Kind, ads[i].key(arg))
		}
		out[i] = respOf(prev)
	}
	if scoped {
		ads[0].e.CloseSyncScope(p)
	}
}

// ApplyWindow runs ops on s as ONE admission window and returns their
// responses in order: one durable announcement — the leg array, a count, a
// checksum and stamped result slots — replaces the per-operation
// announcements, so the whole window is admitted under a single begin (see
// submit for what it costs). A window of one is a vector of one.
//
// Crash semantics (see RecoverAll): the window's report entry partitions
// its operations into a completed prefix (responses read back from the
// stamped result slots), the single in-flight operation at the cursor
// (resolved through per-operation recovery, exactly as an unbatched op
// would be), and an unstarted suffix that provably performed no tracked
// writes and is simply re-submitted. The guarantee per operation is
// unchanged from single-op Apply; a window only merges WHEN the machinery
// persists, never WHAT. Serving layers that thread request identity through
// the announcement's Arg (see HashMap.SetArgMask) get every admitted
// operation back in the report carrying its full Arg.
//
// A window must fit one announcement: len(ops) > MaxBatch panics. ApplyWindow
// must NOT silently split an oversized window into several announcements — a
// crash in a later chunk would produce a report whose entries align against
// the window's tail, a MatchReport-driven caller would resolve nothing, and
// re-submitting the whole window would re-execute the already-applied earlier
// chunks. Crash-recovery callers clamp their admission size instead (serve
// does, via Config.Batch). s must be admissible (every structure but the
// exchanger).
func (r *Runtime) ApplyWindow(p *Proc, s Structure, ops []Op) []Resp {
	if len(ops) > MaxBatch {
		panic("repro: ApplyWindow window exceeds MaxBatch")
	}
	if len(ops) == 0 {
		return nil
	}
	var legs [MaxBatch]TxnLeg
	for i, op := range ops {
		legs[i] = TxnLeg{S: s, Op: op}
	}
	out := make([]Resp, len(ops))
	r.submit(p, false, legs[:len(ops)], out)
	return out
}

// ApplyTxn runs a two-structure transaction — an atomic vector of two legs
// — and returns both responses in leg order: leg 1 to its ISB completion, the
// commit point (slot 0 stamped), then leg 2. See submit for the
// admission price: it is a window's.
//
// The crash contract (see RecoverAll): a crashed transaction's report is
// either all no-effect — leg 1 provably not applied, commit unset: neither
// structure changed, re-submit — or carries both responses: leg 1's read back
// from its durable slot (or rolled forward from its completed tracking
// record), leg 2's re-driven idempotently through the engine's index-guarded
// recovery. Cross-structure atomicity is one-sided by construction, like the
// paper's per-op detectability: after recovery completes, leg 1's effect is
// present iff the commit point is set, and leg 2's effect then exists exactly
// once — never leg 1 without leg 2.
//
// Both legs must be admissible structures (every structure but the
// exchanger). Legs may target the same structure (same-map moves): the
// engine is reset once and the legs' tracking records are fenced apart by
// their index stamps. Read-only leg kinds run on the zero-persist path and
// re-execute on recovery, exactly as in windows.
func (r *Runtime) ApplyTxn(p *Proc, leg1, leg2 TxnLeg) (Resp, Resp) {
	var out [2]Resp
	r.submit(p, true, []TxnLeg{leg1, leg2}, out[:])
	return out[0], out[1]
}

// OpStatus classifies one leg's fate in a RecoverAll report.
type OpStatus int

const (
	// OpCompleted: the leg finished before the crash; its response was read
	// back from the announcement's durable result slot.
	OpCompleted OpStatus = iota
	// OpInFlight: the leg was the one at the cursor; its response was
	// resolved through per-operation recovery (idempotent — the effect
	// happened at most once, possibly before the crash).
	OpInFlight
	// OpNoEffect: the leg had provably not started; it performed no tracked
	// writes and can simply be re-submitted.
	OpNoEffect
)

func (s OpStatus) String() string {
	switch s {
	case OpCompleted:
		return "completed"
	case OpInFlight:
		return "in-flight"
	case OpNoEffect:
		return "no-effect"
	default:
		return "OpStatus(?)"
	}
}

// LegReport is one announced leg's entry in a ProcReport: where it ran, the
// announced operation, its status, and — for completed and in-flight legs —
// its response. A no-effect leg's Resp is meaningless.
type LegReport struct {
	StructID uint64
	Op       Op
	Resp     Resp
	Status   OpStatus
}
