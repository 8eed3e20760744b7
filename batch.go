package repro

import (
	"repro/internal/isb"
	"repro/internal/pmem"
	"repro/internal/queue"
	"repro/internal/stack"
)

// Read-only operation kinds added by the batching/fast-read layer.
const (
	// OpPeek returns the queue's front value without dequeuing it.
	OpPeek = queue.OpPeek
	// OpTop returns the stack's top value without popping it.
	OpTop = stack.OpTop
)

// MaxBatch is the largest number of operations one batch announcement can
// carry; ApplyBatch transparently splits longer slices into successive
// windows of at most this size.
const MaxBatch = pmem.MaxBatch

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

// OpKinds reports the operation kinds the list accepts.
func (l *List) OpKinds() []OpKind {
	return []OpKind{
		{Kind: OpInsert, Name: "insert"},
		{Kind: OpDelete, Name: "delete"},
		{Kind: OpFind, Name: "find", ReadOnly: true},
	}
}

// OpKinds reports the operation kinds the queue accepts.
func (q *Queue) OpKinds() []OpKind {
	return []OpKind{
		{Kind: OpEnq, Name: "enqueue"},
		{Kind: OpDeq, Name: "dequeue"},
		{Kind: OpPeek, Name: "peek", ReadOnly: true},
	}
}

// OpKinds reports the operation kinds the tree accepts.
func (b *BST) OpKinds() []OpKind {
	return []OpKind{
		{Kind: OpInsert, Name: "insert"},
		{Kind: OpDelete, Name: "delete"},
		{Kind: OpFind, Name: "find", ReadOnly: true},
	}
}

// OpKinds reports the operation kinds the stack accepts.
func (s *Stack) OpKinds() []OpKind {
	return []OpKind{
		{Kind: OpPush, Name: "push"},
		{Kind: OpPop, Name: "pop"},
		{Kind: OpTop, Name: "top", ReadOnly: true},
	}
}

// OpKinds reports the operation kinds the map accepts.
func (m *HashMap) OpKinds() []OpKind {
	return []OpKind{
		{Kind: OpInsert, Name: "insert"},
		{Kind: OpDelete, Name: "delete"},
		{Kind: OpFind, Name: "find", ReadOnly: true},
	}
}

// OpKinds reports the operation kinds the exchanger accepts.
func (e *Exchanger) OpKinds() []OpKind {
	return []OpKind{{Kind: OpExchange, Name: "exchange"}}
}

// readOnlyKind reports whether kind is read-only on a structure of
// registry kind k (allocation-free; OpKind carries the same fact for
// callers that can afford a slice).
func readOnlyKind(k StructKind, kind uint64) bool {
	switch k {
	case KindList, KindBST, KindHashMap:
		return kind == OpFind
	case KindQueue:
		return kind == OpPeek
	case KindStack:
		return kind == OpTop
	default:
		return false
	}
}

// EngineCounters reports the cumulative deferral/fast-path counters of the
// engine backing s, summed across processes (see isb.Stats): psyncs elided
// inside sync scopes and operations served by the zero-persist read path.
// ok is false for structures without a batch surface (the exchanger).
func (r *Runtime) EngineCounters(s Structure) (batchSyncs, readFast uint64, ok bool) {
	ba, isBatch := s.(batchApplier)
	if !isBatch {
		return 0, 0, false
	}
	bs, rf := ba.engine().Counters()
	return bs, rf, true
}

// batchApplier is the internal surface a structure exposes to ApplyBatch
// and the batch branch of RecoverAll.
type batchApplier interface {
	Structure
	engine() *isb.Engine
	applyBatchOp(p *Proc, seq int, kind, arg uint64) uint64
	recoverBatchOp(p *Proc, seq int, kind, arg uint64) uint64
	// legKey maps an operation argument to the key its engine records
	// track (identity everywhere except the hash map's arg mask):
	// transaction recovery probes tracking records by this key.
	legKey(arg uint64) uint64
}

func (l *List) engine() *isb.Engine      { return l.l.Engine() }
func (l *List) legKey(arg uint64) uint64 { return arg }
func (l *List) applyBatchOp(p *Proc, seq int, kind, arg uint64) uint64 {
	return l.l.ApplyBatchOp(p, seq, kind, arg)
}
func (l *List) recoverBatchOp(p *Proc, seq int, kind, arg uint64) uint64 {
	return l.l.RecoverBatchOp(p, seq, kind, arg)
}

func (q *Queue) engine() *isb.Engine      { return q.q.Engine() }
func (q *Queue) legKey(arg uint64) uint64 { return arg }
func (q *Queue) applyBatchOp(p *Proc, seq int, kind, arg uint64) uint64 {
	return q.q.ApplyBatchOp(p, seq, kind, arg)
}
func (q *Queue) recoverBatchOp(p *Proc, seq int, kind, arg uint64) uint64 {
	return q.q.RecoverBatchOp(p, seq, kind, arg)
}

func (b *BST) engine() *isb.Engine      { return b.b.Engine() }
func (b *BST) legKey(arg uint64) uint64 { return arg }
func (b *BST) applyBatchOp(p *Proc, seq int, kind, arg uint64) uint64 {
	if kind == OpFind {
		return b.b.ReadOp(p, kind, arg)
	}
	return b.b.ApplyBatchOp(p, seq, kind, arg)
}
func (b *BST) recoverBatchOp(p *Proc, seq int, kind, arg uint64) uint64 {
	if kind == OpFind {
		return b.b.ReadOp(p, kind, arg)
	}
	return b.b.RecoverBatchOp(p, seq, kind, arg)
}

func (s *Stack) engine() *isb.Engine      { return s.s.Engine() }
func (s *Stack) legKey(arg uint64) uint64 { return arg }
func (s *Stack) applyBatchOp(p *Proc, seq int, kind, arg uint64) uint64 {
	return s.s.ApplyBatchOp(p, seq, kind, arg)
}
func (s *Stack) recoverBatchOp(p *Proc, seq int, kind, arg uint64) uint64 {
	return s.s.RecoverBatchOp(p, seq, kind, arg)
}

func (m *HashMap) engine() *isb.Engine      { return m.m.Engine() }
func (m *HashMap) legKey(arg uint64) uint64 { return m.key(arg) }
func (m *HashMap) applyBatchOp(p *Proc, seq int, kind, arg uint64) uint64 {
	return m.m.ApplyBatchOp(p, seq, kind, m.key(arg))
}
func (m *HashMap) recoverBatchOp(p *Proc, seq int, kind, arg uint64) uint64 {
	return m.m.RecoverBatchOp(p, seq, kind, m.key(arg))
}

// Peek returns the queue's front value without dequeuing it (zero-persist
// read path); ok=false on empty.
func (q *Queue) Peek(p *Proc) (uint64, bool) { return q.q.Peek(p) }

// Top returns the stack's top value without popping it (zero-persist read
// path); ok=false on empty.
func (s *Stack) Top(p *Proc) (uint64, bool) { return s.s.Top(p) }

// ApplyBatch runs ops on s as one admission batch per window of up to
// MaxBatch operations and returns their responses in order.
//
// One durable batch announcement — the op array, a count, a checksum and a
// completed-prefix cursor — replaces the per-operation announcements, so
// the whole window is admitted under a single psync; each operation's
// remaining sync points defer to the next operation's boundary (EngineIsb:
// still one psync per op, merged at the boundary) or to the window-closing
// psync (EngineIsbOpt: one psync per batch), and write-backs overlap
// inside the window. Read-only kinds run on the zero-persist fast path but
// still occupy their batch position: their response is persisted into the
// batch's result slot at the next boundary, which is what makes a
// recovered in-flight read safe to re-execute — no later operation of the
// same batch can have taken effect before the read's own response was
// durable.
//
// Crash semantics (see RecoverAll): the batch's report entry partitions
// its operations into a completed prefix (responses read back from the
// durable result slots), the single in-flight operation at the cursor
// (resolved through per-operation recovery, exactly as an unbatched op
// would be), and an unstarted suffix that provably performed no tracked
// writes and is simply re-submitted. The guarantee per operation is
// unchanged from single-op Apply; batching only merges WHEN the machinery
// persists, never WHAT.
//
// A single-element batch is admitted as a plain operation, and structures
// without a batch surface (the exchanger) fall back to sequential Apply.
// The fallback is Begin + Apply, so it charges Begin's psync on top of each
// operation's own price, finds included: Begin is what durably retires the
// previous announcement ahead of an operation that may announce nothing (a
// zero-persist find), which keeps a later RecoverAll report from being the
// previous operation's. Callers that do not need that call Apply directly.
func (r *Runtime) ApplyBatch(p *Proc, s Structure, ops []Op) []Resp {
	if len(ops) == 0 {
		return nil
	}
	ba, batchable := s.(batchApplier)
	out := make([]Resp, len(ops))
	if !batchable || len(ops) == 1 {
		for i, op := range ops {
			s.Begin(p)
			out[i] = s.Apply(p, op)
		}
		return out
	}
	e := ba.engine()
	for base := 0; base < len(ops); base += MaxBatch {
		win := ops[base:min(base+MaxBatch, len(ops))]
		if len(win) == 1 {
			s.Begin(p)
			out[base] = s.Apply(p, win[0])
			break
		}
		e.BeginBatch(p, len(win), func(i int) (uint64, uint64) {
			return win[i].Kind, win[i].Arg
		})
		for i, op := range win {
			if i > 0 {
				e.BatchBoundary(p, i, out[base+i-1].raw)
			}
			out[base+i] = respOf(ba.applyBatchOp(p, i, op.Kind, op.Arg))
		}
		e.EndBatch(p)
	}
	return out
}

// ApplyWindow admits ops exactly like ApplyBatch but ALWAYS through the
// batch announcement protocol, even for a single-operation window (where
// ApplyBatch would fall back to the plain per-op announcement). Serving
// layers that thread request identity through the announcement's Arg (see
// HashMap.SetArgMask) need every admitted operation to appear in a batch
// report entry carrying its full Arg; the per-op fast path would lose
// nothing durable, but its report entry cannot be told apart from an
// earlier identical operation's without the identity bits. s must be
// batchable (every structure but the exchanger).
//
// A window must fit one batch announcement: len(ops) > MaxBatch panics.
// Unlike ApplyBatch, ApplyWindow must NOT silently split an oversized
// window into several announcements — a crash in a later chunk would
// produce a report whose entries align against the window's tail, a
// MatchReport-driven caller would resolve nothing, and re-submitting the
// whole window would re-execute the already-applied earlier chunks.
// Crash-recovery callers clamp their admission size instead (serve does,
// via Config.Batch).
func (r *Runtime) ApplyWindow(p *Proc, s Structure, ops []Op) []Resp {
	ba, batchable := s.(batchApplier)
	if !batchable {
		panic("repro: ApplyWindow requires a batchable structure")
	}
	if len(ops) > MaxBatch {
		panic("repro: ApplyWindow window exceeds MaxBatch")
	}
	if len(ops) == 0 {
		return nil
	}
	out := make([]Resp, len(ops))
	e := ba.engine()
	e.BeginBatch(p, len(ops), func(i int) (uint64, uint64) {
		return ops[i].Kind, ops[i].Arg
	})
	for i, op := range ops {
		if i > 0 {
			e.BatchBoundary(p, i, out[i-1].raw)
		}
		out[i] = respOf(ba.applyBatchOp(p, i, op.Kind, op.Arg))
	}
	e.EndBatch(p)
	return out
}

// OpStatus classifies one batch operation's fate in a RecoverAll report.
type OpStatus int

const (
	// OpCompleted: the operation finished before the crash; its response
	// was read back from the batch's durable result slot.
	OpCompleted OpStatus = iota
	// OpInFlight: the operation was the one in flight at the crash; its
	// response was resolved through per-operation recovery (idempotent —
	// the effect happened at most once).
	OpInFlight
	// OpNoEffect: the operation had provably not started; it performed no
	// tracked writes and can simply be re-submitted.
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

// BatchOpReport is one operation's entry in a recovered batch: the
// operation, its status, and — for completed and in-flight operations —
// its response. A no-effect operation's Resp is meaningless.
type BatchOpReport struct {
	Op     Op
	Resp   Resp
	Status OpStatus
}

// ensure the wrapper types satisfy the batch surface (compile-time pins).
var (
	_ batchApplier = (*List)(nil)
	_ batchApplier = (*Queue)(nil)
	_ batchApplier = (*BST)(nil)
	_ batchApplier = (*Stack)(nil)
	_ batchApplier = (*HashMap)(nil)
)
