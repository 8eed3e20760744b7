package isb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/pmem"
)

// The tests exercise the engine directly through a minimal synthetic
// structure shaped like every real one: an anchor cell holding a pointer to
// a versioned box. An increment operation tags (anchor, box), swings
// anchor.box to a fresh box holding value+1, retires the old box (it stays
// tagged forever) and cleans up the anchor and the new box. This satisfies
// the engine requirement that only the first AffectSet element re-untags.
//
// Layout: anchor{box, info}, box{val, info}.
const (
	aBox  = 0
	aInfo = 1
	bVal  = 0
	bInfo = 1
)

type counter struct {
	Ops
	e      *Engine
	anchor pmem.Addr
}

func newCounter(h *pmem.Heap, opt bool) *counter {
	e := NewEngine(h)
	if opt {
		e = NewEngineOpt(h)
	}
	c := &counter{e: e}
	p := h.Proc(0)
	box := p.Alloc(2)
	p.Store(box+bVal, 0)
	c.anchor = p.Alloc(2)
	p.Store(c.anchor+aBox, uint64(box))
	p.PBarrierRange(box, 2)
	p.PBarrierRange(c.anchor, 2)
	p.PSync()
	c.Ops = NewOps(e, func(uint64, uint64) Gather { return c.gatherInc }, nil)
	return c
}

const opInc uint64 = 7

func (c *counter) gatherInc(p *pmem.Proc, info pmem.Addr, spec *Spec) GatherResult {
	anchorInfo := p.Load(c.anchor + aInfo)
	box := pmem.Addr(p.Load(c.anchor + aBox))
	boxInfo := p.Load(box + bInfo)
	newBox := p.Alloc(2)
	p.Store(newBox+bVal, p.Load(box+bVal)+1)
	p.Store(newBox+bInfo, Tagged(info))
	spec.AddAffect(c.anchor+aInfo, anchorInfo)
	spec.AddAffect(box+bInfo, boxInfo) // retires on success
	spec.AddWrite(c.anchor+aBox, uint64(box), uint64(newBox))
	spec.AddCleanup(c.anchor + aInfo)
	spec.AddCleanup(newBox + bInfo)
	spec.AddPersist(newBox, 2)
	spec.SuccessResponse = EncodeValue(p.Load(newBox + bVal))
	return Proceed
}

func (c *counter) inc(p *pmem.Proc) uint64 {
	return DecodeValue(c.ApplyOp(p, opInc, 0))
}

func (c *counter) value(h *pmem.Heap) uint64 {
	return h.ReadVolatile(pmem.Addr(h.ReadVolatile(c.anchor+aBox)) + bVal)
}

func TestEngineSequentialIncrements(t *testing.T) {
	for _, opt := range []bool{false, true} {
		h := pmem.NewHeap(pmem.Config{Words: 1 << 18, Procs: 1, Tracked: true})
		c := newCounter(h, opt)
		p := h.Proc(0)
		for i := uint64(1); i <= 100; i++ {
			if got := c.inc(p); got != i {
				t.Fatalf("opt=%v: inc #%d returned %d", opt, i, got)
			}
		}
		if c.value(h) != 100 {
			t.Fatalf("opt=%v: final value %d", opt, c.value(h))
		}
	}
}

func TestEngineConcurrentIncrementsExactlyOnce(t *testing.T) {
	for _, opt := range []bool{false, true} {
		const procs, perProc = 4, 300
		h := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: procs, Tracked: true})
		c := newCounter(h, opt)
		var wg sync.WaitGroup
		seen := make([][]uint64, procs)
		for id := 0; id < procs; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				p := h.Proc(id)
				for i := 0; i < perProc; i++ {
					seen[id] = append(seen[id], c.inc(p))
				}
			}(id)
		}
		wg.Wait()
		if got := c.value(h); got != procs*perProc {
			t.Fatalf("opt=%v: value %d, want %d (lost or doubled increments)", opt, got, procs*perProc)
		}
		// Responses are exactly the set {1..procs*perProc}: each increment
		// observed its own unique post-value.
		all := map[uint64]bool{}
		for _, s := range seen {
			for _, v := range s {
				if all[v] {
					t.Fatalf("opt=%v: response %d returned twice", opt, v)
				}
				all[v] = true
			}
		}
		if len(all) != procs*perProc {
			t.Fatalf("opt=%v: %d distinct responses", opt, len(all))
		}
	}
}

func TestEngineRecoverAfterEveryCrashOffset(t *testing.T) {
	for _, opt := range []bool{false, true} {
		for offset := uint64(1); offset <= 55; offset++ {
			h := pmem.NewHeap(pmem.Config{Words: 1 << 18, Procs: 1, Tracked: true})
			c := newCounter(h, opt)
			p := h.Proc(0)
			c.inc(p)                 // value 1
			c.e.Begin(p, false, nil) // system-side invocation step (see crash.Applier)
			h.ScheduleCrashAt(h.AccessCount() + offset)
			var resp uint64
			crashed := !pmem.RunOp(func() { resp = c.inc(p) })
			h.DisarmCrash()
			if crashed {
				h.ResetAfterCrash()
				resp = DecodeValue(c.RecoverLeg(p, 0, opInc, 0))
			}
			if resp != 2 {
				t.Fatalf("opt=%v offset %d: response %d, want 2", opt, offset, resp)
			}
			if got := c.value(h); got != 2 {
				t.Fatalf("opt=%v offset %d: value %d, want 2 (exactly-once violated)", opt, offset, got)
			}
		}
	}
}

func TestEngineRecoverStaleRDReinvokes(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Words: 1 << 18, Procs: 1, Tracked: true})
	c := newCounter(h, false)
	p := h.Proc(0)
	c.inc(p)
	// Recover for a *different* op type: the Info in RD_q must be ignored.
	const opOther uint64 = 99
	resp := c.RecoverLeg(p, 0, opOther, 0)
	if DecodeValue(resp) != 2 {
		t.Fatalf("stale-RD recovery re-invoked wrongly: %d", resp)
	}
}

func TestEngineBeginOpClearsCheckpoint(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Words: 1 << 18, Procs: 1, Tracked: true})
	c := newCounter(h, false)
	p := h.Proc(0)
	c.inc(p)
	// After the bare Begin (system-side CP_q := 0), Recover must re-invoke
	// even though RD_q still points at the completed op's Info.
	c.e.Begin(p, false, nil)
	if got := DecodeValue(c.RecoverLeg(p, 0, opInc, 0)); got != 2 {
		t.Fatalf("post-Begin recovery returned %d, want fresh execution (2)", got)
	}
}

// TestEngineVariantsAndPersisterHook: each constructor builds its placement.
func TestEngineVariantsAndPersisterHook(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Words: 1 << 18, Procs: 1, Tracked: true})
	if e := NewEngine(h); e.Batched() {
		t.Fatal("plain engine is batched")
	}
	if e := NewEngineOpt(h); !e.Batched() {
		t.Fatal("opt engine is not batched")
	}
}

// TestBatchPersisterCoversUnalignedRangeTail: the arena only guarantees
// 2-word alignment, so a range may span one more cache line than
// words/WordsPerLine; the batched placement must record the tail line.
func TestBatchPersisterCoversUnalignedRangeTail(t *testing.T) {
	b := &batchPersister{}
	start := pmem.Addr(10*pmem.WordsPerLine + 4) // 4 words into a line
	b.WroteRange(start, InfoWords)               // spans 5 lines, not 4
	lines := map[pmem.Addr]bool{}
	for _, a := range b.dirty {
		lines[a&^(pmem.WordsPerLine-1)] = true
	}
	last := (start + InfoWords - 1) &^ (pmem.WordsPerLine - 1)
	if !lines[last] {
		t.Fatalf("tail line %d not recorded (lines %v)", last, b.dirty)
	}
	if want := int(InfoWords/pmem.WordsPerLine) + 1; len(lines) != want {
		t.Fatalf("recorded %d distinct lines, want %d", len(lines), want)
	}
}

func TestSpecBoundsChecked(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Words: 1 << 16, Procs: 1})
	e := NewEngine(h)
	p := h.Proc(0)
	defer func() {
		if recover() == nil {
			t.Fatal("cleanup entry aliasing affect[1] not rejected")
		}
	}()
	var spec Spec
	a := p.Alloc(2)
	b := p.Alloc(2)
	spec.AddAffect(a, 0)
	spec.AddAffect(b, 0)
	spec.AddCleanup(b) // violates the retire-class rule
	e.install(p, e.allocInfo(p), &spec)
}

func TestTaggingHelpers(t *testing.T) {
	f := func(raw uint64) bool {
		a := pmem.Addr(raw &^ 1)
		return IsTagged(Tagged(a)) &&
			!IsTagged(Untagged(a)) &&
			InfoOf(Tagged(a)) == a &&
			InfoOf(Untagged(a)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResponseEncoding(t *testing.T) {
	f := func(v uint64) bool {
		if v > 1<<62 {
			v >>= 2
		}
		e := EncodeValue(v)
		return IsValue(e) && DecodeValue(e) == v &&
			e != RespNone && e != RespTrue && e != RespFalse && e != RespEmpty
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if Bool(RespTrue) != true || Bool(RespFalse) != false {
		t.Fatal("Bool broken")
	}
	if BoolResp(true) != RespTrue || BoolResp(false) != RespFalse {
		t.Fatal("BoolResp broken")
	}
}

// TestHelpIdempotentManyHelpers: many procs all Help the same Info record
// concurrently with the invoker; the update applies exactly once.
func TestHelpIdempotentManyHelpers(t *testing.T) {
	const helpers = 6
	h := pmem.NewHeap(pmem.Config{Words: 1 << 20, Procs: helpers + 1, Tracked: true})
	c := newCounter(h, false)
	inv := h.Proc(0)

	// Build the op by hand so every proc can Help the same record.
	info := c.e.allocInfo(inv)
	var spec Spec
	spec.OpType, spec.ArgKey = opInc, 0
	if c.gatherInc(inv, info, &spec) != Proceed {
		t.Fatal("gather failed")
	}
	c.e.install(inv, info, &spec)
	inv.PBarrierRange(info, InfoWords)
	inv.PSync()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); c.e.Help(inv, info, true) }()
	for id := 1; id <= helpers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Helpers normally discover the op via a tag; here they jump
			// straight in, which is legal once the invoker has tagged the
			// first element — busy-wait for that.
			p := h.Proc(id)
			for p.Load(c.anchor+aInfo) != Tagged(info) {
				if p.Load(info+offResult) != RespNone {
					return // op already done
				}
			}
			c.e.Help(p, info, false)
		}(id)
	}
	wg.Wait()
	if got := c.value(h); got != 1 {
		t.Fatalf("value %d after %d concurrent helpers, want 1", got, helpers)
	}
	if r := inv.Load(info + offResult); r != EncodeValue(1) {
		t.Fatalf("result %d", r)
	}
}

// TestRecoveryTerminatesOrFailsLoudly: a structure recovery cannot resolve —
// here a gather that restarts forever — must end in the attempt bound's
// panic, naming the operation, the recovery registers and the record RD_q
// still holds, and never in the allocator's "arena exhausted" (each retry
// allocates a 32-word Info record, and this heap holds about twice the
// bound's worth). CP_q is raised to the admission number by Isb's prologue
// but only by the first install under Isb-Opt, which also never resets RD_q to
// Null: there RD_q still names the last installed record — here a completed
// increment's, under the admission before the bare begin that precedes the
// recovery.
func TestRecoveryTerminatesOrFailsLoudly(t *testing.T) {
	stuck := func(*pmem.Proc, pmem.Addr, *Spec) GatherResult { return Restart }
	for _, opt := range []bool{false, true} {
		for _, c := range []struct {
			name     string
			prior    bool // complete one increment before the stuck recovery
			isb, opt string
		}{
			{"fresh", false, "RD_q = 0, CP_q = 1, admission 1", "RD_q = 0, CP_q = 0, admission 1"},
			{"after an increment", true, "RD_q = 0, CP_q = 2, admission 2", "(kind 7, key 0, seq 0, result 17, done 1), CP_q = 1, admission 2"},
		} {
			h := pmem.NewHeap(pmem.Config{Words: 1 << 16, Procs: 1, Tracked: true})
			ctr := newCounter(h, opt)
			p := h.Proc(0)
			if c.prior {
				ctr.inc(p)
			}
			ctr.e.Begin(p, false, nil)
			var msg string
			func() {
				defer func() { msg = fmt.Sprint(recover()) }()
				ctr.e.recoverSeq(p, opInc, 42, 3, stuck)
			}()
			regs := c.isb
			if opt {
				regs = c.opt
			}
			for _, want := range []string{"isb: recovery of proc 0", "kind 7, key 42, seq 3", regs, "affect set []"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("opt=%v %s: recovery ended with %q, want a message containing %q", opt, c.name, msg, want)
				}
			}
			if used := h.Used(); used > 1<<16 {
				t.Fatalf("opt=%v %s: %d words used on a %d-word heap", opt, c.name, used, 1<<16)
			}
		}
	}
}
