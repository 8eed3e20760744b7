// Package exchanger implements the paper's detectably recoverable
// exchanger (Section 6). An exchanger lets two processes pair up and swap
// values: the first process captures the slot by installing its ExInfo
// structure and waits; a second process collides with it by CASing its own
// ExInfo into the waiter's partner field.
//
// Detectability hinges on a single decision point: the CAS on the waiter's
// partner field. Both sides can reconstruct the outcome after a crash —
// the waiter's partner field tells it whether (and with whom) it collided;
// the collider records its candidate in its own ExInfo (with a role bit)
// before attempting the CAS, so its recovery re-reads the candidate's
// partner field to learn whether it won.
//
// The partner word encodes role and state in one atomically-written word
// (ExInfo addresses are even):
//
//	0          — no collision yet (waiter, or collider before candidacy)
//	1          — withdrawn: the operation aborted (timeout)
//	even ≠ 0   — a collider's ExInfo: the waiter's exchange succeeded
//	odd  > 1   — candidate|1: this process is a collider courting candidate
package exchanger

import (
	"runtime"

	"repro/internal/isb"
	"repro/internal/pmem"
)

// ExInfo field offsets (words); 4-word allocations.
const (
	xVal     = 0
	xPartner = 1
	xResult  = 2

	exWords = 4
)

const withdrawn uint64 = 1

// Role restricts which side of the exchange an operation may take. The
// elimination stack uses the asymmetric roles so that only pushes install
// and only pops collide (preventing push/push pairing).
type Role int

const (
	// Symmetric: install if the slot is free, otherwise collide.
	Symmetric Role = iota
	// WaiterOnly installs and waits; it never collides.
	WaiterOnly
	// ColliderOnly collides with an installed waiter; it never installs.
	ColliderOnly
)

// Exchanger is a detectably recoverable single-slot exchange channel.
type Exchanger struct {
	h    *pmem.Heap
	slot pmem.Addr
	base pmem.Addr // per-proc RD/CP lines (word0 = RD, word1 = CP)
}

// New allocates an exchanger and its per-process recovery registers.
func New(h *pmem.Heap) *Exchanger {
	p := h.Proc(0)
	e := &Exchanger{h: h}
	raw := p.Alloc(uint64(h.NumProcs()+2) * pmem.WordsPerLine)
	base := (raw + pmem.WordsPerLine - 1) &^ (pmem.WordsPerLine - 1)
	e.slot = base
	e.base = base + pmem.WordsPerLine
	p.PBarrier(e.slot)
	p.PSync()
	return e
}

func (e *Exchanger) rd(p *pmem.Proc) pmem.Addr {
	return e.base + pmem.Addr(p.ID()*pmem.WordsPerLine)
}
func (e *Exchanger) cp(p *pmem.Proc) pmem.Addr { return e.rd(p) + 1 }

// Begin is the system-side invocation step (persist CP_q := 0): a bare begin,
// whose raise of the admission number resets CP_q (it holds the number).
func (e *Exchanger) Begin(p *pmem.Proc) { isb.Announce(p, false) }

// Exchange offers v and waits up to spins iterations for a partner. On
// success it returns the partner's value; ok=false means the operation
// aborted (timeout, or no waiter for a ColliderOnly call).
func (e *Exchanger) Exchange(p *pmem.Proc, v uint64, role Role, spins int) (uint64, bool) {
	e.Begin(p)
	return e.Offer(p, v, role, spins)
}

// Offer is Exchange under the caller's admission, with no begin of its own,
// which would invalidate the caller's announcement.
func (e *Exchanger) Offer(p *pmem.Proc, v uint64, role Role, spins int) (uint64, bool) {
	rd, cp := e.rd(p), e.cp(p)
	p.Store(rd, uint64(pmem.Null))
	p.PBarrier(rd)
	p.Store(cp, isb.Admission(p))
	p.PWB(cp)
	p.PSync()

	my := p.Alloc(exWords)
	p.Store(my+xVal, v)
	p.Store(my+xPartner, 0)
	p.Store(my+xResult, isb.RespNone)
	p.PBarrierRange(my, exWords)
	p.Store(rd, uint64(my))
	p.PWB(rd)
	p.PSync()

	for attempt := 0; attempt < spins || attempt == 0; attempt++ {
		other := pmem.Addr(p.Load(e.slot))
		if other == pmem.Null {
			if role == ColliderOnly {
				runtime.Gosched()
				continue
			}
			if p.CASBool(e.slot, uint64(pmem.Null), uint64(my)) {
				p.PWB(e.slot)
				return e.wait(p, my, spins)
			}
			continue
		}
		if role == WaiterOnly {
			// Help clear a stale (withdrawn) occupant so the slot frees up.
			if p.Load(other+xPartner) == withdrawn {
				p.CAS(e.slot, uint64(other), uint64(pmem.Null))
				p.PWB(e.slot)
			}
			runtime.Gosched()
			continue
		}
		if other == my {
			// Stale slot from a previous attempt of ours cannot occur
			// (withdrawal clears it before returning), but be defensive.
			runtime.Gosched()
			continue
		}
		// Collide: record the candidacy (role bit set) before the CAS so
		// recovery can re-derive the outcome, then try to win the partner.
		p.Store(my+xPartner, uint64(other)|1)
		p.PWB(my + xPartner)
		p.PSync()
		if p.CASBool(other+xPartner, 0, uint64(my)) {
			p.PWB(other + xPartner)
			p.PSync()
			p.CAS(e.slot, uint64(other), uint64(pmem.Null))
			p.PWB(e.slot)
			return e.finishSuccess(p, my, other)
		}
		// Lost the race: help clear the slot and retry with a clean state.
		p.CAS(e.slot, uint64(other), uint64(pmem.Null))
		p.PWB(e.slot)
		p.Store(my+xPartner, 0)
		p.PWB(my + xPartner)
		p.PSync()
		runtime.Gosched()
	}
	return e.finishAbort(p, my)
}

// wait spins for a collider after installing my into the slot.
func (e *Exchanger) wait(p *pmem.Proc, my pmem.Addr, spins int) (uint64, bool) {
	for i := 0; i < spins || i == 0; i++ {
		if partner := pmem.Addr(p.Load(my + xPartner)); partner != pmem.Null {
			return e.finishSuccess(p, my, partner)
		}
		runtime.Gosched()
	}
	// Timeout: withdraw. If the withdrawal CAS loses, a collider arrived.
	if p.CASBool(my+xPartner, 0, withdrawn) {
		p.PWB(my + xPartner)
		p.PSync()
		p.CAS(e.slot, uint64(my), uint64(pmem.Null))
		p.PWB(e.slot)
		return e.finishAbort(p, my)
	}
	return e.finishSuccess(p, my, pmem.Addr(p.Load(my+xPartner)))
}

// finishSuccess persists and returns the exchanged value. partner may carry
// the collider role bit.
func (e *Exchanger) finishSuccess(p *pmem.Proc, my, partner pmem.Addr) (uint64, bool) {
	cand := partner &^ 1
	val := p.Load(cand + xVal)
	p.Store(my+xResult, isb.EncodeValue(val))
	p.PWB(my + xResult)
	p.PSync()
	return val, true
}

// finishAbort persists the abort response.
func (e *Exchanger) finishAbort(p *pmem.Proc, my pmem.Addr) (uint64, bool) {
	p.Store(my+xResult, isb.RespFalse)
	p.PWB(my + xResult)
	p.PSync()
	return 0, false
}

// Recover resumes an interrupted Exchange with the same arguments. It
// returns the exchanged value on success, or ok=false if the operation
// aborted. retry controls whether an operation that provably had no effect
// is re-invoked (true) or reported as aborted (false); the elimination
// stack passes false so it can fall back to the central stack.
func (e *Exchanger) Recover(p *pmem.Proc, v uint64, role Role, spins int, retry bool) (uint64, bool) {
	rd, cp := e.rd(p), e.cp(p)
	my := pmem.Addr(p.Load(rd))
	if p.Load(cp) != isb.Admission(p) || my == pmem.Null {
		return e.reinvoke(p, v, role, spins, retry)
	}
	if p.Load(my+xVal) != v {
		// RD describes a different operation: this one never started.
		return e.reinvoke(p, v, role, spins, retry)
	}
	partner := p.Load(my + xPartner)
	switch {
	case partner == 0:
		// Waiter with no collision yet — or never installed. Withdraw, then
		// re-invoke. Only the withdrawal CAS decides: until it lands a
		// collider that read the slot earlier can still win the record and
		// clear the slot, so a read of the slot proves nothing.
		if !p.CASBool(my+xPartner, 0, withdrawn) {
			return e.finishSuccess(p, my, pmem.Addr(p.Load(my+xPartner)))
		}
		p.PWB(my + xPartner)
		p.PSync()
		p.CAS(e.slot, uint64(my), uint64(pmem.Null))
		p.PWB(e.slot)
		return e.reinvoke(p, v, role, spins, retry)
	case partner == withdrawn:
		return e.reinvoke(p, v, role, spins, retry)
	case partner&1 == 1:
		// Collider: did our CAS on the candidate win?
		cand := pmem.Addr(partner &^ 1)
		if pmem.Addr(p.Load(cand+xPartner)) == my {
			p.CAS(e.slot, uint64(cand), uint64(pmem.Null))
			p.PWB(e.slot)
			return e.finishSuccess(p, my, cand)
		}
		return e.reinvoke(p, v, role, spins, retry)
	default:
		// Waiter that was collided with: the exchange happened.
		return e.finishSuccess(p, my, pmem.Addr(partner))
	}
}

func (e *Exchanger) reinvoke(p *pmem.Proc, v uint64, role Role, spins int, retry bool) (uint64, bool) {
	if !retry {
		return 0, false
	}
	return e.Offer(p, v, role, spins)
}

// SlotFree reports whether the slot is empty (test helper).
func (e *Exchanger) SlotFree() bool {
	return pmem.Addr(e.h.ReadVolatile(e.slot)) == pmem.Null
}
