package isb

import "repro/internal/pmem"

// Register is one of a process's two persisted recovery registers: RD_q, CP_q
// and, when RD_q is set, the stamp, done flag and CleanupSet of the record it
// names.
type Register struct {
	RD             pmem.Addr
	CP             uint64
	Kind, Key, Seq uint64
	Done           uint64
	Cleanup        []pmem.Addr
}

// Durable is what the crash tests read back of one process's persisted
// recovery state: both registers, the admission number CP_q is read against,
// and which register the process's last complete install wrote (Go-side).
type Durable struct {
	Regs [2]Register
	Adm  uint64
	Last int
}

// Current returns the register whose CP_q is the admission number, the last
// complete install's if both are, or the zero Register if neither is.
func (d Durable) Current() Register {
	for _, r := range []int{d.Last, 1 - d.Last} {
		if d.Regs[r].CP == d.Adm {
			return d.Regs[r]
		}
	}
	return Register{}
}

// Names reports whether either register names info.
func (d Durable) Names(info pmem.Addr) bool { return d.Regs[0].RD == info || d.Regs[1].RD == info }

// Durable reads p's recovery state from the persisted image. The admission
// number is read through p (Admission), so it is the persisted one where the
// volatile image is: after a crash's ResetAfterCrash, or between admissions,
// whose begin wrote it back.
func (e *Engine) Durable(p *pmem.Proc) Durable {
	h := e.h
	d := Durable{Adm: Admission(p), Last: e.proc(p).last.reg}
	for r := range d.Regs {
		reg := &d.Regs[r]
		reg.RD, reg.CP = pmem.Addr(h.ReadPersisted(e.rd(p.ID(), r))), h.ReadPersisted(e.cp(p.ID(), r))
		if reg.RD == pmem.Null {
			continue
		}
		word := func(off pmem.Addr) uint64 { return h.ReadPersisted(reg.RD + off) }
		reg.Kind, reg.Key, reg.Done = word(offOpType), word(offArgKey), word(offDone)
		reg.Seq = word(offStamp) & (1<<stampProcShift - 1)
		_, _, cn := lens(word(offLens))
		for i := pmem.Addr(0); i < pmem.Addr(min(cn, MaxCleanup)); i++ {
			reg.Cleanup = append(reg.Cleanup, pmem.Addr(word(offCleanup+i)))
		}
	}
	return d
}

// ForgetHold drops the update p holds without releasing it: its tags stay
// set, and no process holds them any more.
func (e *Engine) ForgetHold(p *pmem.Proc) { e.recs.procs[p.ID()].d.held = nil }
