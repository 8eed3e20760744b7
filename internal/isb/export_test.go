package isb

import "repro/internal/pmem"

// Durable is what the crash tests read back of one process's persisted
// recovery state: RD_q, CP_q, the admission number CP_q is read against and,
// when RD_q is set, the stamp, done flag and CleanupSet of the record it
// names.
type Durable struct {
	RD             pmem.Addr
	CP, Adm        uint64
	Kind, Key, Seq uint64
	Done           uint64
	Cleanup        []pmem.Addr
}

// Durable reads p's recovery state from the persisted image. The admission
// number is read through p (Admission), so it is the persisted one where the
// volatile image is: after a crash's ResetAfterCrash, or between admissions,
// whose begin wrote it back.
func (e *Engine) Durable(p *pmem.Proc) Durable {
	h := e.h
	d := Durable{RD: pmem.Addr(h.ReadPersisted(e.rd(p))), CP: h.ReadPersisted(e.cp(p)), Adm: Admission(p)}
	if d.RD == pmem.Null {
		return d
	}
	word := func(off pmem.Addr) uint64 { return h.ReadPersisted(d.RD + off) }
	d.Kind, d.Key, d.Seq, d.Done = word(offOpType), word(offArgKey), word(offSeq), word(offDone)
	for i := pmem.Addr(0); i < pmem.Addr(min(word(offCleanupLen), MaxCleanup)); i++ {
		d.Cleanup = append(d.Cleanup, pmem.Addr(word(offCleanup+i)))
	}
	return d
}
