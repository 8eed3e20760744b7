package isb

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/pmem"
)

// The abstract check runs step, the real transition function, under a
// symbolic copy of the engine's Isb-Opt sequencing: an admission's begin,
// boundaries, installs, tag phases, update and cleanup phases, retires and
// close, over a heap of symbolic cache lines — the announcement record (with
// its prefix), the result slots, each engine's register line, and each
// install's Info record, tags, update phase and cleanup. Every barrier persists
// its own lines and the carried ones; every other written line may persist at
// any time (eviction, Px86). At every point of every enumerated sequence the
// process crashes, the heap keeping each subset of the lines in flight, and
// recovery's abstract outcome is checked; at every point the process also fails
// individually, and recovery runs on memory as it is.

var abstractLegs = flag.Int("abstract-legs", 3, "TestDeferralAbstract: legs per enumerated sequence")

// legKind is what one leg of an admission does on its engine.
type legKind byte

const (
	legUpdate legKind = iota // installs, tags, updates
	legMeet                  // an update whose gather meets the held update's tags
	legFree                  // proved effect-free by its gather
	legLost                  // installs, loses its tags, and a retry proves it effect-free
)

func (k legKind) String() string { return string("UMFL"[k]) }

// shape is one admission: a lazy window (one engine), a lazy transaction
// (atomic, two legs, engines eng) or an eager single operation.
type shape struct {
	eager, atomic bool
	legs          []legKind
	eng           []int
}

func (s shape) String() string {
	var b strings.Builder
	switch {
	case s.eager:
		b.WriteString("eager")
	case s.atomic:
		b.WriteString("txn")
	default:
		b.WriteString("window")
	}
	b.WriteString("[")
	for i, l := range s.legs {
		fmt.Fprintf(&b, "%v%d", l, s.eng[i])
	}
	return b.String() + "]"
}

// shapes enumerates every sequence of one or two admissions with legs legs in
// all. A meeting update follows an update on its engine: in its admission, or
// leading the second where the first ended with one, whose update it holds.
func shapes(legs int) [][]shape {
	var adms func(n int, meetFirst bool) []shape
	adms = func(n int, meetFirst bool) []shape {
		var out []shape
		var grow func(ls []legKind)
		grow = func(ls []legKind) {
			if len(ls) == n {
				eng := make([]int, n)
				out = append(out, shape{legs: ls, eng: eng})
				if n == 1 {
					out = append(out, shape{eager: true, legs: ls, eng: eng})
				}
				if n == 2 {
					out = append(out, shape{atomic: true, legs: ls, eng: eng})
					if ls[1] != legMeet {
						out = append(out, shape{atomic: true, legs: ls, eng: []int{0, 1}})
					}
				}
				return
			}
			for k := legUpdate; k <= legLost; k++ {
				if k == legMeet && (len(ls) == 0 && !meetFirst || len(ls) > 0 && ls[len(ls)-1] > legMeet) {
					continue
				}
				grow(append(append([]legKind(nil), ls...), k))
			}
		}
		grow(nil)
		return out
	}
	var out [][]shape
	for n := 1; n <= legs; n++ {
		for _, a := range adms(n, false) {
			out = append(out, []shape{a})
			last := len(a.legs) - 1
			for m := 1; n+m <= legs; m++ {
				for _, b := range adms(m, a.legs[last] <= legMeet && a.eng[last] == 0) {
					out = append(out, []shape{a, b})
				}
			}
		}
	}
	return out
}

// val is a symbolic line's content: the record (a = admission + 1, b = its
// prefix), a register line (a, b = the install + 1 each register names), or
// 1 in a for a stamped slot or a written record, tag, update or cleanup.
type val struct{ a, b int }

// Fixed lines: the record, and each engine's register line.
const (
	lnRec = 0
	lnReg = 1 // + engine
)

// inst is one install: its admission, leg and engine, whether it is a
// read-only leg's (its result set at the install) or lost its tags, and its
// four lines from line on: Info record, tags, update phase, cleanup.
type inst struct {
	adm, leg, e    int
	readOnly, lost bool
	line           int
}

// adm is one admission as run: its shape, its first slot line, the barriers it
// issued and whether it returned.
type adm struct {
	sh       shape
	slot     int
	barriers int
	returned bool
}

// model is the machine: the symbolic heap, the process's deferral state and
// the engines' Go-side register bookkeeping and retire schedules.
type model struct {
	vol, per []val
	carry    []int
	s        deferral
	engs     [2]*Engine
	scoped   bool
	lastReg  [2]int
	regInst  [2][2]int // the install each register was last written with, + 1
	sched    [2][]int  // installs whose operands wait for the engine's next install
	insts    []inst
	adms     []adm
	tagged   []bool // the install's tags were set
	// wbs logs each barrier: what issued it and what it wrote back.
	wbs [][2]string
	// counts and the first violation
	points, subsets int
	fail            string
	recovering      bool
	onPoint         func(m *model)
}

func (m *model) clone() *model {
	c := *m
	c.vol, c.per = append([]val(nil), m.vol...), append([]val(nil), m.per...)
	c.carry = append([]int(nil), m.carry...)
	for e := range c.sched {
		c.sched[e] = append([]int(nil), m.sched[e]...)
	}
	c.insts, c.adms, c.tagged = append([]inst(nil), m.insts...), append([]adm(nil), m.adms...), append([]bool(nil), m.tagged...)
	return &c
}

func (m *model) newLines(n int) int {
	l := len(m.vol)
	m.vol, m.per = append(m.vol, make([]val, n)...), append(m.per, make([]val, n)...)
	return l
}

func (m *model) violate(format string, args ...any) {
	if m.fail == "" {
		m.fail = fmt.Sprintf(format, args...)
	}
}

// write stores v in line l: a point where the process may crash.
func (m *model) write(l int, v val) {
	m.vol[l] = v
	m.point()
}

// barrier persists lines own and every carried one; by names what issues it.
func (m *model) barrier(by string, own ...int) {
	ls := append(m.carry, own...)
	for _, l := range ls {
		m.per[l] = m.vol[l]
	}
	m.wbs = append(m.wbs, [2]string{by, m.names(ls)})
	m.carry = m.carry[:0]
	m.adms[len(m.adms)-1].barriers++
	m.point()
}

func (m *model) point() {
	if !m.recovering && m.onPoint != nil {
		m.onPoint(m)
	}
}

// step reports ev to the deferral state, as Engine.step does.
func (m *model) step(e int, ev event) actions {
	ev.e, ev.scoped = m.engs[e], m.scoped
	var a actions
	m.s, a = step(m.s, ev)
	return a
}

// names spells lines ls, in a fixed order.
func (m *model) names(ls []int) string {
	kinds := []string{"the Info record and the new nodes", "the tags", "the update phase (write set and result)", "the cleanup (done flag and untags)"}
	var out []string
	for _, l := range ls {
		n := "a result slot"
		switch {
		case l == lnRec:
			n = "the announcement with its prefix"
		case l < lnReg+2:
			n = "a register (`RD_q`, `CP_q`)"
		}
		for _, in := range m.insts {
			if l >= in.line && l < in.line+4 {
				n = kinds[l-in.line]
			}
		}
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	order := []string{kinds[0], "the announcement with its prefix", "a result slot", "a register (`RD_q`, `CP_q`)", kinds[1], kinds[2], kinds[3]}
	slices.SortFunc(out, func(a, b string) int { return slices.Index(order, a) - slices.Index(order, b) })
	return strings.Join(out, ", ")
}

func (m *model) engine(x *Engine) int {
	if x == m.engs[1] {
		return 1
	}
	return 0
}

// info and inst map installs to the symbolic addresses step sees: its Info
// record, the field of its CleanupSet (its first AffectSet element) and the
// operand it unlinks (its second).
func infoOf(k int) pmem.Addr    { return pmem.Addr(64 * (k + 1)) }
func fieldOf(k int) pmem.Addr   { return infoOf(k) + 2 }
func operandOf(k int) pmem.Addr { return infoOf(k) + 4 }
func instOf(a pmem.Addr) int    { return int(a/64) - 1 }

// perform is Engine.perform on the model.
func (m *model) perform(e int, a actions) {
	ad := len(m.adms) - 1
	if a.storeRecord {
		m.write(lnRec, val{ad + 1, a.hi})
		m.carry = append(m.carry, lnRec)
	}
	for i := a.lo; !a.storeRecord && i < a.hi; i++ {
		m.write(m.adms[ad].slot+i, val{1, 0})
		m.carry = append(m.carry, m.adms[ad].slot+i)
	}
	for i := 0; a.ops != nil && i < MaxAffect; i++ {
		if nd := a.ops[i]; nd == pmem.Null {
			break
		} else if a.schedule {
			m.sched[m.engine(a.on)] = append(m.sched[m.engine(a.on)], instOf(nd))
		} else {
			m.retireOperand(instOf(nd))
		}
	}
	if a.barrier {
		m.barrier("recovery's settle's")
	}
	if a.release {
		x := m.engine(a.on)
		m.cleanup(x, instOf(a.info), true)
		m.perform(x, m.step(x, event{kind: evReleased}))
	}
	if a.ownBarrier {
		m.barrier("the read-only install's own")
	}
}

func (m *model) retireOperand(k int) {
	if l := m.insts[k].line; m.per[l+2].a == 0 || m.per[l+3].a == 0 {
		m.violate("install %d's operand retired before its update and cleanup are durable", k)
	}
}

// endPhase is Engine.endPhase: a barrier over the phase's line, reported.
func (m *model) endPhase(e, l int) {
	by := "a phase's"
	for _, in := range m.insts {
		if l > in.line && l < in.line+4 {
			by = []string{"the tagging phase's", "the update phase's", "the cleanup phase's"}[l-in.line-1]
		}
	}
	m.barrier(by, l)
	m.perform(e, m.step(e, event{kind: evBarrier}))
}

// cleanup is Engine.cleanup of install k: the done flag and the untags.
func (m *model) cleanup(e, k int, invoker bool) {
	l := m.insts[k].line + 3
	m.write(l, val{1, 0})
	if m.step(e, event{kind: evCleanup, invoker: invoker}).ok {
		m.carry = append(m.carry, l)
		return
	}
	m.endPhase(e, l)
}

// finish is Engine.finish of install k: the update phase, held or ended.
func (m *model) finish(e, k int, invoker bool) {
	l := m.insts[k].line + 2
	m.write(l, val{1, 0})
	if m.step(e, event{kind: evUpdated, invoker: invoker, info: infoOf(k)}).ok {
		m.carry = append(m.carry, l)
		return
	}
	m.endPhase(e, l)
	m.cleanup(e, k, invoker)
}

// install is attemptLoop's Isb-Opt install of a new record for leg leg.
func (m *model) install(e, leg int, readOnly, lost bool) int {
	k := len(m.insts)
	m.insts = append(m.insts, inst{adm: len(m.adms) - 1, leg: leg, e: e, readOnly: readOnly, lost: lost, line: m.newLines(4)})
	m.tagged = append(m.tagged, false)
	a := m.step(e, event{kind: evInstall})
	m.write(m.insts[k].line, val{1, 0})
	m.perform(e, a)
	r := 1 - m.lastReg[e]
	reg := m.vol[lnReg+e]
	if r == 0 {
		reg.a = k + 1
	} else {
		reg.b = k + 1
	}
	m.write(lnReg+e, reg)
	m.barrier("the install's", m.insts[k].line, lnReg+e)
	// retireLast
	old := m.regInst[e][r]
	m.lastReg[e], m.regInst[e][r] = r, k+1
	for _, o := range m.sched[e] {
		m.retireOperand(o)
	}
	m.sched[e] = m.sched[e][:0]
	if o := old - 1; o >= 0 && m.tagged[o] && m.per[m.insts[o].line+3].a == 0 {
		m.violate("install %d's record retired while its cleanup may be volatile", o)
	}
	m.perform(e, m.step(e, event{kind: evBarrier, readOnly: readOnly}))
	return k
}

// leg runs leg i of the current admission.
func (m *model) leg(i int) {
	sh := m.adms[len(m.adms)-1].sh
	e := sh.eng[i]
	switch kind := sh.legs[i]; kind {
	case legMeet, legUpdate:
		if kind == legMeet && m.s.held != nil {
			held := m.s.info
			if !m.step(e, event{kind: evMeet, info: held, field: fieldOf(instOf(held))}).ok {
				// Help as a helper: the update phase re-runs, then the untags.
				m.write(m.insts[instOf(held)].line+2, val{1, 0})
				m.endPhase(e, m.insts[instOf(held)].line+2)
				m.endPhase(e, m.insts[instOf(held)].line+3)
			}
		}
		k := m.install(e, i, false, false)
		m.tagged[k] = true
		m.write(m.insts[k].line+1, val{1, 0})
		m.endPhase(e, m.insts[k].line+1)
		m.finish(e, k, true)
		spec := &Spec{}
		spec.AddAffect(fieldOf(k), 0)
		spec.AddAffect(operandOf(k), 0)
		spec.AddCleanup(fieldOf(k))
		m.perform(e, m.step(e, event{kind: evDone, info: infoOf(k), spec: spec}))
	case legLost, legFree:
		installed := false
		if kind == legLost {
			k := m.install(e, i, false, true)
			m.endPhase(e, m.insts[k].line+1) // the first tag CAS lost: nothing tagged
			installed = true
		}
		if !m.step(e, event{kind: evEffectFree, installed: installed}).ok {
			m.install(e, i, true, false)
		}
	}
}

// admit runs one admission of shape sh to its return.
func (m *model) admit(sh shape) {
	m.adms = append(m.adms, adm{sh: sh})
	ad := &m.adms[len(m.adms)-1]
	ad.slot = m.newLines(len(sh.legs))
	m.scoped = !sh.eager
	m.perform(0, m.step(0, event{kind: evSettle, begin: true}))
	m.perform(1, m.step(1, event{kind: evSettle, begin: true}))
	if m.step(sh.eng[0], event{kind: evBegin, atomic: sh.atomic, n: len(sh.legs)}).ok {
		m.vol[lnRec], m.per[lnRec] = val{len(m.adms), 0}, val{len(m.adms), 0}
		m.point()
		m.scoped = true
	}
	for i := range sh.legs {
		if i > 0 {
			m.step(sh.eng[i], event{kind: evBoundary, n: i - 1})
		}
		m.leg(i)
	}
	// The close is the psync alone: the update held last stays held.
	m.scoped = false
	m.adms[len(m.adms)-1].returned = true
	m.point()
}

// check is recovery's abstract outcome on the durable image d: "" or what is
// wrong.
func (m *model) check(d []val) string {
	named := func(k int) bool {
		r := d[lnReg+m.insts[k].e]
		return (r.a == k+1 || r.b == k+1) && d[m.insts[k].line].a == 1
	}
	done := make([]bool, len(m.insts))
	for k, in := range m.insts {
		tag, upd, cln := d[in.line+1].a == 1, d[in.line+2].a == 1, d[in.line+3].a == 1
		switch {
		case cln && !upd:
			return fmt.Sprintf("install %d's cleanup is durable ahead of its update", k)
		case tag && !cln && !named(k):
			return fmt.Sprintf("install %d's tags are durable and its cleanup is not, but no register names its record", k)
		}
		done[k] = upd || tag
	}
	rj, cursor := d[lnRec].a-1, 0
	if rj >= 0 {
		ad := m.adms[rj]
		for cursor = d[lnRec].b; cursor < len(ad.sh.legs)-1 && d[ad.slot+cursor].a == 1; cursor++ {
		}
		if ad.returned && ad.sh.atomic && cursor != len(ad.sh.legs)-1 {
			return fmt.Sprintf("returned transaction %d reads uncommitted: recovery would re-drive its legs", rj)
		}
		resolvable := false
		for k, in := range m.insts {
			if in.adm == rj && in.leg == cursor && named(k) && (d[in.line+1].a == 1 || d[in.line+2].a == 1 || in.readOnly) {
				resolvable = true
			}
		}
		if ad.returned && !resolvable {
			return fmt.Sprintf("returned admission %d's leg %d, at the cursor, would be re-invoked", rj, cursor)
		}
	}
	for k, in := range m.insts {
		switch {
		case in.adm < rj && !in.readOnly && !in.lost && !done[k]:
			return fmt.Sprintf("admission %d's leg %d, below the durable record's, is not in effect", in.adm, in.leg)
		case in.adm > rj && done[k]:
			return fmt.Sprintf("admission %d's leg %d took effect, but its record is not durable", in.adm, in.leg)
		case in.adm == rj && in.leg < cursor && !in.readOnly && !in.lost && !done[k]:
			return fmt.Sprintf("leg %d, below the cursor %d, is not in effect", in.leg, cursor)
		case in.adm == rj && in.leg > cursor && done[k]:
			return fmt.Sprintf("leg %d, above the cursor %d, took effect", in.leg, cursor)
		case in.adm == rj && in.leg == cursor && d[in.line+2].a == 1 && !named(k):
			return fmt.Sprintf("leg %d, at the cursor, took effect with no register naming it", in.leg)
		}
	}
	return ""
}

// crash checks a system crash here with every subset of the lines in flight
// persisted, and an individual failure here.
func (m *model) crash(individual bool) {
	m.points++
	var dirty []int
	for l := range m.vol {
		if m.vol[l] != m.per[l] {
			dirty = append(dirty, l)
		}
	}
	d := make([]val, len(m.per))
	for set := 0; set < 1<<len(dirty); set++ {
		copy(d, m.per)
		for i, l := range dirty {
			if set>>i&1 == 1 {
				d[l] = m.vol[l]
			}
		}
		m.subsets++
		if msg := m.check(d); msg != "" {
			m.violate("crash at point %d with lines %v of %v persisted: %s", m.points, persisted(dirty, set), dirty, msg)
			return
		}
	}
	if individual {
		if msg := m.clone().failRecover(); msg != "" {
			m.violate("individual failure at point %d: %s", m.points, msg)
		}
	}
}

func persisted(dirty []int, set int) []int {
	var out []int
	for i, l := range dirty {
		if set>>i&1 == 1 {
			out = append(out, l)
		}
	}
	return out
}

// failRecover is recovery after an individual failure, on memory as it is:
// the scope torn down, the held update settled, and the leg at the cursor
// finished from its record if a register names it with its tags set. Then no
// tag may be left set and nothing held.
func (m *model) failRecover() string {
	m.recovering, m.scoped = true, false
	m.perform(0, m.step(0, event{kind: evSettle}))
	if rj := m.vol[lnRec].a - 1; rj >= 0 {
		ad := m.adms[rj]
		cursor := m.vol[lnRec].b
		for ; cursor < len(ad.sh.legs)-1 && m.vol[ad.slot+cursor].a == 1; cursor++ {
		}
		for k, in := range m.insts {
			r := m.vol[lnReg+in.e]
			if in.adm == rj && in.leg == cursor && (r.a == k+1 || r.b == k+1) && m.tagged[k] && m.vol[in.line+3].a == 0 {
				if m.vol[in.line+2].a == 0 {
					m.finish(in.e, k, true)
				} else {
					m.cleanup(in.e, k, true)
				}
			}
		}
	}
	for k, in := range m.insts {
		if m.tagged[k] && m.vol[in.line+2].a == 1 && m.vol[in.line+3].a == 0 {
			return fmt.Sprintf("install %d's tags outlive recovery", k)
		}
	}
	if m.s.held != nil {
		return "recovery leaves an update held"
	}
	return m.fail
}

// run runs the admissions of seq, crashing at every point, and returns the
// first violation, with the counts.
func runAbstract(seq []shape, individual bool) *model {
	m := &model{engs: [2]*Engine{new(Engine), new(Engine)}}
	m.newLines(lnReg + 2)
	m.onPoint = func(m *model) { m.crash(individual) }
	for _, sh := range seq {
		if m.fail != "" {
			break
		}
		m.admit(sh)
		ad := m.adms[len(m.adms)-1]
		last := -1 // the last install that tagged: the one update that may still be held
		for k := range m.insts {
			if m.tagged[k] {
				last = k
			}
		}
		if m.s.held != nil && instOf(m.s.info) != last {
			m.violate("%v returned holding install %d's update, not the last one, %d", sh, instOf(m.s.info), last)
		}
		for k, in := range m.insts {
			if m.tagged[k] && m.vol[in.line+3].a == 0 && (m.s.held == nil || instOf(m.s.info) != k) {
				m.violate("%v returned with install %d's tags set, an update it does not hold", sh, k)
			}
		}
		updates := 0
		for _, l := range sh.legs {
			if l <= legMeet {
				updates++
			}
		}
		if updates == len(sh.legs) && ad.barriers != 2*updates {
			m.violate("%v wrote back %d times, want 2k = %d", sh, ad.barriers, 2*updates)
		}
	}
	return m
}

// TestDeferralAbstract enumerates every sequence of one or two admissions of
// up to -abstract-legs legs in all (windows of updates, meeting updates —
// the second admission's first leg among them, which meets the update the
// first returned holding — effect-free legs and legs that lose their tags;
// transactions on one or two engines; eager single operations), crashes each
// at every point with every subset of the lines in flight persisted, and fails
// it individually at every point, and checks recovery's abstract outcome: the
// durable record's completed prefix in effect, the leg at its cursor
// resolvable from a named, evident record, nothing above it in effect, every
// update whose tags are durable finishable from a named record, no operand or
// record retired before the cleanup that frees it is durable, a returned
// admission resolvable without re-invoking a leg, holding at most the last
// update with its tags and no other tag, and k updating legs written back 2k
// times. The update a returned admission holds outlives it: the next
// admission's crash points and individual failures find it held.
func TestDeferralAbstract(t *testing.T) {
	seqs, points, subsets := 0, 0, 0
	for _, seq := range shapes(*abstractLegs) {
		m := runAbstract(seq, true)
		if m.fail != "" {
			t.Fatalf("%v: %s", seq, m.fail)
		}
		seqs, points, subsets = seqs+1, points+m.points, subsets+m.subsets
	}
	t.Logf("%d legs: %d sequences, %d crash points, %d crash subsets", *abstractLegs, seqs, points, subsets)
}

// TestIsbOptWritebacksTable renders README's table of what one successful
// Isb-Opt update writes back from the model's barriers for a lone update, each
// issued where step's actions put it: the install's and the tagging phase's,
// and what the last of them leaves carried past the close.
func TestIsbOptWritebacksTable(t *testing.T) {
	m := runAbstract([]shape{{legs: []legKind{legUpdate}, eng: []int{0}}}, false)
	rows := [][]string{{"#", "barrier", "writes back"}}
	for i, w := range m.wbs {
		rows = append(rows, []string{strconv.Itoa(i + 1), w[0], w[1]})
	}
	rows = append(rows, []string{"–", "the process's next, on any engine", m.names(m.carry)})
	var table strings.Builder
	for i, r := range rows {
		table.WriteString("| " + strings.Join(r, " | ") + " |\n")
		if i == 0 {
			table.WriteString(strings.Repeat("|---", len(r)) + "|\n")
		}
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	open := "<!-- gen:isb-opt-writebacks -->\n"
	_, block, opened := strings.Cut(string(readme), open)
	block, _, closed := strings.Cut(block, "<!-- /gen -->")
	if !opened || !closed || block != table.String() {
		t.Errorf("README.md block %q is not what %s computes; regenerated:\n\n%s%s<!-- /gen -->", "isb-opt-writebacks", t.Name(), open, table.String())
	}
}
