package repro

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/isb"
	"repro/internal/pmem"
)

// legOps lists a report's announced operations.
func legOps(rep ProcReport) []Op {
	ops := make([]Op, len(rep.Legs))
	for i, l := range rep.Legs {
		ops[i] = l.Op
	}
	return ops
}

// TestCrashBeforeFirstBarrier crashes an admission at every access from its
// begin up to its first write-back — under Isb-Opt the barrier that carries
// its announcement, under Isb the begin's own pwb — once with nothing more
// persisted and once with each line the crash left dirty persisted, as an
// eviction could have, on both engines and both allocators. A shape that
// leads with a read stamps slot 0 past its first write-back — under Isb-Opt
// the read's response waits with the pending record and is stored after the
// install barrier that writes the record back — so its sweep runs on through
// the stores of slot 0, up to the next write-back: the record must be written
// back before the slot changes, or an evicted slot line leaves the previous
// record valid with the new read's response in its slot.
//
// The admission before it is either a window whose slot 0 is stamped — an
// insert its second leg undid, so re-running that leg would show — or an
// atomic peek→insert transaction whose insert takes its argument from the
// peek's response (ArgFromLeg1), so a wrong slot-0 response would re-derive
// and re-run a different insert. Every leading read answers differently from
// the previous admission's leg 0. Whatever the crash left, no effect of the
// new admission may be durable — under Isb-Opt the previous admission's last
// update, which it returned holding, may be durable or not: the keys must be
// those of the store before the admission or of its persisted image, the
// crash at the admission's first access — and recovery must find the previous record
// under its own number with its own responses, or no valid record — or the
// new record, only where its write-back ran or the one persisted line held
// it whole, whose legs then resolve with the new admission's responses. The
// legs the report leaves unresolved, re-submitted, must then leave what the
// sequential model says.
func TestCrashBeforeFirstBarrier(t *testing.T) {
	// One runtime's structures: src and dst take the swept admission, q and
	// q2 are queues with heads 7 and 8, aux takes the previous transaction's
	// insert.
	type env struct {
		rt            *Runtime
		src, dst, aux *HashMap
		q, q2         *Queue
	}
	type prevShape struct {
		name string
		ops  []Op
		run  func(v env) []Resp
		aux  []uint64
	}
	prevs := []prevShape{
		{"window", []Op{{Kind: OpInsert, Arg: 20}, {Kind: OpDelete, Arg: 20}}, func(v env) []Resp {
			return v.rt.ApplyWindow(v.rt.Proc(0), v.src, []Op{{Kind: OpInsert, Arg: 20}, {Kind: OpDelete, Arg: 20}})
		}, nil},
		{"copy", []Op{{Kind: OpPeek}, {Kind: OpInsert}}, func(v env) []Resp {
			r0, r1 := v.rt.ApplyTxn(v.rt.Proc(0), TxnLeg{S: v.q, Op: Op{Kind: OpPeek}}, TxnLeg{S: v.aux, Op: Op{Kind: OpInsert}, ArgFromLeg1: true})
			return []Resp{r0, r1}
		}, []uint64{7}},
	}
	type shape struct {
		name             string
		ops              []Op
		leadsWithRead    bool
		admit            func(v env, ops []Op) []Resp
		wantSrc, wantDst []uint64
	}
	shapes := []shape{
		{"update", []Op{{Kind: OpInsert, Arg: 40}}, false, func(v env, ops []Op) []Resp {
			var out []Resp
			for _, op := range ops {
				out = append(out, v.src.Apply(v.rt.Proc(0), op))
			}
			return out
		}, []uint64{10, 30, 40}, nil},
		{"window", []Op{{Kind: OpFind, Arg: 25}, {Kind: OpInsert, Arg: 40}, {Kind: OpDelete, Arg: 10}}, true,
			func(v env, ops []Op) []Resp {
				if len(ops) == 0 {
					return nil
				}
				return v.rt.ApplyWindow(v.rt.Proc(0), v.src, ops)
			}, []uint64{30, 40}, nil},
		{"txn", []Op{{Kind: OpDelete, Arg: 10}, {Kind: OpInsert, Arg: 10}}, false, func(v env, ops []Op) []Resp {
			if len(ops) < 2 {
				return nil
			}
			r0, r1 := v.rt.ApplyTxn(v.rt.Proc(0), TxnLeg{S: v.src, Op: ops[0]}, TxnLeg{S: v.dst, Op: ops[1]})
			return []Resp{r0, r1}
		}, []uint64{30}, []uint64{10}},
		{"copy", []Op{{Kind: OpPeek}, {Kind: OpInsert}}, true, func(v env, ops []Op) []Resp {
			if len(ops) < 2 {
				return nil
			}
			r0, r1 := v.rt.ApplyTxn(v.rt.Proc(0), TxnLeg{S: v.q2, Op: ops[0]}, TxnLeg{S: v.dst, Op: ops[1], ArgFromLeg1: true})
			return []Resp{r0, r1}
		}, []uint64{10, 30}, []uint64{8}},
	}
	for _, e := range engines() {
		for _, reclaim := range []bool{false, true} {
			alloc := map[bool]string{false: "arena", true: "reclaim"}[reclaim]
			for _, pr := range prevs {
				for _, c := range shapes {
					t.Run(e.name+"/"+alloc+"/after-"+pr.name+"/"+c.name, func(t *testing.T) {
						setup := func() (env, []Resp) {
							rt := New(Config{Procs: 1, CrashSim: true, HeapWords: 1 << 17, Engine: e.kind, Reclaim: reclaim})
							v := env{rt: rt, src: rt.NewHashMap(4), dst: rt.NewHashMap(4), aux: rt.NewHashMap(4), q: rt.NewQueue(), q2: rt.NewQueue()}
							p := rt.Proc(0)
							v.src.Insert(p, 10)
							v.src.Insert(p, 30)
							v.q.Apply(p, Op{Kind: OpEnq, Arg: 7})
							v.q2.Apply(p, Op{Kind: OpEnq, Arg: 8})
							return v, pr.run(v)
						}
						// The swept admission's own responses, from a run without
						// a crash.
						v, _ := setup()
						want := c.admit(v, c.ops)
						v.rt.Heap().Release()
						// The keys before the admission, and in its persisted image.
						v, _ = setup()
						before := fmt.Sprint(v.src.Keys(), v.dst.Keys(), v.aux.Keys())
						v.rt.ScheduleCrash(1)
						if v.rt.Run(func() { c.admit(v, c.ops) }) {
							t.Fatal("the admission outran a crash at its first access")
						}
						v.rt.Restart()
						image := fmt.Sprint(v.src.Keys(), v.dst.Keys(), v.aux.Keys())
						v.rt.Heap().Release()

						// at crashes the admission at access off with line
						// persisted (Null: none) and checks recovery, unless the
						// crash came after more than limit write-backs (limit < 0:
						// any number, until slot 0 is stamped). It reports whether
						// the point was checked, how many write-backs preceded the
						// crash, whether slot 0 was stamped by then, and the lines
						// the crash left dirty.
						at := func(off uint64, line pmem.Addr, limit int) (checked bool, wbs int, stamped bool, dirty []pmem.Addr) {
							v, prevResps := setup()
							rt, p := v.rt, v.rt.Proc(0)
							defer rt.Heap().Release()
							adm, keys := isb.Admission(p), v.src.Keys()
							w0 := p.Stats().Barriers + p.Stats().Flushes
							rt.ScheduleCrash(off)
							if rt.Run(func() { c.admit(v, c.ops) }) {
								rt.CancelCrash()
								return false, 0, false, nil
							}
							wbs = int(p.Stats().Barriers + p.Stats().Flushes - w0)
							rec, ok := isb.ReadRecord(p) // the volatile record: p saw the crash, its accesses pass
							stamped = ok && rec.Cursor > 0 && isb.Admission(p) == adm+1
							if limit >= 0 && wbs > limit {
								return false, wbs, stamped, nil
							}
							if line != pmem.Null {
								p.PWB(line)
							} else {
								dirty = rt.Heap().DivergedLines()
							}
							rt.Restart()
							if ks := fmt.Sprint(v.src.Keys(), v.dst.Keys(), v.aux.Keys()); ks != before && ks != image {
								t.Fatalf("off=%d line=%d: keys %s after the crash, want %s or %s: the new admission took effect",
									off, line, ks, before, image)
							}
							reps := rt.RecoverAll()
							resolved := 0
							switch {
							case len(reps) == 0: // no valid record: nothing in flight, nothing re-executed
								if ks := v.src.Keys(); !slices.Equal(ks, keys) || len(v.dst.Keys()) != 0 {
									t.Fatalf("off=%d line=%d: RecoverAll reported nothing, yet left keys %v and %v, want %v and none",
										off, line, ks, v.dst.Keys(), keys)
								}
							case len(reps) == 1 && slices.Equal(legOps(reps[0]), pr.ops) && isb.Admission(p) == adm:
								for i, l := range reps[0].Legs {
									if l.Status == OpCompleted && l.Resp != prevResps[i] {
										t.Fatalf("off=%d line=%d: the previous admission's leg %d reported %v, want its own response %v",
											off, line, i, l.Resp, prevResps[i])
									}
								}
							case len(reps) == 1 && slices.Equal(legOps(reps[0]), c.ops) && isb.Admission(p) == adm+1 && (line != pmem.Null || wbs > 0):
								resolved = MatchReport(reps[0], c.ops, func(i int, _ Op, r Resp) {
									if r != want[i] {
										t.Fatalf("off=%d line=%d: leg %d resolved to %v, want %v", off, line, i, r, want[i])
									}
								})
							default:
								t.Fatalf("off=%d line=%d: RecoverAll reported %+v under admission %d, want the previous %s under %d or nothing",
									off, line, reps, isb.Admission(p), pr.name, adm)
							}
							c.admit(v, c.ops[resolved:])
							if !slices.Equal(v.src.Keys(), c.wantSrc) || !slices.Equal(v.dst.Keys(), c.wantDst) || !slices.Equal(v.aux.Keys(), pr.aux) {
								t.Fatalf("off=%d line=%d: keys %v, %v and %v after re-submission, want %v, %v and %v",
									off, line, v.src.Keys(), v.dst.Keys(), v.aux.Keys(), c.wantSrc, c.wantDst, pr.aux)
							}
							return true, wbs, stamped, dirty
						}
						limit, points := 0, 0
						if c.leadsWithRead {
							limit = -1
						}
						for off := uint64(1); ; off++ {
							checked, wbs, stamped, dirty := at(off, pmem.Null, limit)
							if !checked {
								break
							}
							for _, line := range dirty {
								at(off, line, limit)
							}
							points += 1 + len(dirty)
							if limit < 0 && stamped {
								limit = wbs
							}
						}
						if limit < 0 {
							t.Fatal("the sweep never reached the stamp of slot 0")
						}
						if e.kind == EngineIsbOpt && points < 50 {
							t.Fatalf("only %d crash points before the first write-back", points)
						}
						t.Logf("%d crash points before the first write-back", points)
					})
				}
			}
		}
	}
}

// TestIdentityRejectsStaleReport pins the stale-report contract on its
// hardest case: two identical single inserts, each a window of one, the second
// crashed at every access from its begin up to its first write-back. Under
// Isb-Opt that crash reports the first insert — the second, which fails, is
// effect-free and never stores its record — whose response (true) is not
// the second's (false). An identity riding the announced Op.Arg
// (HashMap.SetArgMask) keeps MatchReport from delivering it: the report
// resolves nothing, and the re-submission answers what the sequential model
// does.
func TestIdentityRejectsStaleReport(t *testing.T) {
	const mask = 1<<32 - 1
	first, second := Op{Kind: OpInsert, Arg: 1<<32 | 5}, Op{Kind: OpInsert, Arg: 2<<32 | 5}
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			stale := 0
			for off := uint64(1); ; off++ {
				rt := New(Config{Procs: 1, CrashSim: true, HeapWords: 1 << 17, Engine: e.kind})
				m := rt.NewHashMap(4)
				m.SetArgMask(mask)
				p := rt.Proc(0)
				if !rt.ApplyWindow(p, m, []Op{first})[0].Bool() {
					t.Fatal("the first insert failed")
				}
				w0 := p.Stats().Barriers + p.Stats().Flushes
				rt.ScheduleCrash(off)
				if rt.Run(func() { rt.ApplyWindow(p, m, []Op{second}) }) || p.Stats().Barriers+p.Stats().Flushes != w0 {
					rt.CancelCrash()
					rt.Heap().Release()
					break
				}
				rt.Restart()
				resolved := 0
				for _, rep := range rt.RecoverAll() {
					if len(rep.Legs) == 1 && rep.Legs[0].Op == first {
						stale++
					}
					resolved = MatchReport(rep, []Op{second}, func(_ int, _ Op, r Resp) {
						t.Fatalf("off=%d: MatchReport delivered %v for the second insert from %+v", off, r, rep)
					})
				}
				if resolved == 0 {
					if r := rt.ApplyWindow(p, m, []Op{second})[0]; r.Bool() {
						t.Fatalf("off=%d: the re-submitted second insert answered true, want false", off)
					}
				}
				if ks := m.Keys(); !slices.Equal(ks, []uint64{5}) {
					t.Fatalf("off=%d: keys %v, want [5]", off, ks)
				}
				rt.Heap().Release()
			}
			if e.kind == EngineIsbOpt && stale == 0 {
				t.Fatal("no crash point reported the first insert: the sweep never reached the stale window")
			}
			t.Logf("%d crash points reported the first insert", stale)
		})
	}
}
