package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/crash"
	"repro/internal/isb"
)

func TestPublicListLifecycle(t *testing.T) {
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			rt := New(Config{Procs: 2, CrashSim: true, Engine: e.kind})
			l := rt.NewList()
			p := rt.Proc(0)
			if !l.Apply(p, Op{Kind: OpInsert, Arg: 42}).Bool() || !l.Apply(p, Op{Kind: OpFind, Arg: 42}).Bool() {
				t.Fatal("insert/find through public API failed")
			}
			rt.ScheduleCrash(8)
			if rt.Run(func() { l.Apply(p, Op{Kind: OpInsert, Arg: 7}) }) {
				// The crash may land after the op completed; then nothing to do.
				rt.CancelCrash()
			} else {
				rt.Restart()
				if !l.RecoverOp(p, Op{Kind: OpInsert, Arg: 7}).Bool() {
					t.Fatal("recovery returned false for a fresh key")
				}
			}
			ks := l.Keys()
			if len(ks) != 2 || ks[0] != 7 || ks[1] != 42 {
				t.Fatalf("Keys = %v", ks)
			}
		})
	}
}

func TestPublicQueueRecovery(t *testing.T) {
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			rt := New(Config{Procs: 1, CrashSim: true, Engine: e.kind})
			q := rt.NewQueue()
			p := rt.Proc(0)
			q.Apply(p, Op{Kind: OpEnq, Arg: 1})
			rt.ScheduleCrash(5)
			if !rt.Run(func() { q.Apply(p, Op{Kind: OpEnq, Arg: 2}) }) {
				rt.Restart()
				q.RecoverOp(p, Op{Kind: OpEnq, Arg: 2})
			} else {
				rt.CancelCrash()
			}
			v1, ok1 := q.Apply(p, Op{Kind: OpDeq}).Value()
			v2, ok2 := q.Apply(p, Op{Kind: OpDeq}).Value()
			if !ok1 || !ok2 || v1 != 1 || v2 != 2 {
				t.Fatalf("dequeued (%d,%v) (%d,%v)", v1, ok1, v2, ok2)
			}
			if _, ok := q.Apply(p, Op{Kind: OpDeq}).Value(); ok {
				t.Fatal("phantom element")
			}
		})
	}
}

func TestPublicBSTAndStack(t *testing.T) {
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			rt := New(Config{Procs: 1, CrashSim: true, Engine: e.kind})
			b := rt.NewBST()
			p := rt.Proc(0)
			for _, k := range []uint64{5, 3, 9} {
				if !b.Apply(p, Op{Kind: OpInsert, Arg: k}).Bool() {
					t.Fatalf("BST insert %d", k)
				}
			}
			if got := b.Keys(); len(got) != 3 || got[0] != 3 {
				t.Fatalf("BST keys %v", got)
			}
			s := rt.NewStack(0)
			s.Apply(p, Op{Kind: OpPush, Arg: 10})
			s.Apply(p, Op{Kind: OpPush, Arg: 20})
			if v, ok := s.Apply(p, Op{Kind: OpPop}).Value(); !ok || v != 20 {
				t.Fatalf("stack pop (%d,%v)", v, ok)
			}
		})
	}
}

func TestPublicHashMapLifecycle(t *testing.T) {
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			rt := New(Config{Procs: 2, CrashSim: true, Engine: e.kind})
			m := rt.NewHashMap(8)
			if m.NumShards() != 8 {
				t.Fatalf("NumShards = %d", m.NumShards())
			}
			p := rt.Proc(0)
			if !m.Insert(p, 42) || !m.Apply(p, Op{Kind: OpFind, Arg: 42}).Bool() || m.Insert(p, 42) {
				t.Fatal("insert/find through public API failed")
			}
			rt.ScheduleCrash(12)
			if rt.Run(func() { m.Insert(p, 7) }) {
				// The crash may land after the op completed; then nothing to do.
				rt.CancelCrash()
			} else {
				rt.Restart()
				if !m.RecoverOp(p, Op{Kind: OpInsert, Arg: 7}).Bool() {
					t.Fatal("recovery returned false for a fresh key")
				}
			}
			ks := m.Keys()
			if len(ks) != 2 || ks[0] != 7 || ks[1] != 42 {
				t.Fatalf("Keys = %v", ks)
			}
			if !m.Apply(p, Op{Kind: OpDelete, Arg: 42}).Bool() || m.Apply(p, Op{Kind: OpFind, Arg: 42}).Bool() {
				t.Fatal("delete through public API failed")
			}
		})
	}
}

func TestPublicExchangerTimeout(t *testing.T) {
	rt := New(Config{Procs: 1, CrashSim: true})
	e := rt.NewExchanger()
	if _, ok := e.Exchange(rt.Proc(0), 5, 2); ok {
		t.Fatal("lonely exchange succeeded")
	}
}

// TestRecoverAllRoutesAnnouncedOps crashes a list insert at every access
// (crash.Sweep) while a second proc has a completed queue enqueue
// outstanding, and checks the registry-routed report: the interrupted
// operation is found, routed to the right structure, and resolved; the
// completed operation is at most idempotently re-confirmed; a crash that
// precedes the durable announcement yields no report entry and the
// operation can simply be re-submitted. Also checks RecoverAll is
// re-runnable (announcements persist until the next Begin). Under Isb-Opt the
// announcement only persists with the install barrier, after the list walk.
func TestRecoverAllRoutesAnnouncedOps(t *testing.T) {
	insert := Op{Kind: OpInsert, Arg: 7}
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			routed, absent := 0, 0
			crash.SweepTest(t, func() crash.Instance {
				rt := New(Config{Procs: 2, CrashSim: true, HeapWords: 1 << 20, Engine: e.kind})
				l := rt.NewList()
				q := rt.NewQueue()
				p0, p1 := rt.Proc(0), rt.Proc(1)
				l.Apply(p0, Op{Kind: OpInsert, Arg: 5})
				q.Apply(p1, Op{Kind: OpEnq, Arg: 9})
				run := func() ([]uint64, error) { return []uint64{l.Apply(p0, insert).Raw()}, nil }
				return crash.Instance{
					Heap:    rt.Heap(),
					Prepare: func() { l.Begin(p0) },
					Run:     run,
					Resolve: func() ([]uint64, error) {
						reps := rt.RecoverAll()
						var mine *ProcReport
						for i := range reps {
							rep := reps[i]
							switch rep.Proc {
							case 0:
								mine = &reps[i]
							case 1:
								// p1's enqueue completed before the crash; its
								// announcement may still be set, in which case
								// recovery idempotently re-confirms it.
								if leg := rep.Legs[0]; len(rep.Legs) != 1 || leg.StructID != q.ID() || leg.Op != (Op{Kind: OpEnq, Arg: 9}) || !leg.Resp.Bool() {
									return nil, fmt.Errorf("stale enqueue re-confirmed wrong: %+v", rep)
								}
							}
						}
						if mine == nil {
							// Crash preceded the durable announcement: provably no
							// effect; re-submit.
							absent++
							return run()
						}
						routed++
						if leg := mine.Legs[0]; len(mine.Legs) != 1 || mine.Atomic || leg.Status != OpInFlight ||
							leg.StructID != l.ID() || leg.Op != insert || !leg.Resp.Bool() {
							return nil, fmt.Errorf("bad report %+v (list ID %d)", *mine, l.ID())
						}
						// Re-running RecoverAll must re-confirm the same outcome.
						for _, rep := range rt.RecoverAll() {
							if rep.Proc == 0 && !slices.Equal(rep.Legs, mine.Legs) {
								return nil, fmt.Errorf("RecoverAll not idempotent: %+v vs %+v", rep, *mine)
							}
						}
						return []uint64{mine.Legs[0].Resp.Raw()}, nil
					},
					Verify: func() string {
						if ks := l.Keys(); !slices.Equal(ks, []uint64{5, 7}) {
							return fmt.Sprintf("keys %v", ks)
						}
						if vs := q.Values(); !slices.Equal(vs, []uint64{9}) {
							return fmt.Sprintf("queue %v", vs)
						}
						return ""
					},
				}
			}, nil)
			if routed == 0 || absent == 0 {
				t.Fatalf("coverage hole: routed=%d absent=%d (want both nonzero)", routed, absent)
			}
		})
	}
}

// TestCrashAfterAdmission crashes a window and a same-map transaction after
// the admission returned and before the next begin. Under Isb-Opt a
// boundary's stamped result slot rides the next leg's install barrier, and a
// read leg issues none, so the slots after the last mutating leg are still
// volatile: the record's prefix stops at that leg, which must resolve from
// RD_q — its record is still installed — to the response the admission
// returned. The reads after it are no-effect and re-submitted. Under Isb every
// slot was written back at its boundary.
func TestCrashAfterAdmission(t *testing.T) {
	for _, e := range engines() {
		for _, c := range []struct {
			name      string
			ops       []Op
			lastWrite int
			keys      []uint64
		}{
			{"window", []Op{{Kind: OpInsert, Arg: 5}, {Kind: OpDelete, Arg: 3}, {Kind: OpFind, Arg: 5}, {Kind: OpFind, Arg: 3}}, 1, []uint64{5, 9}},
			{"txn", []Op{{Kind: OpDelete, Arg: 9}, {Kind: OpFind, Arg: 9}}, 0, []uint64{3}},
		} {
			t.Run(e.name+"/"+c.name, func(t *testing.T) {
				rt := New(Config{Procs: 1, CrashSim: true, HeapWords: 1 << 18, Engine: e.kind})
				m := rt.NewHashMap(4)
				p := rt.Proc(0)
				m.Insert(p, 3)
				m.Insert(p, 9)
				out := make([]Resp, 2)
				if c.name == "txn" {
					out[0], out[1] = rt.ApplyTxn(p, TxnLeg{S: m, Op: c.ops[0]}, TxnLeg{S: m, Op: c.ops[1]})
				} else {
					out = rt.ApplyWindow(p, m, c.ops)
				}
				rt.Heap().Crash()
				rt.Restart()
				wantCursor := len(c.ops) - 1
				if e.kind == EngineIsbOpt {
					wantCursor = c.lastWrite
				}
				if rec, ok := isb.ReadRecord(p); !ok || rec.Cursor != wantCursor {
					t.Fatalf("durable record: cursor %d (ok %v), want %d", rec.Cursor, ok, wantCursor)
				}
				reps := rt.RecoverAll()
				if len(reps) != 1 || len(reps[0].Legs) != len(c.ops) {
					t.Fatalf("RecoverAll reported %+v, want the %d-leg %s", reps, len(c.ops), c.name)
				}
				for i, l := range reps[0].Legs {
					switch {
					case l.Op != c.ops[i]:
						t.Fatalf("leg %d reported as %v, want %v", i, l.Op, c.ops[i])
					case l.Status == OpNoEffect && (i <= c.lastWrite || l.Op.Kind != OpFind):
						t.Fatalf("leg %d (%v) reported no-effect after it took effect", i, l.Op)
					case l.Status != OpNoEffect && l.Resp != out[i]:
						t.Fatalf("leg %d (%v, %v) resolved to %v, the admission returned %v", i, l.Op, l.Status, l.Resp, out[i])
					}
				}
				if ks := m.Keys(); !slices.Equal(ks, c.keys) {
					t.Fatalf("keys %v after recovery, want %v", ks, c.keys)
				}
			})
		}
	}
}

// TestRecoverAllEmptyWhenIdle: procs with no announced operation produce no
// report entries.
func TestRecoverAllEmptyWhenIdle(t *testing.T) {
	rt := New(Config{Procs: 3, CrashSim: true, HeapWords: 1 << 20})
	l := rt.NewList()
	p := rt.Proc(0)
	l.Apply(p, Op{Kind: OpInsert, Arg: 1})
	l.Begin(p) // clears proc 0's announcement
	rt.Heap().Crash()
	rt.Run(func() { l.Apply(p, Op{Kind: OpFind, Arg: 1}) }) // unwind the pending crash on proc 0
	rt.Restart()
	if reps := rt.RecoverAll(); len(reps) != 0 {
		t.Fatalf("idle runtime reported %+v", reps)
	}
}

// TestRecoverAllExchanger: at every crash offset of a lonely exchange
// (crash.Sweep), RecoverAll either finds no announcement (the crash preceded
// it; the exchange is re-submitted) or routes the announced OpExchange to the
// exchanger and resolves it to an abort — never a phantom success. Both
// branches must be exercised.
func TestRecoverAllExchanger(t *testing.T) {
	routed, absent := 0, 0
	exchange := Op{Kind: OpExchange, Arg: 5}
	crash.SweepTest(t, func() crash.Instance {
		rt := New(Config{Procs: 1, CrashSim: true, HeapWords: 1 << 20})
		ex := rt.NewExchanger()
		p := rt.Proc(0)
		run := func() ([]uint64, error) { return []uint64{ex.Apply(p, exchange).Raw()}, nil }
		return crash.Instance{
			Heap:    rt.Heap(),
			Prepare: func() { ex.Begin(p) },
			Run:     run,
			Resolve: func() ([]uint64, error) {
				reps := rt.RecoverAll()
				if len(reps) == 0 {
					absent++ // crash preceded the announcement
					return run()
				}
				routed++
				if len(reps) != 1 || len(reps[0].Legs) != 1 || reps[0].Legs[0].StructID != ex.ID() ||
					reps[0].Legs[0].Op != exchange {
					return nil, fmt.Errorf("report %+v", reps)
				}
				if _, ok := reps[0].Legs[0].Resp.Value(); ok {
					return nil, fmt.Errorf("lonely exchange reported success: %v", reps[0].Legs[0].Resp)
				}
				return []uint64{reps[0].Legs[0].Resp.Raw()}, nil
			},
			Verify: func() string { return "" },
		}
	}, []uint64{isb.RespFalse})
	if routed == 0 || absent == 0 {
		t.Fatalf("coverage hole: routed=%d absent=%d (want both nonzero)", routed, absent)
	}
}

// TestRegistryAssignsDurableIDs: structure IDs are 1-based, stable, and the
// registry lists them in creation order with their kinds.
func TestRegistryAssignsDurableIDs(t *testing.T) {
	rt := New(Config{Procs: 1, CrashSim: true, HeapWords: 1 << 20})
	l := rt.NewList()
	q := rt.NewQueue()
	m := rt.NewHashMap(4)
	if l.ID() != 1 || q.ID() != 2 || m.ID() != 3 {
		t.Fatalf("IDs %d %d %d, want 1 2 3", l.ID(), q.ID(), m.ID())
	}
	ss := rt.Structures()
	if len(ss) != 3 || ss[0].Kind() != KindList || ss[1].Kind() != KindQueue || ss[2].Kind() != KindHashMap {
		t.Fatalf("registry %v", ss)
	}
	if rt.Structure(2) != ss[1] || rt.Structure(0) != nil || rt.Structure(4) != nil {
		t.Fatal("Structure lookup broken")
	}
}

func TestPrivateCacheModelThroughAPI(t *testing.T) {
	rt := New(Config{Procs: 1, Model: PrivateCache})
	l := rt.NewList()
	p := rt.Proc(0)
	if !l.Apply(p, Op{Kind: OpInsert, Arg: 1}).Bool() || !l.Apply(p, Op{Kind: OpDelete, Arg: 1}).Bool() {
		t.Fatal("private-cache list ops failed")
	}
}

// TestFastReadsTerminateUnderReclaimChurn: a pure reader on Proc 0 walks
// the bucket lists on the zero-persist path while Proc 1 inserts and
// deletes with the reclaimer on. A walk that is not pinned in the
// reclaimer's epoch steps into a freed or reused block, whose words no
// longer belong to its list, and may follow them for good, so the test is
// that it returns: the churn is a fixed number of operations and the
// reader reads for as long as the churn runs. The two
// share one core, whatever the machine has: the block under a walk is only
// freed while the walk is off its core for a few hundred churn operations,
// and a time slice is that long. A round is sized so that 2^23 words hold
// it even if nothing is reused (a reader descheduled while pinned stalls
// the epoch, and the churning Proc then drops its retirements).
func TestFastReadsTerminateUnderReclaimChurn(t *testing.T) {
	const keys, churnOps = 4096, 100_000
	rounds := 4
	if testing.Short() {
		rounds = 1 // the race job's size
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				rt := New(Config{Procs: 2, Reclaim: true, Engine: e.kind, HeapWords: 1 << 23})
				m := rt.NewHashMap(16)
				for k := uint64(1); k <= keys; k += 2 {
					m.Insert(rt.Proc(0), k)
				}
				var churned atomic.Bool
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					p, rng := rt.Proc(1), rand.New(rand.NewSource(int64(round)))
					for i := 0; i < churnOps; i++ {
						if k := uint64(rng.Intn(keys)) + 1; !m.Insert(p, k) {
							m.Apply(p, Op{Kind: OpDelete, Arg: k})
						}
					}
					churned.Store(true)
				}()
				go func() {
					defer wg.Done()
					p, rng := rt.Proc(0), rand.New(rand.NewSource(int64(rounds+round)))
					for !churned.Load() {
						m.Apply(p, Op{Kind: OpFind, Arg: uint64(rng.Intn(keys)) + 1})
					}
				}()
				wg.Wait()
				if msg := m.CheckInvariants(); msg != "" {
					t.Fatalf("round %d: %s", round, msg)
				}
			}
		})
	}
}

func TestDeriveLeg2Arg(t *testing.T) {
	// Without the flag, the announced argument passes through untouched —
	// whatever leg 1 answered.
	for _, resp1 := range []uint64{isb.RespTrue, isb.RespEmpty, isb.EncodeValue(9)} {
		arg, skip := deriveLeg2Arg(77, 0, resp1)
		if arg != 77 || skip {
			t.Fatalf("deriveLeg2Arg(77, 0, %d) = (%d, %v), want (77, false)", resp1, arg, skip)
		}
	}
	// With the flag, a value-carrying leg-1 response becomes the argument.
	arg, skip := deriveLeg2Arg(77, flagArgFromLeg1, isb.EncodeValue(42))
	if arg != 42 || skip {
		t.Fatalf("derived arg = (%d, %v), want (42, false)", arg, skip)
	}
	// A carried value of 0 must derive to 0, not read as "no value".
	arg, skip = deriveLeg2Arg(77, flagArgFromLeg1, isb.EncodeValue(0))
	if arg != 0 || skip {
		t.Fatalf("derived zero value = (%d, %v), want (0, false)", arg, skip)
	}
	// A valueless response (dequeue on empty) elides leg 2.
	if _, skip := deriveLeg2Arg(77, flagArgFromLeg1, isb.RespEmpty); !skip {
		t.Fatal("empty leg-1 response did not skip leg 2")
	}
}

// TestRespString pins how reports render each response class, a skipped
// transaction leg included.
func TestRespString(t *testing.T) {
	for _, tc := range []struct {
		raw  uint64
		want string
	}{
		{isb.RespTrue, "true"},
		{isb.RespFalse, "false"},
		{isb.RespEmpty, "empty"},
		{isb.RespSkipped, "skipped"},
		{isb.EncodeValue(0), "value(0)"},
		{isb.EncodeValue(7), "value(7)"},
	} {
		if got := respOf(tc.raw).String(); got != tc.want {
			t.Errorf("Resp(%d).String() = %q, want %q", tc.raw, got, tc.want)
		}
	}
}

// TestUnacceptedOpKindPanics pins that an op kind the structure does not
// accept (OpKinds) is refused the same way under both engines and on every
// admission path: one repro: panic, raised before the begin, so no sync
// scope is left open, the admission number has not moved, and no other leg
// of the admission took effect. 99 is no kind at all, and 1<<33 does not fit
// an announced leg's kind field.
func TestUnacceptedOpKindPanics(t *testing.T) {
	for _, e := range engines() {
		for _, kind := range []uint64{99, 1 << 33} {
			for _, path := range []string{"Apply", "ApplyWindow", "ApplyTxn"} {
				t.Run(fmt.Sprintf("%s/%d/%s", e.name, kind, path), func(t *testing.T) {
					rt := New(Config{Procs: 1, HeapWords: 1 << 18, Engine: e.kind})
					l := rt.NewList()
					p := rt.Proc(0)
					l.Apply(p, Op{Kind: OpInsert, Arg: 5})
					adm := isb.Admission(p)
					bad, insert := Op{Kind: kind, Arg: 5}, Op{Kind: OpInsert, Arg: 7}
					msg := func() (msg string) {
						defer func() { msg, _ = recover().(string) }()
						switch path {
						case "Apply":
							l.Apply(p, bad)
						case "ApplyWindow":
							rt.ApplyWindow(p, l, []Op{bad, insert})
						case "ApplyTxn":
							rt.ApplyTxn(p, TxnLeg{S: l, Op: bad}, TxnLeg{S: l, Op: insert})
						}
						return ""
					}()
					if !strings.HasPrefix(msg, "repro: ") {
						t.Fatalf("kind %d was not refused with a repro: panic (got %q)", kind, msg)
					}
					if p.InSyncScope() {
						t.Fatal("a sync scope is still open after the refusal")
					}
					if got := isb.Admission(p); got != adm {
						t.Fatalf("admission number %d after the refusal, want %d", got, adm)
					}
					if ks := l.Keys(); !slices.Equal(ks, []uint64{5}) {
						t.Fatalf("keys %v after the refusal, want [5]", ks)
					}
				})
			}
		}
	}
}
