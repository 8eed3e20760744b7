package isb

import (
	"fmt"
	"slices"

	"repro/internal/pmem"
)

// Isb-Opt defers work past the point the paper writes it, to a later barrier
// of the same process on any engine: an announcement stored by the first
// install, the responses kept at leg boundaries, an update phase held with its
// tags set, a cleanup carried, and operands that retire one install late. What
// is deferred, per process, is one deferral value, and step is the one
// function that decides how it changes: the engine reports each event of an
// admission and performs the actions step returns (perform, in the order of
// the actions fields). A release runs the held update's cleanup on its engine,
// which then reports released.
//
// The transition table. live is "the admission was announced lazily and its
// scope is still open"; a rule not listed leaves the state as it is.
//
//	event        rule                                                          actions
//	begin        legs in an Isb-Opt scope: lazy, the record pending;           -
//	             otherwise eager (no legs: the bare begin)                     ok: announce
//	boundary     keep the next leg's response                                  -
//	effect-free  elide the leg if live, this leg installed nothing, and the    ok: elide
//	             record is pending or the vector not atomic
//	install      live: store the pending record with every kept response as    store record
//	             its prefix, or else the responses kept since the last         (or slots)
//	             install, each line carried to the install's barrier
//	barrier      every deferred phase is written back; a held update not       release
//	             yet releasing releases (a read-only leg's install on the
//	             held update's own engine then gives its cleanup a barrier)    own barrier
//	updated      the invoker, scoped, of an announced admission holds its      ok: hold
//	             update phase: its lines ride the next barrier, tags set
//	cleanup      the invoker, scoped, defers its cleanup phase                 ok: defer
//	done         a completed update's operands stay with it if it is held;     -
//	             after a deferred cleanup on its engine they join that         schedule
//	             engine's retire schedule; otherwise they retire now           ops
//	released     the held update's cleanup ran: its operands join its          schedule
//	             engine's retire schedule, and nothing is held
//	close        a held update gets a barrier of its own and releases          barrier, release
//	settle       at a begin or a recovery: a held update a system crash        schedule
//	             reverted (the heap's epoch moved) joins the schedule; one an
//	             individual failure left is written back and releases          barrier, release
//	meet         a field the gather met tagged is the held update's, whose     ok: cookie n
//	             release stores the cookie of counter n there
//
// Two questions are answered by stepping a copy of the state: the number an
// admission runs under is the raised one exactly when an install now would
// store the record (TestCloseScopeDropsPendingRecord), and the held update's
// operands, which the conservative scan keeps, are what a release would
// schedule (Engine.MarkReachable).
type deferral struct {
	// announced: the last begin announced legs; lazy: lazily, its record
	// pending until the first install stores it; kept responses, of which the
	// first stored are in their slots or its prefix. releasing: the held
	// update's cleanup is running.
	announced, lazy, pending, atomic, releasing bool
	kept, stored                                int
	// held is the engine of the held update (nil: none; the fields after it
	// then mean nothing), info its record, first the cookie counter reserved
	// for its first untag, epoch the heap's at the hold; ops its retired-class
	// operands and cleanup its CleanupSet, both Null-terminated.
	held    *Engine
	info    pmem.Addr
	first   uint64
	epoch   uint64
	ops     [MaxAffect]pmem.Addr
	cleanup [MaxCleanup]pmem.Addr
	// deferredOn is the engine whose phase the process deferred last, if no
	// barrier (which writes every deferred phase back), close or settle came
	// since.
	deferredOn *Engine
}

// evKind names an event of step.
type evKind uint8

const (
	evBegin evKind = iota
	evBoundary
	evEffectFree
	evInstall
	evBarrier
	evUpdated
	evCleanup
	evDone
	evReleased
	evClose
	evSettle
	evMeet
)

// event is one event of a process's admission on engine e, scoped while an
// Isb-Opt sync scope is open. n is a begin's leg count and a boundary's leg;
// installed reports that an effect-free leg installed already, readOnly that a
// barrier is a read-only leg's install's; invoker, info, first (the reserved
// cookie counter) and epoch describe an update or cleanup phase; done names
// info and spec, settle the epoch, and meet the field and its info.
type event struct {
	kind                                         evKind
	e                                            *Engine
	scoped, atomic, installed, readOnly, invoker bool
	n                                            int
	info, field                                  pmem.Addr
	first, epoch                                 uint64
	spec                                         *Spec
}

// actions is what step asks of the engine. ok answers the event's question
// (begin: announce now; effect-free: elide; updated: hold; cleanup: defer;
// meet: a cookie). The install stores the record with the kept responses [0,
// hi) as its prefix (storeRecord, atomic), or else slots [lo, hi). ops,
// Null-terminated and pointing into the state, join on's retire schedule
// (schedule) or retire now; barrier is a barrier of the process's own, before
// release runs the cleanup of the update held on on (record info, cookie
// counter n), and ownBarrier one after it.
type actions struct {
	ok, storeRecord, atomic, schedule, barrier, release, ownBarrier bool
	lo, hi                                                          int
	on                                                              *Engine
	info                                                            pmem.Addr
	n                                                               uint64
	ops                                                             *[MaxAffect]pmem.Addr
}

// step is the transition function of a process's deferral state (see the
// table above): it returns the state after ev, and the actions the engine
// performs for it. It reads nothing but its arguments.
func step(s deferral, ev event) (deferral, actions) {
	var a actions
	s.apply(&ev, &a)
	return s, a
}

// apply is step in place, the form the engine calls on its hot path: it
// changes s to the state after ev and puts the actions in a, which must be
// zero, so that nothing is copied on the way.
func (s *deferral) apply(ev *event, a *actions) {
	live := s.lazy && ev.scoped
	switch ev.kind {
	case evBegin:
		s.announced, s.lazy, s.pending = ev.n > 0, ev.n > 0 && ev.scoped, ev.n > 0 && ev.scoped
		s.atomic, s.kept, s.stored, a.ok = ev.atomic, 0, 0, !s.lazy
	case evBoundary:
		if ev.n != s.kept {
			panic(fmt.Sprintf("isb: kept result for leg %d, want leg %d", ev.n, s.kept))
		}
		s.kept++
	case evEffectFree:
		a.ok = live && !ev.installed && (s.pending || !s.atomic)
	case evInstall:
		if live {
			a.storeRecord, a.atomic, a.lo, a.hi = s.pending, s.atomic, s.stored, s.kept
			s.pending, s.stored = false, s.kept
		}
	case evUpdated:
		if a.ok = ev.invoker && ev.scoped && s.announced; a.ok {
			s.held, s.info, s.first, s.epoch, s.releasing, s.deferredOn = ev.e, ev.info, ev.first, ev.epoch, false, ev.e
			s.ops, s.cleanup = [MaxAffect]pmem.Addr{}, [MaxCleanup]pmem.Addr{}
		}
	case evCleanup:
		if a.ok = ev.invoker && ev.scoped; a.ok {
			s.deferredOn = ev.e
		}
	case evDone: // the operands, AffectSet entries absent from the CleanupSet, in ops: nothing else is held
		s.ops, a.ops = [MaxAffect]pmem.Addr{}, &s.ops
		n := 0
		for _, x := range ev.spec.Affect[:ev.spec.NAffect] {
			if !slices.Contains(ev.spec.Cleanup[:ev.spec.NCleanup], x.Info) {
				s.ops[n], n = x.Info, n+1
			}
		}
		if s.held != nil && s.info == ev.info {
			a.ops = nil
			copy(s.cleanup[:], ev.spec.Cleanup[:ev.spec.NCleanup])
		} else if s.deferredOn == ev.e {
			a.schedule, a.on = true, ev.e
		}
	case evReleased:
		a.schedule, a.on, a.ops, s.held = true, s.held, &s.ops, nil
	case evSettle:
		if s.held != nil && s.epoch != ev.epoch {
			a.schedule, a.on, a.ops, s.held = true, s.held, &s.ops, nil
			return
		}
		s.releasing = false
		fallthrough
	case evBarrier, evClose:
		s.deferredOn = nil // a barrier writes every carried phase back; close and settle end the attempt
		a.barrier = s.held != nil && ev.kind != evBarrier
		if a.release = s.held != nil && !s.releasing; a.release {
			s.releasing, a.on, a.info, a.n, a.ownBarrier = true, s.held, s.info, s.first, ev.readOnly && s.held == ev.e
		}
	case evMeet:
		for i, c := range s.cleanup {
			if a.ok = s.held != nil && s.info == ev.info && c == ev.field; a.ok {
				a.on, a.n = s.held, s.first+uint64(i)
				break
			}
		}
	}
}
