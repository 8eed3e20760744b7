package rcas

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/crash"
	"repro/internal/pmem"
)

func newSpace(t *testing.T, procs int) (*Space, *pmem.Heap) {
	t.Helper()
	h := pmem.NewHeap(pmem.Config{Words: 1 << 20, Procs: procs, Tracked: true})
	return NewSpace(h), h
}

func TestReadAfterInit(t *testing.T) {
	s, h := newSpace(t, 1)
	p := h.Proc(0)
	loc := p.Alloc(1)
	s.InitLoc(p, loc, 42)
	if got := s.Read(p, loc); got != 42 {
		t.Fatalf("Read = %d", got)
	}
}

func TestCASSuccessAndFailure(t *testing.T) {
	s, h := newSpace(t, 1)
	p := h.Proc(0)
	loc := p.Alloc(1)
	s.InitLoc(p, loc, 1)
	if got := s.CAS(p, loc, 1, 2, 1); got != 1 {
		t.Fatalf("successful CAS returned %d", got)
	}
	if got := s.Read(p, loc); got != 2 {
		t.Fatalf("value = %d", got)
	}
	if got := s.CAS(p, loc, 1, 3, 2); got != 2 {
		t.Fatalf("failed CAS returned %d, want current 2", got)
	}
}

func TestRecoverCurrentDescriptor(t *testing.T) {
	s, h := newSpace(t, 1)
	p := h.Proc(0)
	loc := p.Alloc(1)
	s.InitLoc(p, loc, 1)
	s.CAS(p, loc, 1, 2, 7)
	if s.Recover(p, loc, 7) != Succeeded {
		t.Fatal("CAS whose descriptor is installed not recovered as success")
	}
	if s.Recover(p, loc, 8) != Unknown {
		t.Fatal("unexecuted CAS recovered as success")
	}
}

func TestRecoverViaAnnouncement(t *testing.T) {
	s, h := newSpace(t, 2)
	p0, p1 := h.Proc(0), h.Proc(1)
	loc := p0.Alloc(1)
	s.InitLoc(p0, loc, 1)
	s.CAS(p0, loc, 1, 2, 5) // p0 installs
	s.CAS(p1, loc, 2, 3, 9) // p1 overwrites: must announce p0's seq 5
	if s.Recover(p0, loc, 5) != Succeeded {
		t.Fatal("overwritten CAS not recovered via announcement")
	}
	if s.Announced(0) != 5 {
		t.Fatalf("announcement = %d, want 5", s.Announced(0))
	}
}

func TestAnnouncementSurvivesCrash(t *testing.T) {
	s, h := newSpace(t, 2)
	p0, p1 := h.Proc(0), h.Proc(1)
	loc := p0.Alloc(1)
	s.InitLoc(p0, loc, 1)
	s.CAS(p0, loc, 1, 2, 5)
	s.CAS(p1, loc, 2, 3, 9)
	h.Crash()
	pmem.RunOp(func() { p0.Load(loc) })
	h.ResetAfterCrash()
	if s.Recover(p0, loc, 5) != Succeeded {
		t.Fatal("announcement lost across crash")
	}
	if s.Recover(p1, loc, 9) != Succeeded {
		t.Fatal("installed descriptor lost across crash")
	}
}

func TestOwnerlessCASDoesNotAnnounce(t *testing.T) {
	s, h := newSpace(t, 2)
	p0, p1 := h.Proc(0), h.Proc(1)
	loc := p0.Alloc(1)
	s.InitLoc(p0, loc, 1)
	s.CAS(p0, loc, 1, 2, 0) // auxiliary: ownerless
	s.CAS(p1, loc, 2, 3, 1) // overwrites an ownerless descriptor
	if s.Announced(0) != 0 {
		t.Fatal("ownerless CAS polluted the announcement watermark")
	}
	if s.Recover(p0, loc, 1) != Unknown {
		t.Fatal("phantom success for p0")
	}
}

// TestCrashSweepCASRecovery crashes a CAS at every access (crash.Sweep):
// recovery must be consistent with the durable state of the location, and
// so must it after a CAS that completed.
func TestCrashSweepCASRecovery(t *testing.T) {
	crash.SweepTest(t, func() crash.Instance {
		h := pmem.NewHeap(pmem.Config{Words: 1 << 18, Procs: 1, Tracked: true})
		s := NewSpace(h)
		p := h.Proc(0)
		loc := p.Alloc(1)
		s.InitLoc(p, loc, 1)
		return crash.Instance{
			Heap:    h,
			Run:     func() ([]uint64, error) { s.CAS(p, loc, 1, 2, 3); return nil, nil },
			Resolve: func() ([]uint64, error) { return nil, nil },
			Verify: func() string {
				out := s.Recover(p, loc, 3)
				val := s.Read(p, loc)
				if out == Succeeded && val != 2 {
					return fmt.Sprintf("recovery says success but value %d", val)
				}
				if out == Unknown && val == 2 {
					return "value installed but recovery says unknown"
				}
				return ""
			},
		}
	}, nil)
}

func TestConcurrentCASOneWinnerPerTransition(t *testing.T) {
	s, h := newSpace(t, 4)
	loc := h.Proc(0).Alloc(1)
	s.InitLoc(h.Proc(0), loc, 0)
	var wg sync.WaitGroup
	wins := make([]int, 4)
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(id)
			for i := uint64(0); i < 1000; i++ {
				if s.CAS(p, loc, i, i+1, i+1) == i {
					wins[id]++
				}
			}
		}(id)
	}
	wg.Wait()
	// Each transition i -> i+1 has exactly one winner... but procs attempt
	// the same sequence, so total wins must equal the final value.
	total := 0
	for _, w := range wins {
		total += w
	}
	if got := s.Read(h.Proc(0), loc); got != uint64(total) {
		t.Fatalf("final value %d but %d CAS wins", got, total)
	}
}
