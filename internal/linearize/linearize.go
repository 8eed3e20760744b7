// Package linearize checks histories of concurrent operations for
// linearizability with the Wing-Gong / WGL algorithm (memoized search over
// linearization prefixes). It is the oracle behind the crash-recovery tests:
// after every simulated crash storm, the recorded history — completed
// operations plus operations whose responses were obtained through recovery
// — must be linearizable with respect to the sequential specification.
//
// Histories are limited to 64 operations per Check call (a bitmask bounds
// the search state). Set histories are first decomposed per key — set
// operations on distinct keys commute, so a history over a set object is
// linearizable iff each per-key sub-history is — which keeps sub-histories
// small in long runs.
package linearize

import (
	"fmt"
	"sort"
)

// Operation is one completed operation in a history. Start and End are
// logical timestamps from a shared monotone counter: Op a precedes Op b in
// real time iff a.End < b.Start.
//
// Operations admitted through one batch window (Runtime.ApplyWindow) share
// the window's Start/End — the harness cannot observe where inside the
// window each member executed — and carry their batch position in Seq.
// Check treats members of the same batch (same Proc, Start and End) as
// program-ordered by Seq: member i must linearize before member i+1, even
// though their intervals coincide. Single operations leave Seq zero; their
// per-proc program order is already implied by their disjoint timestamps.
type Operation struct {
	Proc  int
	Kind  uint64
	Arg   uint64
	Resp  uint64
	Start uint64
	End   uint64
	Seq   uint64
}

// Model is a sequential specification. Step applies an operation to a
// state, returning the successor state and the response the operation must
// have produced. Hash must uniquely identify a state (used for memoization).
type Model struct {
	Init func() interface{}
	Step func(state interface{}, kind, arg uint64) (interface{}, uint64)
	Hash func(state interface{}) string
}

// MaxOps is the largest history Check accepts.
const MaxOps = 64

// Check reports whether hist is linearizable with respect to m.
func Check(m Model, hist []Operation) bool {
	n := len(hist)
	if n == 0 {
		return true
	}
	if n > MaxOps {
		panic(fmt.Sprintf("linearize: history of %d ops exceeds MaxOps=%d; decompose it first", n, MaxOps))
	}
	ops := make([]Operation, n)
	copy(ops, hist)
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Start != ops[j].Start {
			return ops[i].Start < ops[j].Start
		}
		return ops[i].Seq < ops[j].Seq
	})

	// prev[i] is the index of op i's program-order predecessor inside its
	// batch (same proc and window, Seq one less), or -1: the WGL candidate
	// rule below refuses to take an op whose predecessor is untaken.
	prev := make([]int, n)
	for i := range prev {
		prev[i] = -1
		for j := 0; j < n; j++ {
			if i != j && ops[j].Proc == ops[i].Proc &&
				ops[j].Start == ops[i].Start && ops[j].End == ops[i].End &&
				ops[j].Seq+1 == ops[i].Seq {
				prev[i] = j
				break
			}
		}
	}

	memo := map[string]bool{}
	var search func(mask uint64, state interface{}) bool
	search = func(mask uint64, state interface{}) bool {
		if mask == (uint64(1)<<uint(n))-1 {
			return true
		}
		key := fmt.Sprintf("%x|%s", mask, m.Hash(state))
		if v, ok := memo[key]; ok {
			return v
		}
		// An untaken op is a candidate iff it starts before every other
		// untaken op ends (otherwise some op strictly precedes it).
		minEnd := ^uint64(0)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) == 0 && ops[i].End < minEnd {
				minEnd = ops[i].End
			}
		}
		ok := false
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				continue
			}
			if ops[i].Start > minEnd {
				continue
			}
			if j := prev[i]; j >= 0 && mask&(1<<uint(j)) == 0 {
				continue // earlier member of the same batch still untaken
			}
			next, resp := m.Step(state, ops[i].Kind, ops[i].Arg)
			if resp != ops[i].Resp {
				continue
			}
			if search(mask|(1<<uint(i)), next) {
				ok = true
				break
			}
		}
		memo[key] = ok
		return ok
	}
	return search(0, m.Init())
}

// Explain returns "" if hist is linearizable, else a short description.
func Explain(m Model, hist []Operation) string {
	if Check(m, hist) {
		return ""
	}
	return fmt.Sprintf("history of %d ops is not linearizable", len(hist))
}
