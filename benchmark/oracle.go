package main

import (
	"math/rand/v2"

	"repro"
)

// Request kinds of the benchmark's own op stream; each workload maps them
// onto the layer it drives (repro.Op kinds in process, serve op codes over
// the wire).
const (
	kGet = iota
	kPut
	kDel
	kMove
)

// req is one generated request. Key2 is the MOVE destination.
type req struct {
	Kind      uint8
	Key, Key2 uint64
}

// mix is the request mix in percent, indexed by kind; it sums to 100.
type mix [4]int

// newRNG derives an independent stream from the run seed: a is the
// repetition, b the issuer (or a fixed tag for shared choices).
func newRNG(seed int64, a, b int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(a)<<32|uint64(uint32(b))))
}

// partition is issuer i's share of the key space 1..keys: the keys
// congruent to i+1 modulo issuers. Partitions are disjoint, so every
// issuer's responses follow its own sequential model whatever the
// interleaving with the other issuers.
type partition struct{ issuer, issuers, keys int }

func (pt partition) size() int { return pt.keys / pt.issuers }

func (pt partition) pick(rng *rand.Rand) uint64 {
	return uint64(1 + pt.issuer + pt.issuers*rng.IntN(pt.size()))
}

// genReqs draws n requests for one issuer from its partition.
func genReqs(rng *rand.Rand, pt partition, m mix, n int) []req {
	out := make([]req, n)
	for i := range out {
		r := req{Key: pt.pick(rng)}
		switch c := rng.IntN(100); {
		case c < m[kGet]:
			r.Kind = kGet
		case c < m[kGet]+m[kPut]:
			r.Kind = kPut
		case c < m[kGet]+m[kPut]+m[kDel]:
			r.Kind = kDel
		default:
			r.Kind = kMove
			r.Key2 = pt.pick(rng)
		}
		out[i] = r
	}
	return out
}

// prefillSet picks which keys of 1..keys start present: each with
// probability one half, drawn from the seed.
func prefillSet(seed int64, rep, keys int) []bool {
	rng := newRNG(seed, rep, -1)
	present := make([]bool, keys+1)
	for k := 1; k <= keys; k++ {
		present[k] = rng.IntN(2) == 0
	}
	return present
}

// setModel is the sequential specification the responses are checked
// against: a set of keys with insert/delete/find/move.
type setModel struct{ present []bool }

// newSetModel copies the prefilled state, so each issuer owns its model.
func newSetModel(prefill []bool) *setModel {
	return &setModel{present: append([]bool(nil), prefill...)}
}

// insert reports whether key was absent, and adds it.
func (m *setModel) insert(k uint64) bool {
	was := m.present[k]
	m.present[k] = true
	return !was
}

// remove reports whether key was present, and removes it.
func (m *setModel) remove(k uint64) bool {
	was := m.present[k]
	m.present[k] = false
	return was
}

// apply returns the value the serve reply must carry for r (a boolean for
// GET/PUT/DEL; for MOVE bit 0 = source deleted, bit 1 = destination newly
// inserted, the delete leg first).
func (m *setModel) apply(r req) uint64 {
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	switch r.Kind {
	case kGet:
		return b(m.present[r.Key])
	case kPut:
		return b(m.insert(r.Key))
	case kDel:
		return b(m.remove(r.Key))
	default:
		return b(m.remove(r.Key)) | b(m.insert(r.Key2))<<1
	}
}

// opKind maps a GET/PUT/DEL request kind onto the structures' op kinds.
func opKind(k uint8) uint64 {
	switch k {
	case kPut:
		return repro.OpInsert
	case kDel:
		return repro.OpDelete
	default:
		return repro.OpFind
	}
}

// applyOp is setModel.apply for an in-process set operation: the boolean
// the structure's response must decode to.
func (m *setModel) applyOp(kind, key uint64) bool {
	switch kind {
	case repro.OpInsert:
		return m.insert(key)
	case repro.OpDelete:
		return m.remove(key)
	default:
		return m.present[key]
	}
}
