package linearize

import (
	"fmt"
	"sort"
	"strings"
)

// Operation kinds shared by the sequential models: they are the structures'
// own op codes, so a recorded history is checked as it stands.
const (
	KindInsert uint64 = 1
	KindDelete uint64 = 2
	KindFind   uint64 = 3

	KindEnq uint64 = 10
	KindDeq uint64 = 11

	KindPush uint64 = 20
	KindPop  uint64 = 21

	// The read-only probes: the queue's front, the stack's top.
	kindPeek uint64 = 12
	kindTop  uint64 = 22
)

// Responses in model terms (mirrors internal/isb's encoding).
const (
	RespFalse uint64 = 1
	RespTrue  uint64 = 2
	RespEmpty uint64 = 3
	respVBase uint64 = 16
)

// EncodeValue mirrors isb.EncodeValue for payload-carrying responses.
func EncodeValue(v uint64) uint64 { return v + respVBase }

// SetModel is the sequential specification of a set of uint64 keys, with
// Insert/Delete/Find returning RespTrue/RespFalse.
func SetModel() Model {
	type set = map[uint64]bool
	return Model{
		Init: func() interface{} { return set{} },
		Step: func(st interface{}, kind, arg uint64) (interface{}, uint64) {
			s := st.(set)
			switch kind {
			case KindInsert:
				if s[arg] {
					return s, RespFalse
				}
				n := make(set, len(s)+1)
				for k := range s {
					n[k] = true
				}
				n[arg] = true
				return n, RespTrue
			case KindDelete:
				if !s[arg] {
					return s, RespFalse
				}
				n := make(set, len(s))
				for k := range s {
					if k != arg {
						n[k] = true
					}
				}
				return n, RespTrue
			case KindFind:
				if s[arg] {
					return s, RespTrue
				}
				return s, RespFalse
			default:
				return s, 0
			}
		},
		Hash: func(st interface{}) string {
			s := st.(set)
			keys := make([]uint64, 0, len(s))
			for k := range s {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			var b strings.Builder
			for _, k := range keys {
				fmt.Fprintf(&b, "%d,", k)
			}
			return b.String()
		},
	}
}

// OneKeySetModel is the boolean sub-spec used after per-key decomposition.
func OneKeySetModel() Model {
	return Model{
		Init: func() interface{} { return false },
		Step: func(st interface{}, kind, arg uint64) (interface{}, uint64) {
			present := st.(bool)
			switch kind {
			case KindInsert:
				if present {
					return true, RespFalse
				}
				return true, RespTrue
			case KindDelete:
				if !present {
					return false, RespFalse
				}
				return false, RespTrue
			case KindFind:
				if present {
					return present, RespTrue
				}
				return present, RespFalse
			default:
				return present, 0
			}
		},
		Hash: func(st interface{}) string {
			if st.(bool) {
				return "1"
			}
			return "0"
		},
	}
}

// CheckSetHistory decomposes a set history per key and WGL-checks each
// sub-history. It returns the first offending key, or (0, true).
//
// Batched histories (operations sharing one window, ordered by Seq — see
// Operation) decompose soundly: same-key members keep their batch identity
// and Seq, so each sub-history still enforces their program order, while
// cross-key program order dissolves with the decomposition — which is the
// usual commutation argument, since set operations on distinct keys
// commute, a per-key-linearizable history can always be merged into one
// total order that also respects cross-key program order.
func CheckSetHistory(hist []Operation) (uint64, bool) {
	byKey := map[uint64][]Operation{}
	for _, op := range hist {
		byKey[op.Arg] = append(byKey[op.Arg], op)
	}
	model := OneKeySetModel()
	for k, sub := range byKey {
		if !Check(model, sub) {
			return k, false
		}
	}
	return 0, true
}

// QueueModel is the sequential FIFO queue spec. Enq(arg) returns RespTrue;
// Deq returns EncodeValue(v) for the head value or RespEmpty, and so does
// Peek (12), which leaves the queue unchanged.
func QueueModel() Model {
	type q = []uint64
	return Model{
		Init: func() interface{} { return q(nil) },
		Step: func(st interface{}, kind, arg uint64) (interface{}, uint64) {
			s := st.(q)
			switch kind {
			case KindEnq:
				n := make(q, len(s)+1)
				copy(n, s)
				n[len(s)] = arg
				return n, RespTrue
			case KindDeq:
				if len(s) == 0 {
					return s, RespEmpty
				}
				n := make(q, len(s)-1)
				copy(n, s[1:])
				return n, EncodeValue(s[0])
			case kindPeek:
				if len(s) == 0 {
					return s, RespEmpty
				}
				return s, EncodeValue(s[0])
			default:
				return s, 0
			}
		},
		Hash: func(st interface{}) string {
			s := st.(q)
			var b strings.Builder
			for _, v := range s {
				fmt.Fprintf(&b, "%d,", v)
			}
			return b.String()
		},
	}
}

// StackModel is the sequential LIFO stack spec. Push(arg) returns RespTrue;
// Pop returns EncodeValue(v) or RespEmpty, and so does Top (22), which leaves
// the stack unchanged.
func StackModel() Model {
	type stk = []uint64
	return Model{
		Init: func() interface{} { return stk(nil) },
		Step: func(st interface{}, kind, arg uint64) (interface{}, uint64) {
			s := st.(stk)
			switch kind {
			case KindPush:
				n := make(stk, len(s)+1)
				copy(n, s)
				n[len(s)] = arg
				return n, RespTrue
			case KindPop:
				if len(s) == 0 {
					return s, RespEmpty
				}
				n := make(stk, len(s)-1)
				copy(n, s[:len(s)-1])
				return n, EncodeValue(s[len(s)-1])
			case kindTop:
				if len(s) == 0 {
					return s, RespEmpty
				}
				return s, EncodeValue(s[len(s)-1])
			default:
				return s, 0
			}
		},
		Hash: func(st interface{}) string {
			s := st.(stk)
			var b strings.Builder
			for _, v := range s {
				fmt.Fprintf(&b, "%d,", v)
			}
			return b.String()
		},
	}
}
