package isb

import (
	"fmt"

	"repro/internal/pmem"
)

// Stats couples a window's raw persistence-instruction counters with its
// operation count and the engine's batching/fast-path counters, and owns the
// one canonical per-op formatting, so every counter pin renders through it.
type Stats struct {
	// Ops is the number of operations the window covered.
	Ops uint64
	// Mem is the heap's persistence-instruction counters for the window
	// (typically Heap.TotalStats() deltas).
	Mem pmem.Stats
	// BatchSyncs counts psyncs elided by deferral: engine sync points that,
	// inside a sync scope (a batch window under either engine; under
	// Isb-Opt also a single operation or a transaction), were merged into
	// an op-boundary (Isb window) or scope-closing psync instead of issuing.
	BatchSyncs uint64
	// ReadFastPath counts operations served by the zero-persist read-only
	// fast path (no Info record, no pwb, no psync): reads, and under Isb-Opt
	// updates whose gather proved them effect-free.
	ReadFastPath uint64
}

// perOp guards the zero-ops window.
func (s Stats) perOp(v uint64) float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(v) / float64(s.Ops)
}

// PBarriersPerOp is pbarriers per operation.
func (s Stats) PBarriersPerOp() float64 { return s.perOp(s.Mem.Barriers) }

// FlushesPerOp is stand-alone pwbs per operation.
func (s Stats) FlushesPerOp() float64 { return s.perOp(s.Mem.Flushes) }

// SyncsPerOp is psyncs per operation.
func (s Stats) SyncsPerOp() float64 { return s.perOp(s.Mem.Syncs) }

// PersistsPerOp counts persistence-barrier events per operation — pbarriers
// plus stand-alone pwbs, the quantity the paper's throughput argument rides
// on.
func (s Stats) PersistsPerOp() float64 { return s.perOp(s.Mem.Barriers + s.Mem.Flushes) }

// String renders the canonical per-op metric line.
func (s Stats) String() string {
	return fmt.Sprintf(
		"ops=%d pbarriers/op=%.2f flushes/op=%.2f syncs/op=%.2f persists/op=%.2f batch-syncs=%d read-fast=%d",
		s.Ops, s.PBarriersPerOp(), s.FlushesPerOp(), s.SyncsPerOp(), s.PersistsPerOp(),
		s.BatchSyncs, s.ReadFastPath)
}
