package serve

import (
	"math/bits"
	"time"
)

// latHist is a log-linear latency histogram in whole microseconds: below
// 4µs a bucket per microsecond, above that each octave [2^k, 2^(k+1)) split
// into 4 equal sub-buckets, so a bucket's upper bound is at most 25% above
// anything it holds. Quantiles read back the containing bucket's upper bound:
// allocation-free, mergeable, and monotone under load shifts. The last
// bucket also holds everything past ~2.4 h.
type latHist struct {
	buckets [128]uint64
	count   uint64
}

// latBucket is the bucket holding us microseconds: above 4µs, the shift s
// leaves us>>s in [4, 8), whose low two bits pick the octave's quarter.
func latBucket(us uint64) int {
	if us < 4 {
		return int(us)
	}
	s := bits.Len64(us) - 3
	return 4*s + int(us>>s)
}

// latTop is bucket i's exclusive upper bound in microseconds.
func latTop(i int) float64 {
	if i < 4 {
		return float64(i + 1)
	}
	return float64(uint64(i%4+5) << (i/4 - 1))
}

func (h *latHist) observe(d time.Duration) {
	h.buckets[min(latBucket(uint64(d.Microseconds())), len(h.buckets)-1)]++
	h.count++
}

// quantile reports the q-quantile in microseconds (0 when empty).
func (h *latHist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	want := uint64(q * float64(h.count))
	if want >= h.count {
		want = h.count - 1
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum > want {
			return latTop(i)
		}
	}
	return latTop(len(h.buckets) - 1)
}

// ConnStats is one connection's counter snapshot.
type ConnStats struct {
	ID   uint64 `json:"id"`
	Proc int    `json:"proc"`
	// Queued counts requests admitted into the connection's queue; Admitted
	// counts those drained into an ApplyWindow; Retried counts RETRY
	// replies (queue full or duplicate-in-flight backpressure).
	Queued   uint64 `json:"queued"`
	Admitted uint64 `json:"admitted"`
	Retried  uint64 `json:"retried"`
	// Deduped counts requests answered from the response table without
	// executing (a resubmitted request ID); FromReport counts replies
	// resolved from a RecoverAll report after a crash.
	Deduped    uint64 `json:"deduped"`
	FromReport uint64 `json:"from_report"`
	// Shed counts OVERLOAD replies: requests bounced because the server's
	// aggregate queues crossed Config.ShedWatermark.
	Shed uint64 `json:"shed"`
	// Flushes counts the socket Writes that carried this connection's
	// replies, FramesOut the reply frames in them: FramesOut/Flushes is the
	// frames one Write amortises.
	Flushes   uint64 `json:"flushes"`
	FramesOut uint64 `json:"frames_out"`
	// Reads counts the socket reads this connection's request frames
	// arrived in, FramesIn those frames: FramesIn/Reads is how many requests
	// the client coalesced into what one read delivers.
	Reads     uint64  `json:"reads"`
	FramesIn  uint64  `json:"frames_in"`
	P50Micros float64 `json:"p50_micros"`
	P99Micros float64 `json:"p99_micros"`
}

// ProcStats is one Proc's admission snapshot.
type ProcStats struct {
	Proc     int    `json:"proc"`
	Windows  uint64 `json:"windows"`
	Admitted uint64 `json:"admitted"`
	// Moves counts singleton MOVE windows (a transaction never shares a
	// window with batched requests).
	Moves uint64 `json:"moves"`
	// FromReport counts this Proc's replies resolved from a RecoverAll
	// report after a crash.
	FromReport uint64 `json:"from_report"`
	// BatchFill[k] counts admission windows that drained exactly k
	// requests (index 0 unused).
	BatchFill []uint64 `json:"batch_fill"`
}

// Stats is the server snapshot the stats endpoint serves as JSON.
type Stats struct {
	Conns []ConnStats `json:"conns"`
	Procs []ProcStats `json:"procs"`
	// Crashes counts store crashes recovered (Restart + one RecoverAll
	// each), as the crash group counts them.
	Crashes int `json:"crashes"`
	// With Config.Reclaim, FastRecoveries and FullScans split Crashes by
	// what RecoverAll did to the reclaimer — the O(Procs × ring) reset, or
	// the conservative scan its garbage rule called for — and LastDropped /
	// LastGarbage are the latest recovery's figures: words it abandoned on
	// pre-crash free lists and rings, and words abandoned since the last
	// scan.
	FastRecoveries uint64 `json:"fast_recoveries"`
	FullScans      uint64 `json:"full_scans"`
	LastDropped    uint64 `json:"last_dropped_words"`
	LastGarbage    uint64 `json:"last_garbage_words"`
	// TableEntries is the current response-table size: the answered
	// requests not yet acknowledged, crashes or not.
	// EvictedEntries counts response-table entries dropped because the
	// owning client acknowledged their replies (Request.Ack watermark).
	TableEntries   int    `json:"table_entries"`
	EvictedEntries uint64 `json:"evicted_entries"`
	// Totals across all connections, open and closed.
	Queued     uint64 `json:"queued"`
	Admitted   uint64 `json:"admitted"`
	Retried    uint64 `json:"retried"`
	Deduped    uint64 `json:"deduped"`
	FromReport uint64 `json:"from_report"`
	// Sheds counts OVERLOAD replies (aggregate queues past the shed
	// watermark); Disconnects counts connections torn down for any reason,
	// of which IdleClosed hit Config.IdleTimeout and WriteTimeouts hit
	// Config.WriteTimeout mid-reply.
	Sheds         uint64 `json:"sheds"`
	Disconnects   uint64 `json:"disconnects"`
	IdleClosed    uint64 `json:"idle_closed"`
	WriteTimeouts uint64 `json:"write_timeouts"`
	// Flushes and FramesOut total ConnStats' counters over every
	// connection, open and closed.
	Flushes   uint64 `json:"flushes"`
	FramesOut uint64 `json:"frames_out"`
	// Reads and FramesIn total their inbound counterparts the same way.
	Reads    uint64 `json:"reads"`
	FramesIn uint64 `json:"frames_in"`
}

// FramesPerFlush reports the mean reply frames one socket Write carried
// (0 before the first flush).
func (s Stats) FramesPerFlush() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.FramesOut) / float64(s.Flushes)
}

// FramesPerRead reports the mean request frames one socket read delivered
// (0 before the first read): how well the server's clients coalesce.
func (s Stats) FramesPerRead() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.FramesIn) / float64(s.Reads)
}

// BatchFillMean reports the mean admission-window fill across all Procs
// (0 when no window has been drained).
func (s Stats) BatchFillMean() float64 {
	var wins, ops uint64
	for _, p := range s.Procs {
		wins += p.Windows
		ops += p.Admitted
	}
	if wins == 0 {
		return 0
	}
	return float64(ops) / float64(wins)
}

// connMetrics is the live (lock-guarded) counterpart of ConnStats.
type connMetrics struct {
	queued, admitted, retried uint64
	deduped, fromReport, shed uint64
	lat                       latHist
}

func (m *connMetrics) snapshot(id uint64, proc int) ConnStats {
	return ConnStats{
		ID: id, Proc: proc,
		Queued: m.queued, Admitted: m.admitted, Retried: m.retried,
		Deduped: m.deduped, FromReport: m.fromReport, Shed: m.shed,
		P50Micros: m.lat.quantile(0.50), P99Micros: m.lat.quantile(0.99),
	}
}
