package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Start and End are nanoseconds since the tracer was
// created; Parent is the ID of the span that caused it (0 for a root). A
// client.Do span's ID is its request ID, so the spans of one request share
// an identifier with the server's own records.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent uint64 `json:"parent"`
	ID     uint64 `json:"id"`
}

// tracer keeps spans in memory until the run ends. Each goroutine records
// into its own spanLog, so recording takes no lock.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	logs   []*spanLog
}

// spanLog is one goroutine's span buffer.
type spanLog struct {
	tr    *tracer
	spans []span
}

// spanIDBase keeps minted span IDs clear of request IDs (32 bits).
const spanIDBase = 1 << 40

func newTracer() *tracer {
	tr := &tracer{t0: time.Now()}
	tr.nextID.Store(spanIDBase)
	return tr
}

// log opens a buffer for one goroutine; nil tracers give nil logs, and
// every spanLog method is a no-op on nil, so untraced runs share the code.
func (tr *tracer) log() *spanLog {
	if tr == nil {
		return nil
	}
	l := &spanLog{tr: tr}
	tr.mu.Lock()
	tr.logs = append(tr.logs, l)
	tr.mu.Unlock()
	return l
}

// newID mints a span ID.
func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	return l.tr.nextID.Add(1)
}

// add records a finished span.
func (l *spanLog) add(name, layer string, start, end time.Time, parent, id uint64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		Name: name, Layer: layer, Parent: parent, ID: id,
		Start: start.Sub(l.tr.t0).Nanoseconds(), End: end.Sub(l.tr.t0).Nanoseconds(),
	})
}

// spans merges every goroutine's buffer. Call once the recording
// goroutines have finished.
func (tr *tracer) spans() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, l := range tr.logs {
		out = append(out, l.spans...)
	}
	return out
}

// write stores the spans as benchmark/out/trace-<workload>.json under dir.
func (tr *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace directory: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, tr.spans()}); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close trace file: %w", err)
	}
	return path, nil
}
