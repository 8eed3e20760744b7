package serve_test

import (
	"fmt"
	"testing"

	"repro/internal/crash"
	"repro/internal/serve"
)

// The MOVE sweep's fixed pipeline on one connection: a setup put, two
// moves (source present; source absent), and membership probes. MOVE
// admits alone, so the admission sequence is deterministic under a gated
// server: [put] [move] [move] [get get get]. A re-EXECUTION of 202 would
// answer 2, not 3 (key 5 is gone), which is what guards dedup.
var moveReqs = []pipeReq{
	{serve.OpPut, 201, 5, 0, 1},
	{serve.OpMove, 202, 5, 9, 3}, // 5 present -> deleted; 9 fresh -> inserted
	{serve.OpMove, 203, 7, 2, 2}, // 7 absent; 2 fresh -> inserted
	{serve.OpGet, 204, 5, 0, 0},
	{serve.OpGet, 205, 9, 0, 1},
	{serve.OpGet, 206, 2, 0, 1},
}

var moveKeys = []uint64{2, 9}

// TestServeMoveCrashSweep kills and reboots the store at EVERY access
// offset of the MOVE pipeline — the setup window, both two-leg
// transactions (including their announcement, first leg, commit point and
// second leg), and the read window — for both engine placements. At each
// offset the client must observe exactly the crash-free responses and the
// recovered store exactly the crash-free keys (a torn move would leave the
// source deleted without the destination, caught here), and resubmitting
// both MOVE IDs must replay the recorded packed answers without touching
// the store. Every run admits both MOVEs as windows of their own.
func TestServeMoveCrashSweep(t *testing.T) {
	for _, eng := range sweepEngines {
		t.Run(eng.name, func(t *testing.T) {
			crash.SweepTest(t, func() crash.Instance {
				p := newPipeline(t, sweepConfig(eng.kind), moveReqs)
				return p.instance(func() string {
					if moves := p.s.Snapshot().Procs[0].Moves; moves != 2 {
						return fmt.Sprintf("admitted %d MOVE windows, want 2", moves)
					}
					return p.holds(moveKeys)
				}, func() string { return p.resubmitted(moveReqs[1:3], 1) })
			}, wants(moveReqs))
		})
	}
}
