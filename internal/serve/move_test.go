package serve_test

import (
	"testing"

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

var moveKeys = map[uint64]bool{9: true, 2: true}

// TestServeMoveCrashSweep kills and reboots the store at EVERY access
// offset of the MOVE pipeline — the setup window, both two-leg
// transactions (including their announcement, first leg, commit point and
// second leg), and the read window — for both engine placements. At each
// offset the client must observe exactly the crash-free responses and the
// recovered store exactly the crash-free keys (a torn move would leave the
// source deleted without the destination, caught here), and resubmitting
// both MOVE IDs must replay the recorded packed answers without touching
// the store.
func TestServeMoveCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is exhaustive; skipped in -short")
	}
	for _, eng := range sweepEngines {
		t.Run(eng.name, func(t *testing.T) {
			crashSweep(t, sweepConfig(eng.kind), moveReqs, everyOffset,
				func(ref *instance) {
					checkPipelineState(t, ref, moveReqs, moveKeys, "reference")
					if st := ref.s.Snapshot(); st.Procs[0].Moves != 2 {
						t.Fatalf("reference run admitted %d MOVE windows, want 2", st.Procs[0].Moves)
					}
				},
				func(label string, in *instance) {
					checkPipelineState(t, in, moveReqs, moveKeys, label)
					// Duplicate resubmits of both transactions: recorded packed
					// answers, no re-execution.
					for _, r := range moveReqs[1:3] {
						ch, err := in.c.Send(r.request())
						if err != nil {
							t.Fatalf("%s: resubmit send: %v", label, err)
						}
						rep := recvReply(t, ch, label+": resubmit reply")
						if rep.Status != serve.StOK || rep.Val != r.want {
							t.Fatalf("%s: resubmit of id %d answered status %d val %d, want OK/%d",
								label, r.reqID, rep.Status, rep.Val, r.want)
						}
					}
					checkPipelineState(t, in, moveReqs, moveKeys, label+" after resubmit")
					if st := in.s.Snapshot(); st.Deduped != 2 {
						t.Fatalf("%s: deduped = %d, want 2", label, st.Deduped)
					}
				})
		})
	}
}
