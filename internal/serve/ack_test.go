package serve_test

import (
	"encoding/json"
	"sync"
	"testing"

	"repro"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// TestServeAckKeepsTableFlat is the response-table bound regression: under
// steady resubmit-free traffic, the piggybacked acknowledgement watermark
// must evict answered entries as fast as they are created, so the
// exactly-once table holds only the unacknowledged tail instead of growing
// with every request ever answered.
func TestServeAckKeepsTableFlat(t *testing.T) {
	_, ln := startServer(t, serve.Config{Procs: 2, Batch: 8, HeapWords: 1 << 20})
	c := dial(t, ln, 1)

	const rounds = 4
	const opsPerRound = 128
	// A sequential client settles request k before minting k+1, so the
	// watermark trails by one request and the table never holds more than
	// the in-flight tail (plus the stats request itself, unanswered).
	const flatBound = 4

	total := uint64(0)
	for r := 0; r < rounds; r++ {
		for i := 0; i < opsPerRound; i++ {
			k := uint64(i%64) + 1
			var err error
			switch i % 3 {
			case 0:
				_, err = c.Put(k)
			case 1:
				_, err = c.Get(k)
			default:
				_, err = c.Del(k)
			}
			if err != nil {
				t.Fatalf("round %d op %d: %v", r, i, err)
			}
			total++
		}
		body, err := c.Stats()
		if err != nil {
			t.Fatalf("round %d stats: %v", r, err)
		}
		var st serve.Stats
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("round %d stats body: %v", r, err)
		}
		if st.TableEntries > flatBound {
			t.Fatalf("round %d: table holds %d entries after %d requests, want <= %d (table must stay flat)",
				r, st.TableEntries, total, flatBound)
		}
		if st.Deduped != 0 || st.Retried != 0 {
			t.Fatalf("round %d: deduped=%d retried=%d — traffic was supposed to be resubmit-free",
				r, st.Deduped, st.Retried)
		}
		if st.EvictedEntries < total-flatBound {
			t.Fatalf("round %d: evicted only %d of %d answered entries", r, st.EvictedEntries, total)
		}
	}
}

// TestServeTableFlatAcrossCrashes is the same bound under a crash storm.
// Every crash's report names each Proc's last announced window, answered
// long ago if the Proc was idle; a crashed request must be answered by the
// worker that admitted it and by nothing else, or those old answers return
// to the table below their clients' watermarks, where no acknowledgement
// walks again.
func TestServeTableFlatAcrossCrashes(t *testing.T) {
	const clients, puts = 4, 400
	s, ln := startServer(t, serve.Config{
		Procs: 2, Batch: 8, QueueDepth: 16,
		CrashSim: true, CrashEvery: 1500, HeapWords: 1 << 20,
		Engine: repro.EngineIsbOpt,
	})
	var wg sync.WaitGroup
	for w := range clients {
		c := dial(t, ln, uint64(w+1))
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			for i := range puts {
				if _, err := c.Put(uint64(i%32) + 1); err != nil {
					t.Errorf("put %d: %v", i, err)
					return
				}
			}
			// One more request acknowledges every earlier one.
			if _, err := c.Get(1); err != nil {
				t.Errorf("final get: %v", err)
			}
		}(c)
	}
	wg.Wait()
	st := s.Snapshot()
	if st.Crashes == 0 {
		t.Fatal("storm fired no crashes; the table was never checked across one")
	}
	// Each client's last request is the only unacknowledged one.
	if st.TableEntries > clients {
		t.Fatalf("table holds %d entries after %d crashes, want <= %d (one unacknowledged request per client)",
			st.TableEntries, st.Crashes, clients)
	}
}

// TestServeAckDoesNotEvictForeignIDs pins the eviction scoping: an
// acknowledgement watermark names ONE client's sequence range, so another
// client's recorded answers — and caller-chosen IDs outside the
// acknowledging client's range — survive and still dedup.
func TestServeAckDoesNotEvictForeignIDs(t *testing.T) {
	s, ln := startServer(t, serve.Config{Procs: 1, Batch: 4, HeapWords: 1 << 18})
	a := dial(t, ln, 1)
	b := dial(t, ln, 2)

	// Client b answers one put under a caller-chosen ID outside its own
	// sequence space: the client must not settle (and so never ack) an ID
	// it did not mint, so the entry sits in the table indefinitely.
	const bID = 999 // client prefix 0: neither a's (1) nor b's (2)
	if rep, err := b.DoWithID(serve.OpPut, bID, 7); err != nil || rep.Val != 1 {
		t.Fatalf("b's put = val %d, err %v; want 1", rep.Val, err)
	}
	// Client a churns enough traffic to advance its own watermark far past
	// b's sequence numbers.
	for i := 0; i < 32; i++ {
		if _, err := a.Put(uint64(i + 10)); err != nil {
			t.Fatalf("a's put %d: %v", i, err)
		}
	}
	// b's recorded answer must still be there: a resubmit dedups instead
	// of re-executing (re-execution would answer 0 — key 7 now exists).
	if rep, err := b.DoWithID(serve.OpPut, bID, 7); err != nil || rep.Val != 1 {
		t.Fatalf("b's resubmit = val %d, err %v; want recorded 1", rep.Val, err)
	}
	if st := s.Snapshot(); st.Deduped != 1 {
		t.Fatalf("deduped = %d, want 1", st.Deduped)
	}
}

// TestServeReconnectHitsResponseTable is the resurrected-client leg of the
// exactly-once protocol: a request answered on one connection, whose reply
// the client may have lost, must be answered from the response table on a
// BRAND NEW connection — and a different client reconnecting must neither
// read nor evict the first client's entries.
func TestServeReconnectHitsResponseTable(t *testing.T) {
	s, ln := startServer(t, serve.Config{Procs: 1, Batch: 4, HeapWords: 1 << 18})

	// Client 1 answers a put, then its connection dies (reply conceivably
	// lost in flight).
	a := dial(t, ln, 1)
	id := a.NextID()
	if rep, err := a.DoWithID(serve.OpPut, id, 7); err != nil || rep.Val != 1 {
		t.Fatalf("put = val %d, err %v; want fresh insert", rep.Val, err)
	}
	a.Close()

	// A foreign client reconnects and churns: its acks name its OWN
	// sequence range only, so client 1's entry survives.
	b := dial(t, ln, 2)
	for i := 0; i < 16; i++ {
		if _, err := b.Put(uint64(100 + i)); err != nil {
			t.Fatalf("b put %d: %v", i, err)
		}
	}
	// The foreign client must not be able to observe a stale answer under
	// ITS resubmission of an ID it never minted... it can read the entry
	// (IDs are the global dedup key) but crucially cannot EVICT it, and
	// never collides with it when sticking to its own minted range.
	if st := s.Snapshot(); st.TableEntries == 0 {
		t.Fatalf("client 1's unacknowledged entry was evicted by client 2's traffic")
	}

	// Client 1 resurrects on a new connection and resubmits the same ID:
	// the answer must come from the table (still val=1 — a re-execution
	// would answer 0, key 7 already present), via dedup, not execution.
	before := s.Snapshot().Deduped
	a2 := dial(t, ln, 1)
	if rep, err := a2.DoWithID(serve.OpPut, id, 7); err != nil || rep.Val != 1 {
		t.Fatalf("resubmit on new conn = val %d, err %v; want recorded 1", rep.Val, err)
	}
	if after := s.Snapshot().Deduped; after != before+1 {
		t.Fatalf("deduped went %d -> %d; resubmitted ID was re-executed", before, after)
	}
}
