// kvserver runs the crash-riddled network KV store: the detectably
// recoverable sharded hash map behind the serve layer's framed TCP
// protocol, with batched admission, RETRY backpressure and exactly-once
// resubmit across simulated crashes.
//
// Normal mode listens on -addr and serves until interrupted:
//
//	go run ./cmd/kvserver -addr :7070 -crash-every 50000
//
// Selftest mode (-selftest) runs an in-process crash storm over the
// in-memory transport — several session clients hammering the server
// through injected crashes — audits the recovered store against every
// response the clients observed, prints the stats snapshot, and exits
// non-zero on any inconsistency. CI runs this as the server smoke test.
// With -chaos the storm additionally runs through a fault-injecting
// listener that kills connections mid-frame on a seeded schedule: the
// session clients must redial and resubmit without a single answer or
// store cell diverging.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"repro"
	"repro/internal/serve"
	"repro/internal/serve/chaos"
	"repro/internal/serve/client"
)

func main() {
	addr := flag.String("addr", ":7070", "TCP listen address (normal mode)")
	procs := flag.Int("procs", 2, "admission Procs (fixed worker pool)")
	shards := flag.Int("shards", 16, "store shards")
	batch := flag.Int("batch", 16, "max requests per admission window")
	queueDepth := flag.Int("queue-depth", 32, "per-connection queue bound")
	crashEvery := flag.Uint64("crash-every", 0, "memory accesses between injected crashes (0 = no crash sim)")
	shedWatermark := flag.Float64("shed-watermark", 0, "aggregate queue fraction past which requests are answered OVERLOAD (0 = off)")
	idleTimeout := flag.Duration("idle-timeout", 0, "disconnect connections idle for this long (0 = off)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-reply write deadline (0 = off)")
	selftest := flag.Bool("selftest", false, "run the in-process crash-storm audit and exit")
	conns := flag.Int("conns", 4, "selftest: client connections")
	ops := flag.Int("ops", 300, "selftest: requests per connection")
	chaosOn := flag.Bool("chaos", false, "selftest: run the storm through a fault-injecting listener (connection kills, torn frames)")
	chaosRate := flag.Float64("chaos-rate", 0.4, "selftest: expected connection kills per KiB of traffic")
	chaosSeed := flag.Int64("chaos-seed", 1, "selftest: chaos schedule seed")
	flag.Parse()

	cfg := serve.Config{
		Procs: *procs, Shards: *shards, Batch: *batch, QueueDepth: *queueDepth,
		CrashSim: *crashEvery > 0, CrashEvery: *crashEvery,
		Engine: repro.EngineIsbOpt, HeapWords: 1 << 22,
		ShedWatermark: *shedWatermark, IdleTimeout: *idleTimeout, WriteTimeout: *writeTimeout,
	}

	if *selftest {
		cfg.Reclaim = true
		if cfg.CrashEvery == 0 {
			cfg.CrashSim = true
			cfg.CrashEvery = 1500
		}
		var sched *chaos.Schedule
		if *chaosOn {
			sched = chaos.NewSchedule(chaos.ScheduleConfig{Seed: *chaosSeed, KillRate: *chaosRate})
		}
		if err := runSelftest(cfg, *conns, *ops, sched); err != nil {
			fmt.Fprintln(os.Stderr, "selftest FAILED:", err)
			os.Exit(1)
		}
		return
	}

	s := serve.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvserver:", err)
		os.Exit(1)
	}
	fmt.Printf("kvserver: serving on %s (procs=%d batch=%d queue=%d crash-every=%d)\n",
		ln.Addr(), cfg.Procs, cfg.Batch, cfg.QueueDepth, cfg.CrashEvery)
	if err := s.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "kvserver:", err)
		os.Exit(1)
	}
}

// runSelftest storms a fresh server over the in-memory transport —
// optionally through a fault-injecting listener — and audits the
// recovered store against the responses the session clients observed.
func runSelftest(cfg serve.Config, conns, ops int, sched *chaos.Schedule) error {
	const keySpace = 48
	s := serve.New(cfg)
	defer s.Close()
	ln := serve.NewMemListener()
	if sched != nil {
		go s.Serve(chaos.NewListener(ln, sched))
	} else {
		go s.Serve(ln)
	}

	deltas := make([]map[uint64]int, conns)
	errs := make([]error, conns)
	sessions := make([]*client.Client, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		deltas[w] = map[uint64]int{}
		c, err := client.DialSession(client.SessionConfig{
			ClientID:       uint64(w + 1),
			Dial:           func() (net.Conn, error) { return ln.Dial() },
			RequestTimeout: 10 * time.Second,
			Seed:           int64(w) + 1,
		})
		if err != nil {
			return err
		}
		sessions[w] = c
		wg.Add(1)
		go func(w int, c *client.Client) {
			defer wg.Done()
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < ops; i++ {
				k := uint64(rng.Intn(keySpace)) + 1
				switch rng.Intn(4) {
				case 0:
					ok, err := c.Put(k)
					if err != nil {
						errs[w] = err
						return
					}
					if ok {
						deltas[w][k]++
					}
				case 1:
					ok, err := c.Del(k)
					if err != nil {
						errs[w] = err
						return
					}
					if ok {
						deltas[w][k]--
					}
				default:
					if _, err := c.Get(k); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	total := map[uint64]int{}
	for _, m := range deltas {
		for k, v := range m {
			total[k] += v
		}
	}
	present := map[uint64]bool{}
	for _, k := range s.Store().Keys() {
		present[k] = true
	}
	bad := 0
	for k := uint64(1); k <= keySpace; k++ {
		want := 0
		if present[k] {
			want = 1
		}
		if total[k] != want {
			bad++
			fmt.Printf("MISMATCH key %d: net=%d present=%v\n", k, total[k], present[k])
		}
	}
	st := s.Snapshot()
	body, _ := json.MarshalIndent(st, "", "  ")
	fmt.Printf("%d conns × %d ops in %v: %d crashes survived, %d replies from recovery reports, %d retried, batch fill %.2f, %.2f reply frames per socket write (%d/%d), %.2f request frames per socket read (%d/%d)\n",
		conns, ops, time.Since(start).Round(time.Millisecond), st.Crashes, st.FromReport, st.Retried, st.BatchFillMean(),
		st.FramesPerFlush(), st.FramesOut, st.Flushes, st.FramesPerRead(), st.FramesIn, st.Reads)
	if cfg.Reclaim {
		fmt.Printf("reclaimer recovery: %d fast resets, %d full scans; the last one abandoned %d words, %d accounted as garbage since the last scan\n",
			st.FastRecoveries, st.FullScans, st.LastDropped, st.LastGarbage)
	}
	if sched != nil {
		var agg client.SessionStats
		for _, c := range sessions {
			cs := c.SessionStats()
			agg.Dials += cs.Dials
			agg.Reconnects += cs.Reconnects
			agg.Resubmits += cs.Resubmits
			agg.Timeouts += cs.Timeouts
		}
		wrapped, kills := sched.Stats()
		fmt.Printf("chaos: %d conns wrapped, %d kills planned; clients: %d dials, %d reconnects, %d resubmits, %d timeouts; server: %d disconnects\n",
			wrapped, kills, agg.Dials, agg.Reconnects, agg.Resubmits, agg.Timeouts, st.Disconnects)
		if kills > 0 && agg.Reconnects == 0 {
			return fmt.Errorf("chaos schedule planned %d kills but no client ever reconnected; storm too small", kills)
		}
	}
	fmt.Println(string(body))
	if bad > 0 {
		return fmt.Errorf("%d keys inconsistent with observed responses", bad)
	}
	if cfg.CrashSim && st.Crashes == 0 {
		return fmt.Errorf("crash sim enabled but no crash fired; storm too small")
	}
	// Session clients mint every ID and acknowledge each reply on their next
	// request, so only each client's last request may still be in the table.
	if st.TableEntries > conns {
		return fmt.Errorf("response table holds %d entries, want at most %d (one unacknowledged request per client)", st.TableEntries, conns)
	}
	fmt.Println("selftest passed: every response is consistent with the recovered store")
	return nil
}
