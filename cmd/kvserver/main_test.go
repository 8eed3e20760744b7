package main

import (
	"net"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// TestServerRecyclesItsHeap serves the server's configuration on a heap of
// 1<<16 words — on the leak-forever arena, a few thousand updates use it up
// — and drives 20 000 updates over eight keys through one client: every one
// must succeed, and the store must hold what they left.
func TestServerRecyclesItsHeap(t *testing.T) {
	const words, updates, keys = 1 << 16, 20_000, 8
	s := serve.New(serverConfig(serve.Config{Procs: 1, Batch: 16, HeapWords: words}))
	defer s.Close()
	ln := serve.NewMemListener()
	go s.Serve(ln)
	c, err := client.DialSession(client.SessionConfig{
		ClientID:       1,
		Dial:           func() (net.Conn, error) { return ln.Dial() },
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := range updates {
		k, put := uint64(i%keys)+1, i/keys%2 == 0
		op, opName := c.Del, "DEL"
		if put {
			op, opName = c.Put, "PUT"
		}
		ok, err := op(k)
		if err != nil || !ok {
			t.Fatalf("update %d (%s %d) = (%v, %v), want (true, nil): a %d-word heap must serve updates for good", i, opName, k, ok, err, words)
		}
	}
	if got := s.Store().Keys(); len(got) != 0 {
		t.Fatalf("the store holds %v after every key's last update deleted it", got)
	}
}
