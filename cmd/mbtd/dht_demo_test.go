package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"
)

// dhtStats is the /stats slice the DHT demo watches.
type dhtStats struct {
	MetadataStored int             `json:"metadata_stored"`
	Downloading    []string        `json:"downloading"`
	Completed      map[string]bool `json:"completed"`
	Transport      struct {
		MetadataRecv uint64 `json:"metadata_recv"`
	} `json:"transport"`
	DHT *struct {
		StoresRecv uint64 `json:"stores_recv"`
		Lookups    uint64 `json:"lookups"`
		CacheHits  uint64 `json:"cache_hits"`
		StoreSize  int    `json:"store_size"`
	} `json:"dht"`
}

func pollDHTStats(addr string) (st dhtStats, ok bool) {
	resp, err := http.Get(fmt.Sprintf("http://%s/stats", addr))
	if err != nil {
		return st, false
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st) == nil
}

// TestLocalhostDHTDemo is the README decentralized-discovery
// walkthrough as a test: a -dht catalog server and a -dht mobile node
// come up, the server republishes its two-file catalog into the index,
// and the mobile node downloads f0. Then the server is killed
// mid-demo, and a third node joins querying f1 — a keyword nobody ever
// searched while the server lived. The legacy path has no holder of
// that metadata; the new node must resolve it from node 2's DHT store,
// with zero legacy metadata frames received.
func TestLocalhostDHTDemo(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srvCtx, srvCancel := context.WithCancel(ctx)
	defer srvCancel()

	p1, p2, p3 := freePort(t), freePort(t), freePort(t)
	log2, log3 := newStatsLog(), newStatsLog()
	srvErr := make(chan error, 1)
	errs := make(chan error, 2)
	go func() {
		srvErr <- run(srvCtx, []string{
			"-id", "1", "-listen", p1, "-internet", "-files", "2",
			"-dht", "-dht-republish", "200ms", "-hello", "20ms", "-quiet",
		}, io.Discard)
	}()
	go func() {
		errs <- run(ctx, []string{
			"-id", "2", "-listen", p2, "-peers", p1, "-query", "f0",
			"-dht", "-dht-republish", "200ms", "-http", "127.0.0.1:0", "-hello", "20ms", "-quiet",
		}, log2)
	}()
	h2 := log2.await(t, errs)

	// Phase 1: node 2 downloads f0 the ordinary way while the server's
	// republish cycle pushes both catalog records into node 2's DHT
	// store (f1 included — a record node 2 never asked for).
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("phase 1 never converged: f0 download + DHT replication")
		}
		select {
		case err := <-srvErr:
			t.Fatalf("server exited early: %v", err)
		case err := <-errs:
			t.Fatalf("node 2 exited early: %v", err)
		default:
		}
		if st, ok := pollDHTStats(h2); ok &&
			st.Completed["dtn://files/0"] && st.DHT != nil && st.DHT.StoresRecv >= 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Kill the server mid-demo. The catalog dies with it.
	srvCancel()
	select {
	case err := <-srvErr:
		if err != nil && err != context.Canceled {
			t.Fatalf("server shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}

	// Phase 2: node 3 joins after the server's death, searching for the
	// never-queried keyword. Only node 2's DHT store can answer.
	go func() {
		errs <- run(ctx, []string{
			"-id", "3", "-listen", p3, "-peers", p2, "-query", "f1",
			"-dht", "-dht-republish", "200ms", "-http", "127.0.0.1:0", "-hello", "20ms", "-quiet",
		}, log3)
	}()
	h3 := log3.await(t, errs)

	deadline = time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("node 3 never resolved f1 from the DHT after server death")
		}
		select {
		case err := <-errs:
			t.Fatalf("daemon exited early: %v", err)
		default:
		}
		st, ok := pollDHTStats(h3)
		if !ok {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		resolved := false
		for _, uri := range st.Downloading {
			if uri == "dtn://files/1" {
				resolved = true
			}
		}
		if resolved || st.Completed["dtn://files/1"] {
			if st.Transport.MetadataRecv != 0 {
				t.Fatalf("node 3 received %d legacy metadata frames; resolution should be pure-DHT",
					st.Transport.MetadataRecv)
			}
			if st.MetadataStored == 0 {
				t.Fatal("node 3 resolved f1 but stored no metadata")
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil && err != context.Canceled {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
}
