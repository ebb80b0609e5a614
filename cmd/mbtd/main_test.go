package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFlagValidation(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-listen", "127.0.0.1:0"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-id") {
		t.Fatalf("missing -id: %v", err)
	}
	if err := run(ctx, []string{"-id", "1"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-listen") {
		t.Fatalf("missing links: %v", err)
	}
}

// TestBadFlagCombos feeds run() invalid flag combinations and checks
// each one dies immediately with an error naming the bad flag and a
// usage dump — the daemon must never limp onto the mesh misconfigured.
func TestBadFlagCombos(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		wantSub string
	}{
		{"missing id", []string{"-listen", "127.0.0.1:0"}, "-id"},
		{"negative id", []string{"-id", "-3", "-listen", "127.0.0.1:0"}, "-id"},
		{"no links", []string{"-id", "1"}, "-listen"},
		{"fault drop out of range", []string{"-id", "1", "-listen", "127.0.0.1:0", "-fault", "drop=1.5"}, "-fault"},
		{"fault unknown key", []string{"-id", "1", "-listen", "127.0.0.1:0", "-fault", "banana=1"}, "-fault"},
		{"fault bad partition", []string{"-id", "1", "-listen", "127.0.0.1:0", "-fault", "partition=zzz"}, "-fault"},
		{"data-dir is a file", []string{"-id", "1", "-listen", "127.0.0.1:0", "-data-dir", file}, "-data-dir"},
		{"data-dir under a file", []string{"-id", "1", "-listen", "127.0.0.1:0", "-data-dir", filepath.Join(file, "sub")}, "-data-dir"},
		{"fec without listen", []string{"-id", "1", "-peers", "127.0.0.1:1", "-bcast", "-fec"}, "-listen"},
		// Value rules are daemon.Config.Validate's; the error names the
		// Config field the flag feeds.
		{"fec without bcast", []string{"-id", "1", "-listen", "127.0.0.1:0", "-fec"}, "EnableBcast"},
		{"tft without bcast", []string{"-id", "1", "-listen", "127.0.0.1:0", "-tft"}, "EnableBcast"},
		{"dht-k without dht", []string{"-id", "1", "-listen", "127.0.0.1:0", "-dht-k", "8"}, "EnableDHT"},
		{"negative dht-k", []string{"-id", "1", "-listen", "127.0.0.1:0", "-dht", "-dht-k", "-2"}, "DHTK"},
		{"dht-republish without dht", []string{"-id", "1", "-listen", "127.0.0.1:0", "-dht-republish", "5s"}, "EnableDHT"},
		{"negative dht-republish", []string{"-id", "1", "-listen", "127.0.0.1:0", "-dht", "-dht-republish", "-5s"}, "DHTRepublish"},
		{"negative rate", []string{"-id", "1", "-listen", "127.0.0.1:0", "-rate", "-1"}, "PeerRate"},
		{"negative busy-retry-after", []string{"-id", "1", "-listen", "127.0.0.1:0", "-busy-retry-after", "-5s"}, "BusyRetryAfter"},
		{"window shorter than hello", []string{"-id", "1", "-listen", "127.0.0.1:0", "-hello", "2s", "-window", "1s"}, "LivenessWindow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(context.Background(), tc.args, &buf)
			if err == nil {
				t.Fatalf("accepted %v", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name %q", err, tc.wantSub)
			}
			if out := buf.String(); !strings.Contains(out, "Usage of mbtd") {
				t.Fatalf("no usage dump in output:\n%s", out)
			}
		})
	}
}

func TestFaultFlagValidation(t *testing.T) {
	err := run(context.Background(), []string{
		"-id", "1", "-listen", "127.0.0.1:0", "-fault", "drop=1.5",
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-fault") {
		t.Fatalf("bad -fault spec accepted: %v", err)
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" a, b ,,c ")
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("splitList = %v, want %v", got, want)
	}
	if got := splitList(""); got != nil {
		t.Fatalf("splitList(\"\") = %v", got)
	}
}

// freePort grabs an ephemeral port and releases it for the daemon to
// rebind — the standard test trick, racy only against other processes.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestLocalhostDemo is the README demo as a test: two mbtd daemons on
// localhost, a metadata query, and a full multi-piece download, watched
// through the leecher's /stats endpoint.
func TestLocalhostDemo(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	seedPeer, leechHTTP := freePort(t), freePort(t)
	errs := make(chan error, 2)
	go func() {
		errs <- run(ctx, []string{
			"-id", "1", "-listen", seedPeer, "-internet", "-files", "2",
			"-hello", "20ms", "-quiet",
		}, io.Discard)
	}()
	go func() {
		errs <- run(ctx, []string{
			"-id", "2", "-peers", seedPeer, "-query", "f0",
			"-http", leechHTTP, "-hello", "20ms", "-quiet",
		}, io.Discard)
	}()

	statsURL := fmt.Sprintf("http://%s/stats", leechHTTP)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("demo download never completed")
		}
		select {
		case err := <-errs:
			t.Fatalf("daemon exited early: %v", err)
		default:
		}
		var stats struct {
			Completed      map[string]bool `json:"completed"`
			PiecesVerified uint64          `json:"pieces_verified"`
		}
		if resp, err := http.Get(statsURL); err == nil {
			json.NewDecoder(resp.Body).Decode(&stats)
			resp.Body.Close()
			if stats.Completed["dtn://files/0"] && stats.PiecesVerified >= 3 {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Graceful shutdown: both daemons return the context error only.
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

// TestLocalhostBcastDemo is the README broadcast walkthrough as a test:
// three mbtd daemons in a full TCP mesh with -bcast, where the clique
// forms from overheard hellos and the shared download rides the group
// schedule (fanned out over the unicast links). Both leechers must
// complete the file, report a confirmed three-node group in /stats,
// and have received pieces over the broadcast path. The seed's fast
// beacon makes the rounds fast (it is the sequencer), while the
// 128-piece file outlasts the pairwise head start before confirmation.
func TestLocalhostBcastDemo(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	p1, p2, p3 := freePort(t), freePort(t), freePort(t)
	h2, h3 := freePort(t), freePort(t)
	errs := make(chan error, 3)
	go func() {
		errs <- run(ctx, []string{
			"-id", "1", "-listen", p1, "-internet", "-files", "1",
			"-file-size", "524288", "-piece-size", "4096",
			"-bcast", "-hello", "20ms", "-quiet",
		}, io.Discard)
	}()
	go func() {
		errs <- run(ctx, []string{
			"-id", "2", "-listen", p2, "-peers", p1, "-query", "f0",
			"-bcast", "-http", h2, "-hello", "200ms", "-quiet",
		}, io.Discard)
	}()
	go func() {
		errs <- run(ctx, []string{
			"-id", "3", "-listen", p3, "-peers", p1 + "," + p2, "-query", "f0",
			"-bcast", "-http", h3, "-hello", "200ms", "-quiet",
		}, io.Discard)
	}()

	type stats struct {
		Completed map[string]bool `json:"completed"`
		Bcast     *struct {
			Group      []int  `json:"group"`
			Confirmed  bool   `json:"confirmed"`
			BcastsRecv uint64 `json:"piece_bcasts_recv"`
		} `json:"bcast"`
	}
	poll := func(addr string) (st stats, ok bool) {
		resp, err := http.Get(fmt.Sprintf("http://%s/stats", addr))
		if err != nil {
			return st, false
		}
		defer resp.Body.Close()
		return st, json.NewDecoder(resp.Body).Decode(&st) == nil
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("broadcast demo never completed with a confirmed group")
		}
		select {
		case err := <-errs:
			t.Fatalf("daemon exited early: %v", err)
		default:
		}
		st2, ok2 := poll(h2)
		st3, ok3 := poll(h3)
		if ok2 && ok3 &&
			st2.Completed["dtn://files/0"] && st3.Completed["dtn://files/0"] &&
			st2.Bcast != nil && st2.Bcast.Confirmed && len(st2.Bcast.Group) == 3 &&
			st3.Bcast != nil && st3.Bcast.Confirmed && len(st3.Bcast.Group) == 3 &&
			st2.Bcast.BcastsRecv > 0 && st3.Bcast.BcastsRecv > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	for i := 0; i < 3; i++ {
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

// TestLocalhostFECDemo is the README fountain walkthrough as a test:
// the three-daemon broadcast mesh with -fec everywhere, so once the
// clique confirms, granted pieces ride the UDP symbol lane as rateless
// coded symbols instead of PieceBcast frames. Both leechers must
// complete the file, having decoded pieces from the lane.
func TestLocalhostFECDemo(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	p1, p2, p3 := freePort(t), freePort(t), freePort(t)
	h2, h3 := freePort(t), freePort(t)
	errs := make(chan error, 3)
	go func() {
		errs <- run(ctx, []string{
			"-id", "1", "-listen", p1, "-internet", "-files", "1",
			"-file-size", "524288", "-piece-size", "4096",
			"-bcast", "-fec", "-symbol-peers", p2 + "," + p3,
			"-hello", "20ms", "-quiet",
		}, io.Discard)
	}()
	go func() {
		errs <- run(ctx, []string{
			"-id", "2", "-listen", p2, "-peers", p1, "-query", "f0",
			"-bcast", "-fec", "-symbol-peers", p1 + "," + p3,
			"-http", h2, "-hello", "200ms", "-quiet",
		}, io.Discard)
	}()
	go func() {
		errs <- run(ctx, []string{
			"-id", "3", "-listen", p3, "-peers", p1 + "," + p2, "-query", "f0",
			"-bcast", "-fec", "-symbol-peers", p1 + "," + p2,
			"-http", h3, "-hello", "200ms", "-quiet",
		}, io.Discard)
	}()

	type stats struct {
		Completed map[string]bool `json:"completed"`
		Bcast     *struct {
			Group       []int  `json:"group"`
			Confirmed   bool   `json:"confirmed"`
			SymbolsRecv uint64 `json:"symbols_recv"`
			FECDecodes  uint64 `json:"fec_decodes"`
		} `json:"bcast"`
	}
	poll := func(addr string) (st stats, ok bool) {
		resp, err := http.Get(fmt.Sprintf("http://%s/stats", addr))
		if err != nil {
			return st, false
		}
		defer resp.Body.Close()
		return st, json.NewDecoder(resp.Body).Decode(&st) == nil
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("fec demo never completed with fountain decodes")
		}
		select {
		case err := <-errs:
			t.Fatalf("daemon exited early: %v", err)
		default:
		}
		st2, ok2 := poll(h2)
		st3, ok3 := poll(h3)
		if ok2 && ok3 &&
			st2.Completed["dtn://files/0"] && st3.Completed["dtn://files/0"] &&
			st2.Bcast != nil && st2.Bcast.Confirmed && len(st2.Bcast.Group) == 3 &&
			st3.Bcast != nil && st3.Bcast.Confirmed && len(st3.Bcast.Group) == 3 &&
			st2.Bcast.FECDecodes > 0 && st3.Bcast.FECDecodes > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	for i := 0; i < 3; i++ {
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

// TestLocalhostDemoUnderFaults reruns the demo with the leecher's
// transport behind `-fault`: 20% drop and 10% corruption over real TCP
// sockets, recovered by the resend deadline and stall re-drive.
func TestLocalhostDemoUnderFaults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	seedPeer, leechHTTP := freePort(t), freePort(t)
	errs := make(chan error, 2)
	go func() {
		errs <- run(ctx, []string{
			"-id", "1", "-listen", seedPeer, "-internet", "-files", "1",
			"-hello", "20ms", "-window", "500ms", "-quiet",
		}, io.Discard)
	}()
	go func() {
		errs <- run(ctx, []string{
			"-id", "2", "-peers", seedPeer, "-query", "f0",
			"-http", leechHTTP, "-hello", "20ms", "-window", "500ms",
			"-fault", "seed=7,drop=0.2,corrupt=0.1", "-quiet",
		}, io.Discard)
	}()

	statsURL := fmt.Sprintf("http://%s/stats", leechHTTP)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("faulty demo download never completed")
		}
		select {
		case err := <-errs:
			t.Fatalf("daemon exited early: %v", err)
		default:
		}
		var stats struct {
			Completed map[string]bool `json:"completed"`
		}
		if resp, err := http.Get(statsURL); err == nil {
			json.NewDecoder(resp.Body).Decode(&stats)
			resp.Body.Close()
			if stats.Completed["dtn://files/0"] {
				break
			}
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

// TestLocalhostRestartDemo is the README durability walkthrough as a
// test: a leecher with -data-dir is killed mid-download, restarted on
// the same directory, and must report recovered state over /healthz,
// finish the file, and never be re-sent a piece it already persisted.
func TestLocalhostRestartDemo(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dataDir := t.TempDir()

	seedPeer, leechHTTP := freePort(t), freePort(t)
	seedErr := make(chan error, 1)
	go func() {
		// 512 × 4 KB pieces: at 16 pieces per hello burst the transfer
		// spans dozens of hellos, leaving a wide window to kill into.
		seedErr <- run(ctx, []string{
			"-id", "1", "-listen", seedPeer, "-internet", "-files", "1",
			"-file-size", "2097152", "-piece-size", "4096",
			"-hello", "20ms", "-quiet",
		}, io.Discard)
	}()

	leechArgs := []string{
		"-id", "2", "-peers", seedPeer, "-query", "f0",
		"-http", leechHTTP, "-hello", "20ms", "-data-dir", dataDir, "-quiet",
	}
	ctx1, cancel1 := context.WithCancel(ctx)
	leechErr := make(chan error, 1)
	go func() { leechErr <- run(ctx1, leechArgs, io.Discard) }()

	type stats struct {
		Completed       map[string]bool `json:"completed"`
		PiecesVerified  uint64          `json:"pieces_verified"`
		PiecesRefetched uint64          `json:"pieces_refetched"`
	}
	poll := func() (st stats, ok bool) {
		resp, err := http.Get(fmt.Sprintf("http://%s/stats", leechHTTP))
		if err != nil {
			return st, false
		}
		defer resp.Body.Close()
		return st, json.NewDecoder(resp.Body).Decode(&st) == nil
	}

	// Kill the leecher once a strict prefix of the 512 pieces is durable.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("download never started")
		}
		if st, ok := poll(); ok && st.PiecesVerified >= 16 && st.PiecesVerified <= 256 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel1()
	if err := <-leechErr; err != nil && err != context.Canceled {
		t.Fatalf("leech first run: %v", err)
	}

	// Same command line, same directory: the restart resumes.
	go func() { leechErr <- run(ctx, leechArgs, io.Discard) }()
	deadline = time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("restarted download never completed")
		}
		if st, ok := poll(); ok && st.Completed["dtn://files/0"] {
			if st.PiecesRefetched != 0 {
				t.Fatalf("restarted daemon was re-sent %d persisted pieces", st.PiecesRefetched)
			}
			if st.PiecesVerified >= 512 {
				t.Fatalf("restart re-verified all %d pieces; recovery did not restore any", st.PiecesVerified)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	var health struct {
		Recovery *struct {
			Recovered bool `json:"recovered"`
		} `json:"recovery"`
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", leechHTTP))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health.Recovery == nil || !health.Recovery.Recovered {
		t.Fatalf("healthz does not report recovery: %+v", health)
	}

	cancel()
	for _, ch := range []chan error{seedErr, leechErr} {
		select {
		case err := <-ch:
			if err != nil && err != context.Canceled {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
}
