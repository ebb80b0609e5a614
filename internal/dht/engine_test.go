package dht

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/wire"
)

// mesh wires engines together with a perfect in-memory transport:
// Send delivers to the target's HandleMessage in a goroutine, and any
// reply routes straight back to the sender. Messages round-trip through
// the wire codec so the engines exercise exactly what the daemon sends.
type mesh struct {
	mu       sync.Mutex
	engines  map[trace.NodeID]*Engine
	inflight sync.WaitGroup // deliveries handed to Send and not yet handled
}

func newMesh() *mesh { return &mesh{engines: make(map[trace.NodeID]*Engine)} }

func (m *mesh) add(id trace.NodeID, k, alpha, cacheCap int) *Engine {
	e := New(Config{
		Self: id, Addr: fmt.Sprintf("n%d", id),
		K: k, Alpha: alpha, CacheCap: cacheCap,
		RequestTimeout: 50 * time.Millisecond,
		TTL:            time.Minute,
		Send:           m.sender(id),
	})
	m.mu.Lock()
	m.engines[id] = e
	m.mu.Unlock()
	return e
}

func (m *mesh) kill(id trace.NodeID) {
	m.mu.Lock()
	delete(m.engines, id)
	m.mu.Unlock()
}

func (m *mesh) get(id trace.NodeID) *Engine {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.engines[id]
}

func (m *mesh) sender(from trace.NodeID) func(Contact, wire.Msg) error {
	return func(c Contact, msg wire.Msg) error {
		m.mu.Lock()
		tgt := m.engines[c.ID]
		m.mu.Unlock()
		if tgt == nil {
			return errors.New("mesh: peer down")
		}
		frame := wire.Encode(msg)
		m.inflight.Add(1)
		go func() {
			defer m.inflight.Done()
			decoded, err := wire.Decode(frame)
			if err != nil {
				panic(err)
			}
			reply := tgt.HandleMessage(decoded)
			if reply == nil {
				return
			}
			m.mu.Lock()
			src := m.engines[from]
			m.mu.Unlock()
			if src == nil {
				return
			}
			back, err := wire.Decode(wire.Encode(reply))
			if err != nil {
				panic(err)
			}
			src.HandleMessage(back)
		}()
		return nil
	}
}

// settle waits until every message handed to a sender has been handled.
// Publish's stores are fire-and-forget, so a test that queries right
// after publishing settles first, or it races their delivery.
func (m *mesh) settle() { m.inflight.Wait() }

// bootstrap introduces every engine to one seed contact and refreshes,
// the way a real node joins: everything else is learned through lookups.
func (m *mesh) bootstrap(ids []trace.NodeID, seed trace.NodeID) {
	ctx := context.Background()
	for _, id := range ids {
		if id == seed {
			continue
		}
		e := m.get(id)
		e.Observe(seed, fmt.Sprintf("n%d", seed))
		e.Refresh(ctx)
	}
	// A second refresh round lets early joiners learn late ones.
	for _, id := range ids {
		m.get(id).Refresh(ctx)
	}
}

func TestLookupFindsPublishedValue(t *testing.T) {
	m := newMesh()
	var ids []trace.NodeID
	for i := 1; i <= 20; i++ {
		ids = append(ids, trace.NodeID(i))
		m.add(trace.NodeID(i), 4, 3, 64)
	}
	m.bootstrap(ids, 1)

	ctx := context.Background()
	meta := testMeta(7, 0.6)
	if _, err := m.engines[2].Publish(ctx, "jazz", meta); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	m.settle()
	// A different node resolves the keyword through the network.
	vals, err := m.engines[17].Query(ctx, "jazz")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(vals) != 1 || vals[0].Meta.Record.URI != meta.Record.URI {
		t.Fatalf("Query = %+v, want the published record", vals)
	}
	// The result was cached: a repeat query is a local hit.
	before := m.engines[17].Stats().CacheHits
	if _, err := m.engines[17].Query(ctx, "jazz"); err != nil {
		t.Fatal(err)
	}
	if got := m.engines[17].Stats().CacheHits; got != before+1 {
		t.Fatalf("repeat query cache hits %d, want %d", got, before+1)
	}
}

func TestQueryMissReturnsEmpty(t *testing.T) {
	m := newMesh()
	var ids []trace.NodeID
	for i := 1; i <= 8; i++ {
		ids = append(ids, trace.NodeID(i))
		m.add(trace.NodeID(i), 4, 2, 64)
	}
	m.bootstrap(ids, 1)
	vals, err := m.engines[5].Query(context.Background(), "no-such-keyword")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(vals) != 0 {
		t.Fatalf("Query hit on unpublished keyword: %+v", vals)
	}
}

func TestLookupNoContacts(t *testing.T) {
	m := newMesh()
	e := m.add(1, 4, 2, 16)
	if _, err := e.Query(context.Background(), "jazz"); !errors.Is(err, ErrNoContacts) {
		t.Fatalf("query with empty table: %v, want ErrNoContacts", err)
	}
}

// TestLookupPermutationInvariance: whatever order nodes join in, every
// node's lookup for the same target converges on the same closest-K set
// — the set a brute-force sort over all live nodes names.
func TestLookupPermutationInvariance(t *testing.T) {
	const n = 24
	const k = 4
	r := rng.New(0xFADE)
	targets := []Key{KeywordKey("alpha"), KeywordKey("beta"), NodeKey(999)}

	var want [][]trace.NodeID
	for perm := 0; perm < 3; perm++ {
		order := r.Perm(n)
		m := newMesh()
		var ids []trace.NodeID
		for _, i := range order {
			id := trace.NodeID(i + 1)
			ids = append(ids, id)
			m.add(id, k, 3, 64)
		}
		m.bootstrap(ids, ids[0])

		all := make([]trace.NodeID, n)
		for i := range all {
			all[i] = trace.NodeID(i + 1)
		}
		// Query from the same node in every permutation (the querier
		// itself never appears in its own results, so a varying querier
		// would change the expected set).
		const querier = trace.NodeID(1)
		for ti, target := range targets {
			res, err := m.get(querier).Lookup(context.Background(), target, false)
			if err != nil {
				t.Fatalf("perm %d: Lookup: %v", perm, err)
			}
			got := make([]trace.NodeID, 0, k)
			for _, c := range res.Closest {
				got = append(got, c.ID)
			}
			// Compare against brute force over every node except the
			// querier (a lookup never returns the asking node).
			var others []trace.NodeID
			for _, id := range all {
				if id != querier {
					others = append(others, id)
				}
			}
			exp := bruteClosest(target, others, k)
			if fmt.Sprint(got) != fmt.Sprint(exp) {
				t.Fatalf("perm %d target %d: converged on %v, want %v", perm, ti, got, exp)
			}
			if perm == 0 {
				want = append(want, got)
			} else if fmt.Sprint(want[ti]) != fmt.Sprint(got) {
				t.Fatalf("perm %d target %d: %v differs from first permutation's %v",
					perm, ti, got, want[ti])
			}
		}
	}
}

// TestLookupSurvivesDeadNodes: killed nodes time out and the lookup
// still converges on live replicas. The dead set is chosen just outside
// the keyword's top-K so every replica survives and the outcome is
// deterministic.
func TestLookupSurvivesDeadNodes(t *testing.T) {
	m := newMesh()
	var ids []trace.NodeID
	for i := 1; i <= 16; i++ {
		ids = append(ids, trace.NodeID(i))
		m.add(trace.NodeID(i), 4, 3, 64)
	}
	m.bootstrap(ids, 1)

	meta := testMeta(3, 0.5)
	ctx := context.Background()
	const publisher, querier = trace.NodeID(2), trace.NodeID(6)
	if _, err := m.engines[publisher].Publish(ctx, "resilient", meta); err != nil {
		t.Fatal(err)
	}
	m.settle()
	// Kill four nodes ranked just outside the keyword's top-4 (the
	// replica set), sparing the publisher and the querier.
	ranking := bruteClosest(KeywordKey("resilient"), ids, len(ids))
	dead := 0
	for _, id := range ranking[4:] {
		if id == publisher || id == querier || dead == 4 {
			continue
		}
		m.kill(id)
		dead++
	}
	start := time.Now()
	vals, err := m.engines[querier].Query(ctx, "resilient")
	if err != nil {
		t.Fatalf("Query after deaths: %v", err)
	}
	if len(vals) == 0 {
		t.Fatal("query failed to resolve after node deaths")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("lookup with dead nodes took %v", elapsed)
	}
}

// TestLookupDropsDeadContact: a lookup whose only candidate is dead
// times out, records the timeout, and forgets the contact.
func TestLookupDropsDeadContact(t *testing.T) {
	m := newMesh()
	e := m.add(1, 4, 2, 16)
	m.add(9, 4, 2, 16)
	e.Observe(9, "n9")
	m.kill(9)
	res, err := e.Lookup(context.Background(), KeywordKey("x"), true)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if len(res.Values) != 0 || len(res.Closest) != 0 {
		t.Fatalf("lookup through a dead contact returned %+v", res)
	}
	if len(e.Contacts()) != 0 {
		t.Fatal("dead contact still in the routing table")
	}
}

// TestStoreVerifyRejects: an engine with a Verify hook drops stores the
// hook rejects and never caches them.
func TestStoreVerifyRejects(t *testing.T) {
	reject := New(Config{
		Self: 1, Addr: "n1",
		Send:   func(Contact, wire.Msg) error { return nil },
		Verify: func(*wire.DHTValue) bool { return false },
	})
	s := &wire.StoreValue{
		From: 2, FromAddr: "n2", RPCID: 1, Key: KeywordKey("x"),
		Value: wire.DHTValue{Keyword: "x", ExpiresUnixMilli: time.Now().Add(time.Minute).UnixMilli(), Meta: testMeta(1, 0.5)},
	}
	if reply := reject.HandleMessage(s); reply != nil {
		t.Fatalf("StoreValue got a reply: %+v", reply)
	}
	st := reject.Stats()
	if st.StoresRejected != 1 || st.StoreSize != 0 {
		t.Fatalf("stats %+v, want one rejected store and empty cache", st)
	}
}

// TestFindValueServedFromStore: a node holding a record answers
// FindValue with the value, not with contacts.
func TestFindValueServedFromStore(t *testing.T) {
	e := New(Config{
		Self: 1, Addr: "n1",
		Send: func(Contact, wire.Msg) error { return nil },
	})
	e.Observe(9, "n9")
	e.StoreLocal("jazz", testMeta(2, 0.7), time.Minute)
	reply := e.HandleMessage(&wire.FindValue{
		From: 3, FromAddr: "n3", RPCID: 77, Key: KeywordKey("jazz"),
	})
	nr, ok := reply.(*wire.NodesReply)
	if !ok || !nr.Found || len(nr.Values) != 1 || nr.RPCID != 77 {
		t.Fatalf("FindValue reply = %+v, want found value echoing RPCID", reply)
	}
	// A FindNode for the same key returns contacts, never values.
	reply = e.HandleMessage(&wire.FindNode{
		From: 3, FromAddr: "n3", RPCID: 78, Target: KeywordKey("jazz"),
	})
	nr = reply.(*wire.NodesReply)
	if nr.Found || len(nr.Values) != 0 {
		t.Fatalf("FindNode reply carries values: %+v", nr)
	}
	// The asker itself is never in the contact list.
	for _, n := range nr.Nodes {
		if n.ID == 3 {
			t.Fatal("reply echoes the asking node as a contact")
		}
	}
}

// TestRecordExpiryAcrossMesh: a published record with a short TTL stops
// resolving once expired everywhere.
func TestRecordExpiryAcrossMesh(t *testing.T) {
	now := time.Unix(0, 0)
	var clockMu sync.Mutex
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	m := newMesh()
	var ids []trace.NodeID
	for i := 1; i <= 8; i++ {
		id := trace.NodeID(i)
		ids = append(ids, id)
		e := New(Config{
			Self: id, Addr: fmt.Sprintf("n%d", id),
			K: 4, Alpha: 2, CacheCap: 64,
			RequestTimeout: 50 * time.Millisecond,
			TTL:            time.Second,
			Send:           m.sender(id),
			Now:            clock,
		})
		m.mu.Lock()
		m.engines[id] = e
		m.mu.Unlock()
	}
	m.bootstrap(ids, 1)
	ctx := context.Background()
	if _, err := m.engines[2].Publish(ctx, "ephemeral", testMeta(5, 0.5)); err != nil {
		t.Fatal(err)
	}
	m.settle()
	if vals, _ := m.engines[7].Query(ctx, "ephemeral"); len(vals) == 0 {
		t.Fatal("fresh record did not resolve")
	}
	clockMu.Lock()
	now = now.Add(2 * time.Second)
	clockMu.Unlock()
	vals, err := m.engines[8].Query(ctx, "ephemeral")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 0 {
		t.Fatalf("expired record still resolves: %+v", vals)
	}
}

// TestLateStoreCannotResurrect is the mesh flake made deterministic: a
// StoreValue delivered after its record expired — delayed, duplicated or
// replayed — carries the publisher's absolute stamp, so it is dropped on
// arrival instead of being re-based on the receiver's clock; and a value
// that was stored in time is forwarded with its stamp unchanged.
func TestLateStoreCannotResurrect(t *testing.T) {
	now := time.Unix(5000, 0)
	e := New(Config{
		Self: 1, Addr: "n1",
		Send: func(Contact, wire.Msg) error { return nil },
		Now:  func() time.Time { return now },
	})
	stamp := now.Add(time.Second)
	store := &wire.StoreValue{
		From: 2, FromAddr: "n2", RPCID: 1, Key: KeywordKey("x"),
		Value: wire.DHTValue{Keyword: "x", ExpiresUnixMilli: stamp.UnixMilli(), Meta: testMeta(1, 0.5)},
	}
	find := &wire.FindValue{From: 3, FromAddr: "n3", RPCID: 2, Key: KeywordKey("x")}

	e.HandleMessage(store)
	now = now.Add(500 * time.Millisecond)
	nr := e.HandleMessage(find).(*wire.NodesReply)
	if !nr.Found || len(nr.Values) != 1 || nr.Values[0].ExpiresUnixMilli != stamp.UnixMilli() {
		t.Fatalf("reply at +0.5s = %+v, want the value with its stamp %d unchanged", nr, stamp.UnixMilli())
	}

	now = now.Add(2 * time.Second)
	e.HandleMessage(store) // the same store again, two seconds late
	if nr := e.HandleMessage(find).(*wire.NodesReply); nr.Found {
		t.Fatalf("late store resurrected an expired record: %+v", nr.Values)
	}
	if vals := e.CachedValues("x"); len(vals) != 0 {
		t.Fatalf("expired record still cached: %+v", vals)
	}
	if st := e.Stats(); st.StoresRecv != 1 || st.StoresExpired != 1 {
		t.Fatalf("stats %+v, want one store accepted and one expired on arrival", st)
	}
}

// TestSignedExpiryBoundsEveryStamp: with a SignedExpiry hook no stamp —
// published, received or cached locally — outlives the signed record.
func TestSignedExpiryBoundsEveryStamp(t *testing.T) {
	now := time.Unix(5000, 0)
	bound := now.Add(10 * time.Second)
	var sent []*wire.StoreValue
	var e *Engine
	e = New(Config{
		Self: 1, Addr: "n1", TTL: time.Minute,
		// The one contact answers lookups with no closer nodes, so Publish
		// converges on it and sends it the store.
		Send: func(c Contact, m wire.Msg) error {
			switch m := m.(type) {
			case *wire.StoreValue:
				sent = append(sent, m)
			case *wire.FindNode:
				go e.HandleMessage(&wire.NodesReply{From: c.ID, FromAddr: c.Addr, RPCID: m.RPCID, Key: m.Target})
			}
			return nil
		},
		Now:          func() time.Time { return now },
		SignedExpiry: func(*wire.Metadata) time.Time { return bound },
	})
	cached := func(kw string) int64 {
		t.Helper()
		vals := e.CachedValues(kw)
		if len(vals) != 1 {
			t.Fatalf("%d cached values for %q, want 1", len(vals), kw)
		}
		return vals[0].ExpiresUnixMilli
	}
	e.StoreLocal("local", testMeta(1, 0.5), 0)
	e.HandleMessage(&wire.StoreValue{
		From: 2, FromAddr: "n2", RPCID: 1, Key: KeywordKey("remote"),
		Value: wire.DHTValue{Keyword: "remote", ExpiresUnixMilli: now.Add(time.Hour).UnixMilli(), Meta: testMeta(2, 0.5)},
	})
	e.Observe(2, "n2")
	if _, err := e.Publish(context.Background(), "pub", testMeta(3, 0.5)); err != nil {
		t.Fatal(err)
	}
	for _, kw := range []string{"local", "remote", "pub"} {
		if got := cached(kw); got != bound.UnixMilli() {
			t.Fatalf("%q cached until %d, want the signed bound %d", kw, got, bound.UnixMilli())
		}
	}
	if len(sent) != 1 {
		t.Fatalf("Publish sent %d stores, want 1", len(sent))
	}
	for _, s := range sent {
		if s.Value.ExpiresUnixMilli != bound.UnixMilli() {
			t.Fatalf("published stamp %d, want the signed bound %d", s.Value.ExpiresUnixMilli, bound.UnixMilli())
		}
	}
	// Past the signed expiry nothing is accepted, whatever stamp it carries.
	now = bound.Add(time.Second)
	e.StoreLocal("local2", testMeta(4, 0.5), 0)
	if vals := e.CachedValues("local2"); len(vals) != 0 {
		t.Fatalf("record past its signed expiry was cached: %+v", vals)
	}
}
