package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/metadata"
	"repro/internal/trace"
)

// file builds one member's entry for a file of total pieces, holding the
// listed indices.
func file(uri metadata.URI, total int, wanted, proxy bool, have ...int) File {
	set := make(map[int]bool, len(have))
	for _, i := range have {
		set[i] = true
	}
	return File{URI: uri, Total: total, Wanted: wanted, Proxy: proxy,
		Have: func(i int) bool { return set[i] }}
}

func member(id trace.NodeID, files ...File) Member {
	return Member{ID: id, MaySend: true, Files: files}
}

// popularity looks a file up in pops; unknown files have popularity 0.
func popularity(pops map[metadata.URI]float64) func(metadata.URI) float64 {
	return func(uri metadata.URI) float64 { return pops[uri] }
}

// sent renders the schedule as "sender:uri#piece" strings.
func sent(cands []*Candidate) []string {
	var out []string
	for _, c := range cands {
		out = append(out, fmt.Sprintf("%d:%s#%d", c.Sender, c.URI, c.Piece))
	}
	return out
}

// TestOrder is the table of ordering cases — the rule's phases and
// tie-breaks, once, for records (one-piece files) and pieces alike.
func TestOrder(t *testing.T) {
	const a, b, c = metadata.URI("a"), metadata.URI("b"), metadata.URI("c")
	all := func(uri metadata.URI, n int) File {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return file(uri, n, false, false, idx...)
	}
	credit := func(by map[trace.NodeID]float64) func([]trace.NodeID) float64 {
		return func(ids []trace.NodeID) float64 {
			sum := 0.0
			for _, id := range ids {
				sum += by[id]
			}
			return sum
		}
	}
	tests := []struct {
		name    string
		members []Member
		pops    map[metadata.URI]float64
		weight  func([]trace.NodeID) float64
		want    []string
	}{
		{
			name: "requested before unrequested despite popularity",
			members: []Member{
				member(1, all(a, 1), all(b, 1)),
				member(2, file(a, 1, true, false), file(b, 1, false, false)),
			},
			pops: map[metadata.URI]float64{a: 0.1, b: 0.9},
			want: []string{"1:a#0", "1:b#0"},
		},
		{
			name: "more requesters first",
			members: []Member{
				member(1, all(a, 1), all(b, 1)),
				member(2, file(a, 1, true, false), file(b, 1, true, false)),
				member(3, file(a, 1, false, false), file(b, 1, true, false)),
			},
			pops: map[metadata.URI]float64{a: 0.9, b: 0.1},
			want: []string{"1:b#0", "1:a#0"},
		},
		{
			name: "equal demand: popularity breaks the tie",
			members: []Member{
				member(1, all(a, 1), all(b, 1)),
				member(2, file(a, 1, true, false), file(b, 1, true, false)),
			},
			pops: map[metadata.URI]float64{a: 0.2, b: 0.8},
			want: []string{"1:b#0", "1:a#0"},
		},
		{
			name: "push phase: unrequested by popularity",
			members: []Member{
				member(1, all(a, 1), all(b, 1), all(c, 1)),
				member(2, file(a, 1, false, false), file(b, 1, false, false), file(c, 1, false, false)),
			},
			pops: map[metadata.URI]float64{a: 0.2, b: 0.9, c: 0.5},
			want: []string{"1:b#0", "1:c#0", "1:a#0"},
		},
		{
			name: "own demand outranks proxy demand, however much of it",
			members: []Member{
				member(1, all(a, 1), all(b, 1)),
				member(2, file(a, 1, true, false), file(b, 1, false, true)),
				member(3, file(a, 1, false, false), file(b, 1, false, true)),
			},
			pops: map[metadata.URI]float64{a: 0.1, b: 0.9},
			want: []string{"1:a#0", "1:b#0"},
		},
		{
			name: "proxy demand outranks none",
			members: []Member{
				member(1, all(a, 1), all(b, 1)),
				member(2, file(a, 1, false, false), file(b, 1, false, true)),
			},
			pops: map[metadata.URI]float64{a: 0.9, b: 0.1},
			want: []string{"1:b#0", "1:a#0"},
		},
		{
			name: "full ties fall to URI then piece",
			members: []Member{
				member(1, all(b, 2), all(a, 2)),
				member(2, file(b, 2, true, false), file(a, 2, true, false)),
			},
			pops: map[metadata.URI]float64{a: 0.5, b: 0.5},
			want: []string{"1:a#0", "1:a#1", "1:b#0", "1:b#1"},
		},
		{
			name: "held everywhere or nowhere is not transferable",
			members: []Member{
				member(1, file(a, 3, false, false, 0, 1)),
				member(2, file(a, 3, true, false, 0)),
			},
			want: []string{"1:a#1"},
		},
		{
			name: "a member that does not list a file is no lacker of it",
			members: []Member{
				member(1, all(a, 1), all(b, 1)),
				member(2, file(a, 1, false, false)),
			},
			want: []string{"1:a#0"},
		},
		{
			name: "lowest-ID holder sends",
			members: []Member{
				member(7, all(a, 1)),
				member(3, all(a, 1)),
				member(5, file(a, 1, true, false)),
			},
			want: []string{"3:a#0"},
		},
		{
			name: "a may-not-send member is never the sender",
			members: []Member{
				{ID: 1, MaySend: false, Files: []File{all(a, 1), all(b, 1)}},
				member(2, all(a, 1), file(b, 1, true, false)),
				member(3, file(a, 1, true, false), file(b, 1, true, false)),
			},
			want: []string{"-1:b#0", "2:a#0"},
		},
		{
			name: "tit-for-tat: credit weight replaces the count",
			members: []Member{
				member(1, all(a, 1), all(b, 1)),
				member(2, file(a, 1, true, false), file(b, 1, false, false)),
				member(3, file(a, 1, true, false), file(b, 1, false, false)),
				member(4, file(a, 1, false, false), file(b, 1, true, false)),
			},
			pops:   map[metadata.URI]float64{a: 0.9, b: 0.1},
			weight: credit(map[trace.NodeID]float64{4: 10}), // two zero-credit requesters < one proven contributor
			want:   []string{"1:b#0", "1:a#0"},
		},
		{
			name: "tit-for-tat: zero-credit requests weigh nothing, popularity decides",
			members: []Member{
				member(1, all(a, 1), all(b, 1)),
				member(2, file(a, 1, true, false), file(b, 1, false, false)),
			},
			pops:   map[metadata.URI]float64{a: 0.1, b: 0.9},
			weight: credit(nil),
			want:   []string{"1:b#0", "1:a#0"},
		},
		{
			name: "tit-for-tat: proxy requesters' credit counts like own",
			members: []Member{
				member(1, all(a, 1), all(b, 1)),
				member(2, file(a, 1, true, false), file(b, 1, false, false)),
				member(3, file(a, 1, false, false), file(b, 1, false, true)),
			},
			pops:   map[metadata.URI]float64{a: 0.5, b: 0.5},
			weight: credit(map[trace.NodeID]float64{2: 1, 3: 5}),
			want:   []string{"1:b#0", "1:a#0"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := sent(Candidates(tt.members, popularity(tt.pops), tt.weight))
			if !reflect.DeepEqual(got, tt.want) {
				t.Fatalf("schedule %v, want %v", got, tt.want)
			}
		})
	}
}

// randomClique draws a clique state: a few files, each member listing a
// random subset with random holdings and demand.
func randomClique(r *rand.Rand) ([]Member, map[metadata.URI]float64) {
	nFiles, nMembers := 1+r.Intn(4), 2+r.Intn(5)
	pops := make(map[metadata.URI]float64)
	totals := make(map[metadata.URI]int)
	var uris []metadata.URI
	for f := 0; f < nFiles; f++ {
		uri := metadata.URI(fmt.Sprintf("f%d", f))
		uris = append(uris, uri)
		pops[uri] = float64(r.Intn(3)) / 2 // few distinct values: ties are common
		totals[uri] = 1 + r.Intn(4)
	}
	members := make([]Member, nMembers)
	for m := range members {
		members[m] = Member{ID: trace.NodeID(10 + m), MaySend: r.Intn(4) > 0}
		for _, uri := range uris {
			if r.Intn(4) == 0 {
				continue
			}
			var have []int
			for i := 0; i < totals[uri]; i++ {
				if r.Intn(2) == 0 {
					have = append(have, i)
				}
			}
			wanted := r.Intn(2) == 0
			members[m].Files = append(members[m].Files,
				file(uri, totals[uri], wanted, !wanted && r.Intn(3) == 0, have...))
		}
	}
	return members, pops
}

// TestProperties checks the rule's invariants over random cliques.
func TestProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		members, pops := randomClique(r)
		byID := make(map[trace.NodeID]Member)
		for _, m := range members {
			byID[m.ID] = m
		}
		cands := Candidates(members, popularity(pops), nil)

		// Invariant under member permutation, and under repetition.
		shuffled := append([]Member(nil), members...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if again := Candidates(shuffled, popularity(pops), nil); !reflect.DeepEqual(cands, again) {
			t.Fatalf("trial %d: schedule depends on member order:\n%v\n%v", trial, sent(cands), sent(again))
		}

		seen := make(map[string]bool)
		for i, c := range cands {
			key := fmt.Sprintf("%s#%d", c.URI, c.Piece)
			if seen[key] {
				t.Fatalf("trial %d: %s scheduled twice", trial, key)
			}
			seen[key] = true
			if len(c.Holders) == 0 || len(c.Lackers) == 0 {
				t.Fatalf("trial %d: %s is not transferable: %+v", trial, key, c)
			}
			// The sender is the lowest-ID holder that may send.
			want := NoSender
			for _, h := range c.Holders {
				if byID[h].MaySend {
					want = h
					break
				}
			}
			if c.Sender != want {
				t.Fatalf("trial %d: %s sender %d, want %d of holders %v", trial, key, c.Sender, want, c.Holders)
			}
			if c.Sender != NoSender && !c.HeldBy(c.Sender) {
				t.Fatalf("trial %d: %s sender %d does not hold it", trial, key, c.Sender)
			}
			if c.Own > int(c.Demand) {
				t.Fatalf("trial %d: %s own demand %d exceeds total %v", trial, key, c.Own, c.Demand)
			}
			if i == 0 {
				continue
			}
			// Strict total order: each candidate sorts after its
			// predecessor and never the other way round.
			prev := cands[i-1]
			if !prev.Rank.Before(c.Rank) || c.Rank.Before(prev.Rank) {
				t.Fatalf("trial %d: %s and %s out of order", trial, sent(cands[i-1:i]), sent(cands[i:i+1]))
			}
			// Requested before unrequested.
			if prev.Demand == 0 && c.Demand > 0 {
				t.Fatalf("trial %d: unrequested %v before requested %v", trial, prev.Rank, c.Rank)
			}
		}
	}
}

// TestBeforeIsDeterministicOnTies: two ranks equal in every demand and
// popularity field still order, by URI then piece, and never both ways.
func TestBeforeIsDeterministicOnTies(t *testing.T) {
	x := Rank{Own: 1, Demand: 2, Popularity: 0.5, URI: "a", Piece: 3}
	y := x
	if x.Before(y) || y.Before(x) {
		t.Fatal("a rank sorts before itself")
	}
	y.Piece = 4
	if !x.Before(y) || y.Before(x) {
		t.Fatal("piece index does not break the tie")
	}
	y.URI, y.Piece = "b", 0
	if !x.Before(y) || y.Before(x) {
		t.Fatal("URI does not outrank piece index")
	}
}
