package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metadata"
	"repro/internal/simtime"
)

// fuzzSeedWAL builds a canonical multi-record WAL stream covering every
// record kind — the same shape gencorpus mutates into the seed corpus.
func fuzzSeedWAL() []byte {
	m := metadata.NewSynthetic(1, "f0", "pub", "seed file", 300*1024,
		metadata.DefaultPieceSize, simtime.At(0, simtime.FileGenerationOffset),
		simtime.Days(3), []byte("k"))
	recs := []Record{
		&MetadataRecord{Popularity: 0.7, Meta: *m, Selected: true},
		&PieceRecord{URI: m.URI, Index: 0, Total: 3},
		&CreditRecord{Peer: 4, Delta: 5},
		&PieceRecord{URI: m.URI, Index: 2, Total: 3},
		&QuarantineRecord{Peer: 9, Strikes: 2, UntilUnixMilli: 1_700_000_000_000},
	}
	var out []byte
	for i, rec := range recs {
		out = append(out, EncodeFrame(uint64(i+1), rec)...)
	}
	return out
}

// FuzzWALReplay feeds arbitrary bytes to the WAL replay path — the
// frame walker, the record decoder, and a full store Open against the
// bytes as a log file. Replay must never panic and must always recover
// a valid prefix: the walker's cut point is stable under re-parse,
// re-encoding the recovered entries reproduces the prefix bytes, and a
// store opened on the input truncates the tail, accepts a new append,
// and reopens clean.
func FuzzWALReplay(f *testing.F) {
	seed := fuzzSeedWAL()
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:len(seed)/2])                         // torn mid-frame
	f.Add(append(seed[:0:0], seed[3:]...))            // misaligned start
	dup := append(append([]byte{}, seed...), seed...) // duplicated records
	f.Add(dup)
	flip := append([]byte{}, seed...)
	flip[len(flip)/3] ^= 0x40 // bit-flipped body
	f.Add(flip)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // impossible length

	f.Fuzz(func(t *testing.T, b []byte) {
		entries, validLen := parseFrames(b)
		if validLen < 0 || validLen > int64(len(b)) {
			t.Fatalf("valid prefix %d outside [0,%d]", validLen, len(b))
		}
		// The cut point is a fixpoint: the prefix alone re-parses whole.
		entries2, vl2 := parseFrames(b[:validLen])
		if vl2 != validLen || len(entries2) != len(entries) {
			t.Fatalf("re-parse of valid prefix moved: %d/%d entries, %d/%d bytes",
				len(entries2), len(entries), vl2, validLen)
		}
		// The recovered entries are exactly the prefix's content.
		var re []byte
		for _, e := range entries {
			re = append(re, EncodeFrame(e.seq, e.rec)...)
		}
		if !bytes.Equal(re, b[:validLen]) {
			t.Fatalf("re-encoded entries differ from recovered prefix")
		}
		// Applying a recovered prefix never panics.
		st := NewState()
		for _, e := range entries {
			st.Apply(e.rec)
		}

		// Full-store recovery on the same bytes: open, append, reopen.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir, CompactEvery: -1})
		if err != nil {
			t.Fatalf("Open on fuzzed wal: %v", err)
		}
		rs := s.Stats().Recovery
		if rs.WALSizeAtOpen != validLen || rs.TornBytes != int64(len(b))-validLen {
			t.Fatalf("recovery stats %+v, walker says valid=%d torn=%d",
				rs, validLen, int64(len(b))-validLen)
		}
		if err := s.Append(&PieceRecord{URI: "dtn://files/9", Index: 0, Total: 1}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		s2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if rs2 := s2.Stats().Recovery; rs2.TornBytes != 0 {
			t.Fatalf("second open still sees a torn tail: %+v", rs2)
		}
		if f := s2.State().Files["dtn://files/9"]; f == nil || f.HaveCount() != 1 {
			t.Fatalf("post-recovery append lost across reopen")
		}
		s2.Close()
	})
}
