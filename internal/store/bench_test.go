package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metadata"
)

// benchRecord returns the i-th record of the synthetic append stream:
// pieces across a handful of files with the occasional credit delta,
// roughly the mix a downloading daemon logs.
func benchRecord(i int) Record {
	if i%8 == 7 {
		return &CreditRecord{Peer: 4, Delta: 5}
	}
	return &PieceRecord{
		URI:   metadata.URI(fmt.Sprintf("dtn://files/%d", i%16)),
		Index: (i / 16) % 64,
		Total: 64,
	}
}

// BenchmarkWALAppend measures the durability hot path: framed,
// checksummed records appended and acknowledged. The fsync variants are
// the real contract (the append returns only after its records are
// durable) at group-commit sizes of 1, 8 and 64 records per fsync;
// nosync isolates the framing + write cost from the disk flush. Every
// variant reports ns and bytes per *record*, so the batch sizes compare
// directly.
func BenchmarkWALAppend(b *testing.B) {
	for _, mode := range []struct {
		name   string
		noSync bool
		batch  int
	}{
		{"fsync/batch-1", false, 1},
		{"fsync/batch-8", false, 8},
		{"fsync/batch-64", false, 64},
		{"nosync", true, 1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := Open(Options{Dir: b.TempDir(), NoSync: mode.noSync, CompactEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.SetBytes(int64(len(EncodeFrame(1, benchRecord(0)))))
			recs := make([]Record, 0, mode.batch)
			b.ResetTimer()
			for i := 0; i < b.N; {
				recs = recs[:0]
				for ; len(recs) < mode.batch && i < b.N; i++ {
					recs = append(recs, benchRecord(i))
				}
				if err := s.AppendBatch(recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplay measures recovery: Open reads the whole log, walks
// every frame (CRC + decode), and folds each record into the state.
func BenchmarkReplay(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("records-%d", n), func(b *testing.B) {
			dir := b.TempDir()
			var log []byte
			for i := 0; i < n; i++ {
				log = append(log, EncodeFrame(uint64(i+1), benchRecord(i))...)
			}
			if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(log)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := Open(Options{Dir: dir, CompactEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				if got := s.Stats().Recovery.WALRecords; got != n {
					b.Fatalf("replayed %d records, want %d", got, n)
				}
				// Close the log handle without compacting so the next
				// iteration replays the same file.
				s.w.close()
			}
		})
	}
}
