// Command gencorpus seeds the WAL replay fuzz corpus the way the wire
// decoder's gencorpus does: a canonical multi-record log covering every
// record kind is mutated with the fault injector's frame corrupter
// under fixed seeds, plus the structural cases a crash actually leaves
// — torn tails at every frame boundary, a mid-frame cut, duplicated
// frames (the snapshot/WAL overlap window), a bit-flipped CRC, and a
// group-commit batch torn inside one of its frames.
// Regenerate with:
//
//	go run ./internal/store/gencorpus -out internal/store/testdata/fuzz/FuzzWALReplay
//
// The output is deterministic; rerunning overwrites the same files.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/store"
)

// frames returns each record's framed encoding, in log order.
func frames() [][]byte {
	m := metadata.NewSynthetic(1, "f0", "pub", "seed file", 300*1024,
		metadata.DefaultPieceSize, simtime.At(0, simtime.FileGenerationOffset),
		simtime.Days(3), []byte("k"))
	recs := []store.Record{
		&store.MetadataRecord{Popularity: 0.7, Meta: *m, Selected: true},
		&store.PieceRecord{URI: m.URI, Index: 0, Total: 3},
		&store.CreditRecord{Peer: 4, Delta: 5},
		&store.PieceRecord{URI: m.URI, Index: 2, Total: 3},
		&store.QuarantineRecord{Peer: 9, Strikes: 2, UntilUnixMilli: 1_700_000_000_000},
	}
	out := make([][]byte, len(recs))
	for i, rec := range recs {
		out[i] = store.EncodeFrame(uint64(i+1), rec)
	}
	return out
}

func main() {
	out := flag.String("out", "internal/store/testdata/fuzz/FuzzWALReplay",
		"corpus directory to write")
	seeds := flag.Int("seeds", 4, "corrupted whole-log variants")
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	fs := frames()
	var whole []byte
	for _, f := range fs {
		whole = append(whole, f...)
	}

	inputs := map[string][]byte{"whole-log": whole}
	// Torn tails: cut at every frame boundary and mid-way through the
	// frame that follows it — what a crash mid-append leaves behind.
	off := 0
	for i, f := range fs {
		inputs[fmt.Sprintf("torn-at-frame-%d", i)] = whole[:off]
		inputs[fmt.Sprintf("torn-mid-frame-%d", i)] = whole[:off+len(f)/2]
		off += len(f)
	}
	// A group commit torn mid-frame: behind the synced log, a batch of
	// two piece+credit pairs whose single write died inside its third
	// frame. Replay keeps the batch's first pair and drops the rest.
	uri := metadata.URIFor(1)
	batch := []store.Record{
		&store.PieceRecord{URI: uri, Index: 1, Total: 3},
		&store.CreditRecord{Peer: 4, Delta: 5},
		&store.PieceRecord{URI: uri, Index: 2, Total: 3},
		&store.CreditRecord{Peer: 4, Delta: 5},
	}
	torn := append([]byte{}, whole...)
	for i, rec := range batch {
		f := store.EncodeFrame(uint64(len(fs)+i+1), rec)
		if i == 2 {
			torn = append(torn, f[:len(f)/2]...)
			break
		}
		torn = append(torn, f...)
	}
	inputs["torn-batch-mid-frame"] = torn
	// Duplicated frames: the snapshot/WAL overlap window replays records
	// the snapshot already folded in.
	inputs["duplicated-log"] = append(append([]byte{}, whole...), whole...)
	inputs["repeated-frame"] = append(append([]byte{}, fs[1]...), fs[1]...)
	// Injector corruption: the same seeded mutations the chaos transport
	// applies to wire frames, pinned as replay regression inputs.
	for s := 0; s < *seeds; s++ {
		r := rng.New(uint64(0xBAD5EED + s))
		inputs[fmt.Sprintf("injector-corrupt-%d", s)] = fault.CorruptFrame(r, append([]byte{}, whole...))
	}

	n := 0
	for name, data := range inputs {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(*out, name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
		n++
	}
	fmt.Printf("wrote %d corpus files to %s\n", n, *out)
}
