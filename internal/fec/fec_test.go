package fec

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"testing"

	"repro/internal/rng"
)

// mkData builds n deterministic non-trivial bytes.
func mkData(n int, seed uint64) []byte {
	r := rng.New(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{Params{DataLen: 1, SymbolSize: 1}, true},
		{Params{DataLen: 4096, SymbolSize: 256}, true},
		{Params{DataLen: 0, SymbolSize: 16}, false},
		{Params{DataLen: -1, SymbolSize: 16}, false},
		{Params{DataLen: 16, SymbolSize: 0}, false},
		{Params{DataLen: 16, SymbolSize: -4}, false},
		{Params{DataLen: (MaxK + 1) * 4, SymbolSize: 4}, false},
		{Params{DataLen: MaxK * 4, SymbolSize: 4}, true},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.p, err, c.ok)
		}
	}
	if k := (Params{DataLen: 100, SymbolSize: 32}).K(); k != 4 {
		t.Errorf("K(100/32) = %d, want 4", k)
	}
	if k := (Params{DataLen: 96, SymbolSize: 32}).K(); k != 3 {
		t.Errorf("K(96/32) = %d, want 3", k)
	}
}

// TestSystematicPrefix: symbol i < K is source symbol i verbatim (the
// last one zero-padded), so a lossless receiver decodes with zero
// overhead.
func TestSystematicPrefix(t *testing.T) {
	data := mkData(1000, 7)
	enc, err := NewEncoder(data, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	k := enc.K()
	for i := 0; i < k; i++ {
		want := make([]byte, 64)
		copy(want, data[i*64:min(len(data), (i+1)*64)])
		if got := enc.Symbol(uint32(i)); !bytes.Equal(got, want) {
			t.Fatalf("systematic symbol %d differs from source slice", i)
		}
	}
	dec, err := NewDecoder(enc.Params())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		done, err := dec.Add(uint32(i), enc.Symbol(uint32(i)))
		if err != nil {
			t.Fatal(err)
		}
		if done != (i == k-1) {
			t.Fatalf("after systematic symbol %d: done=%v", i, done)
		}
	}
	got, ok := dec.Data()
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("systematic-only decode did not round-trip")
	}
}

// TestDeterminism: two encoders over the same (data, symbolSize, seed)
// emit byte-identical streams, and AppendSymbol matches Symbol — the
// property that lets relays forward symbols they never decoded.
func TestDeterminism(t *testing.T) {
	data := mkData(4096, 11)
	a, _ := NewEncoder(data, 128, 99)
	b, _ := NewEncoder(data, 128, 99)
	var buf []byte
	for idx := uint32(0); idx < 200; idx++ {
		sa := a.Symbol(idx)
		buf = b.AppendSymbol(buf[:0], idx)
		if !bytes.Equal(sa, buf) {
			t.Fatalf("symbol %d differs between encoders", idx)
		}
	}
	c, _ := NewEncoder(data, 128, 100)
	same := 0
	for idx := uint32(0); idx < 200; idx++ {
		if bytes.Equal(a.Symbol(idx), c.Symbol(idx)) {
			same++
		}
	}
	// The systematic prefix (K=32 here) is seed-independent by design;
	// coded symbols beyond it must diverge under a different seed.
	if same > a.K()+10 {
		t.Fatalf("different seeds produced %d identical symbols of 200", same)
	}
}

// TestDecodeRandomSubsets is the headline property: decode succeeds
// from a random subset of K+8 symbols drawn from a wide index window,
// across many seeded trials. Rateless codes are probabilistic — a
// subset lands short of rank K with probability about 2^-8 — so the
// assertion is a success rate, made deterministic by fixed trial seeds.
func TestDecodeRandomSubsets(t *testing.T) {
	const (
		trials  = 100
		extra   = 8
		minPass = 95
	)
	for _, k := range []int{16, 32, 64} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			symbolSize := 64
			data := mkData(k*symbolSize-5, uint64(k)) // ragged tail
			enc, err := NewEncoder(data, symbolSize, 0xFEC0+uint64(k))
			if err != nil {
				t.Fatal(err)
			}
			if enc.K() != k {
				t.Fatalf("K=%d, want %d", enc.K(), k)
			}
			window := 8 * k
			need := k + extra
			pass := 0
			for trial := 0; trial < trials; trial++ {
				r := rng.New(uint64(k)*1000 + uint64(trial))
				dec, err := NewDecoder(enc.Params())
				if err != nil {
					t.Fatal(err)
				}
				for _, idx := range r.Perm(window)[:need] {
					if _, err := dec.Add(uint32(idx), enc.Symbol(uint32(idx))); err != nil {
						t.Fatal(err)
					}
				}
				if dec.Done() {
					got, ok := dec.Data()
					if !ok || !bytes.Equal(got, data) {
						t.Fatalf("trial %d: decode completed with wrong data", trial)
					}
					pass++
				}
			}
			if pass < minPass {
				t.Fatalf("decoded %d/%d random %d-symbol subsets, want >= %d",
					pass, trials, need, minPass)
			}
		})
	}
}

// TestBoundedOverhead: streaming symbols in index order, every seed
// finishes within a small constant factor of K — the decoder never
// needs an unbounded tail.
func TestBoundedOverhead(t *testing.T) {
	for _, k := range []int{1, 2, 4, 16, 64, 256} {
		symbolSize := 32
		data := mkData(k*symbolSize, uint64(k)+500)
		for seed := uint64(0); seed < 8; seed++ {
			enc, err := NewEncoder(data, symbolSize, seed)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewDecoder(enc.Params())
			if err != nil {
				t.Fatal(err)
			}
			// In-order streaming hits the systematic prefix first, so a
			// lossless pass is exactly K; allow 3K for adversarial seeds.
			limit := 3 * k
			done := false
			for idx := 0; idx < limit && !done; idx++ {
				done, err = dec.Add(uint32(idx), enc.Symbol(uint32(idx)))
				if err != nil {
					t.Fatal(err)
				}
			}
			if !done {
				t.Fatalf("k=%d seed=%d: not decoded after %d in-order symbols", k, seed, limit)
			}
			if got, ok := dec.Data(); !ok || !bytes.Equal(got, data) {
				t.Fatalf("k=%d seed=%d: round-trip mismatch", k, seed)
			}
		}
	}
}

// TestDecodeOverheadUnderLoss is the group plane's case: symbols
// streamed in index order, each lost with probability 0.3, so the
// receiver holds about 70 % of the systematic prefix when the repair
// symbols start. Every repair symbol is then worth a new equation until
// rank K, whatever K: at K = 64 the median decode takes at most K+2
// received symbols and p90 at most 1.10 K.
func TestDecodeOverheadUnderLoss(t *testing.T) {
	const trials, symbolSize = 1000, 8
	for _, k := range []int{16, 64, 256} {
		data := mkData(k*symbolSize, uint64(k)+900)
		loss := rng.New(0x1055 + uint64(k))
		received := make([]int, trials)
		for trial := range received {
			enc, err := NewEncoder(data, symbolSize, uint64(trial))
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewDecoder(enc.Params())
			if err != nil {
				t.Fatal(err)
			}
			for idx := uint32(0); !dec.Done(); idx++ {
				if int(idx) > 10*k {
					t.Fatalf("k=%d trial %d: not decoded after %d symbols", k, trial, idx)
				}
				if loss.Bool(0.30) {
					continue
				}
				if _, err := dec.Add(idx, enc.Symbol(idx)); err != nil {
					t.Fatal(err)
				}
			}
			if got, _ := dec.Data(); !bytes.Equal(got, data) {
				t.Fatalf("k=%d trial %d: round-trip mismatch", k, trial)
			}
			received[trial] = dec.Received()
		}
		slices.Sort(received)
		q := func(p float64) int { return received[int(p*float64(trials-1))] }
		med, p90, p99 := q(0.5), q(0.9), q(0.99)
		t.Logf("K=%d: received to decode median %d (%.3f K), p90 %d (%.3f K), p99 %d (%.3f K)",
			k, med, float64(med)/float64(k), p90, float64(p90)/float64(k), p99, float64(p99)/float64(k))
		if med > k+2 {
			t.Errorf("K=%d: median %d received symbols to decode, want at most K+2", k, med)
		}
		if k == 64 && float64(p90) > 1.10*float64(k) {
			t.Errorf("K=%d: p90 %d received symbols to decode, want at most 1.10 K", k, p90)
		}
	}
}

// TestFailsClosedBelowK: with fewer than K independent equations the
// decoder reports not-done and returns no data — it never extrapolates.
func TestFailsClosedBelowK(t *testing.T) {
	data := mkData(2048, 3)
	enc, _ := NewEncoder(data, 64, 77)
	k := enc.K()
	dec, _ := NewDecoder(enc.Params())
	for i := 0; i < k-1; i++ {
		done, err := dec.Add(uint32(i), enc.Symbol(uint32(i)))
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatalf("done after %d < K=%d systematic symbols", i+1, k)
		}
	}
	if dec.Done() {
		t.Fatal("Done() true below rank K")
	}
	if got, ok := dec.Data(); ok || got != nil {
		t.Fatal("Data() returned data below rank K")
	}
	if dec.Rank() != k-1 || dec.Received() != k-1 {
		t.Fatalf("rank=%d received=%d, want %d", dec.Rank(), dec.Received(), k-1)
	}
}

// TestDuplicatesAndBadPayload: duplicate indices are no-ops, dependent
// rows don't advance rank, and a wrong-length payload is rejected
// without perturbing the system.
func TestDuplicatesAndBadPayload(t *testing.T) {
	data := mkData(512, 9)
	enc, _ := NewEncoder(data, 64, 5)
	dec, _ := NewDecoder(enc.Params())

	if _, err := dec.Add(0, enc.Symbol(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Add(0, enc.Symbol(0)); err != nil {
		t.Fatal(err)
	}
	if dec.Rank() != 1 || dec.Received() != 1 {
		t.Fatalf("after duplicate add: rank=%d received=%d", dec.Rank(), dec.Received())
	}

	if _, err := dec.Add(1, enc.Symbol(1)[:32]); err == nil {
		t.Fatal("short payload accepted")
	}
	if _, err := dec.Add(1, append(enc.Symbol(1), 0)); err == nil {
		t.Fatal("long payload accepted")
	}
	if dec.Rank() != 1 {
		t.Fatalf("bad payloads changed rank to %d", dec.Rank())
	}

	// Finish the block, then confirm post-done adds are no-ops.
	for i := uint32(1); !dec.Done(); i++ {
		if _, err := dec.Add(i, enc.Symbol(i)); err != nil {
			t.Fatal(err)
		}
	}
	if done, err := dec.Add(1000, enc.Symbol(1000)); err != nil || !done {
		t.Fatalf("post-done add: done=%v err=%v", done, err)
	}
	if got, ok := dec.Data(); !ok || !bytes.Equal(got, data) {
		t.Fatal("round-trip mismatch")
	}
}

// TestResetAfterPoison: a corrupted payload of the right length decodes
// into garbage; Reset restores the empty decoder so a fresh collection
// round-trips — the recovery path when a completed block fails content
// verification upstream.
func TestResetAfterPoison(t *testing.T) {
	data := mkData(1024, 21)
	enc, _ := NewEncoder(data, 64, 13)
	k := enc.K()
	dec, _ := NewDecoder(enc.Params())

	bad := enc.Symbol(0)
	bad[0] ^= 0xFF
	if _, err := dec.Add(0, bad); err != nil {
		t.Fatal(err)
	}
	for i := uint32(1); !dec.Done(); i++ {
		if _, err := dec.Add(i, enc.Symbol(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := dec.Data(); !ok || bytes.Equal(got, data) {
		t.Fatal("poisoned decode should complete with wrong data")
	}

	dec.Reset()
	if dec.Done() || dec.Rank() != 0 || dec.Received() != 0 {
		t.Fatal("Reset left state behind")
	}
	for i := 0; i < k; i++ {
		if _, err := dec.Add(uint32(i), enc.Symbol(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := dec.Data(); !ok || !bytes.Equal(got, data) {
		t.Fatal("post-Reset decode mismatch")
	}
}

// TestDegreeDistribution checks the repair rows over the coded
// (non-systematic) index range: every row is non-empty, names distinct
// source symbols inside [0, K), and holds each with probability ½ — a
// mean degree of K/2. K = 100 leaves the last 64-coin draw part unused.
func TestDegreeDistribution(t *testing.T) {
	const samples = 20000
	for _, k := range []int{64, 100} {
		coef := make([]uint64, (k+63)/64)
		total := 0
		for idx := uint32(k); idx < uint32(k+samples); idx++ {
			row(coef, k, 0xD15C0, idx)
			seen := make(map[int]bool)
			for i, w := range coef {
				for ; w != 0; w &= w - 1 {
					n := i*64 + bits.TrailingZeros64(w)
					if n >= k {
						t.Fatalf("K=%d: symbol %d names source %d", k, idx, n)
					}
					if seen[n] {
						t.Fatalf("K=%d: symbol %d repeats source %d", k, idx, n)
					}
					seen[n] = true
				}
			}
			if len(seen) == 0 {
				t.Fatalf("K=%d: symbol %d has an empty row", k, idx)
			}
			total += len(seen)
		}
		mean := float64(total) / samples
		if half := float64(k) / 2; mean < 0.9*half || mean > 1.1*half {
			t.Fatalf("K=%d: mean degree %.2f, want K/2 = %.0f within 10 %%", k, mean, half)
		}
	}
	// The tiny-K rule: an empty draw stands for one uniform source, so a
	// K = 1 block's repair symbols are all the one source symbol.
	one := make([]uint64, 1)
	for idx := uint32(1); idx < 100; idx++ {
		if row(one, 1, 7, idx); one[0] != 1 {
			t.Fatalf("K = 1 repair symbol %d has row %b", idx, one[0])
		}
	}
}

// TestConcurrentRoundTrips exercises independent encoder/decoder pairs
// in parallel so `go test -race` sees the per-instance state under
// concurrency.
func TestConcurrentRoundTrips(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			data := mkData(3000+g*17, uint64(g))
			enc, err := NewEncoder(data, 100, uint64(g)*31)
			if err != nil {
				t.Error(err)
				return
			}
			dec, err := NewDecoder(enc.Params())
			if err != nil {
				t.Error(err)
				return
			}
			r := rng.New(uint64(g) + 1)
			done := false
			for !done {
				idx := uint32(r.Intn(16 * enc.K()))
				done, err = dec.Add(idx, enc.Symbol(idx))
				if err != nil {
					t.Error(err)
					return
				}
			}
			if got, ok := dec.Data(); !ok || !bytes.Equal(got, data) {
				t.Errorf("goroutine %d: round-trip mismatch", g)
			}
		}(g)
	}
	wg.Wait()
}

// FuzzFECRoundTrip: whatever the data, symbol size, seed and loss
// pattern, decoding the encoder's surviving symbols — the systematic
// prefix and K+8 repair symbols, symbol i lost when bit i mod 64 of the
// pattern is set — either round-trips byte-exact or stays not-Done with
// no data, and never panics.
func FuzzFECRoundTrip(f *testing.F) {
	f.Add([]byte("hello, fountain"), uint8(4), uint64(1), uint64(0))
	f.Add(mkData(1000, 1), uint8(64), uint64(0xFEC), uint64(0x5555555555555555))
	f.Add(mkData(300, 2), uint8(7), uint64(0), uint64(0xFFFFFFFF))
	f.Add([]byte{0}, uint8(1), uint64(3), ^uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, size uint8, seed, lost uint64) {
		data = data[:min(len(data), 1024)] // K ≤ 1024, a production piece
		enc, err := NewEncoder(data, int(size), seed)
		if err != nil {
			if len(data) > 0 && size > 0 {
				t.Fatalf("NewEncoder(%d bytes, size %d): %v", len(data), size, err)
			}
			return
		}
		dec, err := NewDecoder(enc.Params())
		if err != nil {
			t.Fatal(err)
		}
		k, added := enc.K(), 0
		for idx := uint32(0); int(idx) < 2*k+8; idx++ {
			if lost&(1<<(idx%64)) != 0 {
				continue
			}
			if _, err := dec.Add(idx, enc.Symbol(idx)); err != nil {
				t.Fatal(err)
			}
			added++
		}
		got, ok := dec.Data()
		switch {
		case ok != dec.Done():
			t.Fatalf("Data ok=%v but Done=%v", ok, dec.Done())
		case ok && !bytes.Equal(got, data):
			t.Fatal("decode completed with wrong data")
		case !ok && got != nil:
			t.Fatal("Data returned bytes below rank K")
		case !ok && dec.Received() != added:
			t.Fatalf("received %d of %d added symbols", dec.Received(), added)
		}
	})
}

// BenchmarkFECEncode measures steady-state coded-symbol emission for a
// protocol-shaped block (64 KB piece, 1 KB symbols ⇒ K=64).
func BenchmarkFECEncode(b *testing.B) { benchEncode(b, 64<<10, 1024) }

// BenchmarkFECEncodeLargePiece is the same at a 256 KB piece in the
// group plane's 256-byte symbols (K=1024).
func BenchmarkFECEncodeLargePiece(b *testing.B) { benchEncode(b, 256<<10, 256) }

func benchEncode(b *testing.B, dataLen, symbolSize int) {
	data := mkData(dataLen, 1)
	enc, err := NewEncoder(data, symbolSize, 7)
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.SetBytes(int64(symbolSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Skip the systematic prefix: coded emission is the steady state.
		buf = enc.AppendSymbol(buf[:0], uint32(enc.K()+i%(8*enc.K())))
	}
}

// BenchmarkFECDecode measures full-block recovery from a lossy stream:
// every third symbol dropped, so decode spans systematic and coded
// symbols and ends in back-substitution (64 KB piece, K=64).
func BenchmarkFECDecode(b *testing.B) { benchDecode(b, 64<<10, 1024) }

// BenchmarkFECDecodeLargePiece is the same at a 256 KB piece in
// 256-byte symbols (K=1024).
func BenchmarkFECDecodeLargePiece(b *testing.B) { benchDecode(b, 256<<10, 256) }

func benchDecode(b *testing.B, dataLen, symbolSize int) {
	data := mkData(dataLen, 2)
	enc, err := NewEncoder(data, symbolSize, 9)
	if err != nil {
		b.Fatal(err)
	}
	var idxs []uint32
	var syms [][]byte
	for idx := uint32(0); len(syms) < 2*enc.K(); idx++ {
		if idx%3 != 2 {
			idxs = append(idxs, idx)
			syms = append(syms, enc.Symbol(idx))
		}
	}
	b.SetBytes(int64(dataLen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := NewDecoder(enc.Params())
		if err != nil {
			b.Fatal(err)
		}
		done := false
		for j := 0; j < len(syms) && !done; j++ {
			done, err = dec.Add(idxs[j], syms[j])
			if err != nil {
				b.Fatal(err)
			}
		}
		if !done {
			b.Fatal("stream did not decode")
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
