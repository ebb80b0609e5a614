// Package fec implements a systematic rateless erasure code — the
// stdlib-only stand-in for the RaptorQ (RFC 6330) codes coopcast-style
// symbol broadcast builds on. A piece of data is sliced into K
// fixed-size source symbols, and the encoder emits an unbounded stream
// of coded symbols: first the K source symbols verbatim, then repair
// symbols, each the XOR of a random half of the source symbols. A
// receiver recovers the piece from *any* subset of coded symbols whose
// equations span the K sources — about K+1 of them, whichever they
// are — which is what makes the code the right data plane for a lossy
// broadcast medium: the sender never needs to know which symbols were
// lost, and every received symbol helps every receiver.
//
// Determinism is load-bearing: a coded symbol is fully described by
// (block seed, symbol index). Both sides derive the symbol's GF(2) row
// from a PRNG seeded by that pair, so the wire carries only the index
// and payload, relays can forward symbols they never decoded, and a
// replayed test run sees byte-identical streams.
//
// A repair row is dense: each source symbol is in it with probability
// ½. A random dense row is dependent on an r-dimensional span with
// probability 2^-(K-r), so whatever mix of source and repair symbols
// arrives, the received rows reach rank K about one symbol past K. The
// decoder is a Gaussian eliminator over GF(2) with one uint64-bitset row
// per pivot: decode succeeds exactly when the received equations reach
// rank K, and fails closed below it.
package fec

import (
	"crypto/subtle"
	"fmt"
	"math/bits"

	"repro/internal/rng"
)

// MaxK bounds the source-symbol count per block: one piece at the
// protocol's 256 KB piece size and a 256-byte symbol is 1024 symbols.
// Elimination is cubic in K — each received row meets about K/2 pivots
// — so on one core of a 2-vCPU Xeon a block decodes in ≈ 9 ms at
// K = 1024 (256 KB in 256 B symbols), ≈ 0.3 s at 4096 (256 KB in 64 B)
// and ≈ 17 s at MaxK (64 KB in 4 B).
const MaxK = 1 << 14

// Params names one coded block's symbol stream. Two endpoints holding
// equal Params derive identical rows, so Params plus a symbol index is
// a complete description of a symbol.
type Params struct {
	// DataLen is the original block length in bytes.
	DataLen int
	// SymbolSize is the payload bytes per symbol; the last source
	// symbol is zero-padded up to it.
	SymbolSize int
	// Seed names the stream: symbol i's row is drawn from a PRNG keyed
	// by (Seed, i).
	Seed uint64
}

// Validate reports whether the parameters describe a usable block.
func (p Params) Validate() error {
	if p.DataLen <= 0 {
		return fmt.Errorf("fec: data length %d", p.DataLen)
	}
	if p.SymbolSize <= 0 {
		return fmt.Errorf("fec: symbol size %d", p.SymbolSize)
	}
	if k := p.K(); k > MaxK {
		return fmt.Errorf("fec: %d source symbols exceeds max %d", k, MaxK)
	}
	return nil
}

// K is the source-symbol count: ⌈DataLen/SymbolSize⌉.
func (p Params) K() int {
	if p.SymbolSize <= 0 {
		return 0
	}
	return (p.DataLen + p.SymbolSize - 1) / p.SymbolSize
}

// row writes coded symbol idx's GF(2) row over the k source symbols into
// coef. The stream is systematic first — symbol i < k is source symbol i
// verbatim, so an unlossy receiver decodes with zero overhead — then
// dense: one coin per source symbol, 64 to a draw from the (seed,
// idx)-keyed stream. A draw that comes out empty, which matters only at
// tiny k, stands for one uniform source instead.
func row(coef []uint64, k int, seed uint64, idx uint32) {
	clear(coef)
	if int(idx) < k {
		coef[idx/64] = 1 << (idx % 64)
		return
	}
	// Mixing the index through a SplitMix64-style odd multiplier
	// decorrelates adjacent indices before the generator's own seeding
	// expands the state.
	r := rng.New(seed ^ (uint64(idx)+1)*0x9E3779B97F4A7C15)
	var set uint64
	for i := range coef {
		coef[i] = r.Uint64()
		if i == len(coef)-1 && k%64 != 0 {
			coef[i] &= 1<<(k%64) - 1
		}
		set |= coef[i]
	}
	if set == 0 {
		n := r.Intn(k)
		coef[n/64] = 1 << (n % 64)
	}
}

// Encoder emits the coded symbol stream for one block. Construct with
// NewEncoder; Symbol may be called with any index, in any order, from
// one goroutine at a time.
type Encoder struct {
	p    Params
	k    int
	src  []byte   // K·SymbolSize bytes, zero-padded copy of the data
	coef []uint64 // the row of the symbol being built
}

// NewEncoder slices data into ⌈len(data)/symbolSize⌉ source symbols
// under the given stream seed.
func NewEncoder(data []byte, symbolSize int, seed uint64) (*Encoder, error) {
	p := Params{DataLen: len(data), SymbolSize: symbolSize, Seed: seed}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := p.K()
	src := make([]byte, k*symbolSize)
	copy(src, data)
	return &Encoder{p: p, k: k, src: src, coef: make([]uint64, (k+63)/64)}, nil
}

// Params returns the block's stream identity.
func (e *Encoder) Params() Params { return e.p }

// K is the source-symbol count.
func (e *Encoder) K() int { return e.k }

// Symbol materializes coded symbol idx: the XOR of its derived source
// set. The returned slice is freshly allocated.
func (e *Encoder) Symbol(idx uint32) []byte {
	return e.AppendSymbol(nil, idx)
}

// AppendSymbol appends coded symbol idx to dst and returns the
// extended slice, so a steady-state sender can reuse one buffer.
func (e *Encoder) AppendSymbol(dst []byte, idx uint32) []byte {
	size := e.p.SymbolSize
	at := len(dst)
	dst = append(dst, make([]byte, size)...)
	out := dst[at:]
	row(e.coef, e.k, e.p.Seed, idx)
	for i, w := range e.coef {
		for ; w != 0; w &= w - 1 {
			n := i*64 + bits.TrailingZeros64(w)
			subtle.XORBytes(out, out, e.src[n*size:(n+1)*size])
		}
	}
	return dst
}

// geRow is one reduced equation: a GF(2) coefficient bitset over the
// source symbols and the XOR of the corresponding payloads.
type geRow struct {
	coef []uint64
	data []byte
}

// Decoder reconstructs one block from any spanning subset of its
// coded symbols. Construct with NewDecoder; not safe for concurrent
// use.
type Decoder struct {
	p     Params
	k     int
	words int
	// rows[c] is the pivot row whose lowest set coefficient is c.
	rows   []*geRow
	rank   int
	seen   map[uint32]bool
	solved []byte // assembled data once rank == k
}

// NewDecoder prepares an empty decoder for the block p describes.
func NewDecoder(p Params) (*Decoder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := p.K()
	return &Decoder{
		p:     p,
		k:     k,
		words: (k + 63) / 64,
		rows:  make([]*geRow, k),
		seen:  make(map[uint32]bool),
	}, nil
}

// Params returns the block's stream identity.
func (d *Decoder) Params() Params { return d.p }

// K is the source-symbol count.
func (d *Decoder) K() int { return d.k }

// Received counts distinct symbol indices absorbed so far.
func (d *Decoder) Received() int { return len(d.seen) }

// Rank is the number of independent equations held; decode completes
// at Rank == K.
func (d *Decoder) Rank() int { return d.rank }

// Done reports whether the block is fully decodable.
func (d *Decoder) Done() bool { return d.rank == d.k }

// Add absorbs coded symbol idx and reports whether the block is now
// decodable. Duplicate indices and linearly dependent symbols are
// absorbed as no-ops; a payload of the wrong length is an error.
func (d *Decoder) Add(idx uint32, payload []byte) (bool, error) {
	if len(payload) != d.p.SymbolSize {
		return d.Done(), fmt.Errorf("fec: symbol %d payload %d bytes, want %d",
			idx, len(payload), d.p.SymbolSize)
	}
	if d.Done() || d.seen[idx] {
		return d.Done(), nil
	}
	d.seen[idx] = true

	r := &geRow{coef: make([]uint64, d.words), data: append([]byte(nil), payload...)}
	row(r.coef, d.k, d.p.Seed, idx)
	// Reduce against the pivots until the row dies or claims a new one.
	for {
		c, ok := lowestBit(r.coef)
		if !ok {
			return false, nil // linearly dependent: nothing new
		}
		if d.rows[c] == nil {
			d.rows[c] = r
			d.rank++
			if d.rank == d.k {
				d.solve()
			}
			return d.Done(), nil
		}
		xorWords(r.coef, d.rows[c].coef)
		subtle.XORBytes(r.data, r.data, d.rows[c].data)
	}
}

// solve back-substitutes the full-rank system to the identity, leaving
// rows[i].data = source symbol i, and assembles the block.
func (d *Decoder) solve() {
	for c := d.k - 1; c > 0; c-- {
		piv := d.rows[c]
		for c2 := 0; c2 < c; c2++ {
			r := d.rows[c2]
			if r.coef[c/64]&(1<<(c%64)) != 0 {
				xorWords(r.coef, piv.coef)
				subtle.XORBytes(r.data, r.data, piv.data)
			}
		}
	}
	out := make([]byte, d.k*d.p.SymbolSize)
	for i, r := range d.rows {
		copy(out[i*d.p.SymbolSize:], r.data)
	}
	d.solved = out[:d.p.DataLen]
}

// Data returns the decoded block once Done; (nil, false) below rank K
// — the decoder fails closed rather than guessing at missing symbols.
func (d *Decoder) Data() ([]byte, bool) {
	if !d.Done() {
		return nil, false
	}
	return d.solved, true
}

// Reset discards every absorbed symbol, returning the decoder to its
// empty state. The recovery path for a poisoned system: a corrupted
// payload that slipped past integrity checks XORs garbage into the
// eliminator, so the completed block fails verification and the caller
// starts the stream's collection over.
func (d *Decoder) Reset() {
	for i := range d.rows {
		d.rows[i] = nil
	}
	d.rank = 0
	d.solved = nil
	d.seen = make(map[uint32]bool)
}

// lowestBit returns the index of the lowest set bit of the bitset.
func lowestBit(w []uint64) (int, bool) {
	for i, v := range w {
		if v != 0 {
			return i*64 + bits.TrailingZeros64(v), true
		}
	}
	return 0, false
}

// xorWords folds src into dst (equal lengths).
func xorWords(dst, src []uint64) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}
