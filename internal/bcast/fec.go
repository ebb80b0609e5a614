// Fountain-coded data plane: when every confirmed member advertises
// FEC support, the round's granted sender streams rateless coded
// symbols (internal/fec) over the lossy datagram lane instead of
// shipping one PieceBcast frame, receivers rebuild the piece from any
// spanning subset, relay a bounded budget of first-sight symbols to
// the group (coopcast-style cooperation), and report completion with
// one aggregate SymbolAck — eliminating the per-piece NACK round-trips
// of the grant/resend plane in exactly the lossy cliques where
// grouping is supposed to win. If any member does not advertise FEC,
// the engine silently stays on the piece plane; nothing about group
// formation or scheduling changes.
package bcast

import (
	"context"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/fec"
	"repro/internal/metadata"
	"repro/internal/trace"
	"repro/internal/wire"
)

// DefaultSymbolSize is the coded-symbol payload size: 256 bytes turns
// the protocol's smallest test pieces (4 KB) into K=16 source symbols
// — enough equations that the decode-overhead tail stays thin — while
// a 256 KB production piece becomes K=1024, still cheap to eliminate:
// ≈ 9 ms a piece on one core of a 2-vCPU Xeon
// (internal/fec BenchmarkFECDecodeLargePiece).
const DefaultSymbolSize = 256

// DefaultRelayBudget bounds per-Tick symbol relays. Each member
// relays a given symbol index at most once (only first-sight symbols
// are relayed), so the budget shapes how much cooperative redundancy
// a clique adds per beat, not whether relays terminate.
const DefaultRelayBudget = 8

// maxFECBlocks bounds both stream and decoder maps. The schedule
// moves a flight window of pieces at a time, so live state is tiny; the
// cap is a backstop against hostile symbol spray filling memory.
// Evicting a stream merely restarts its index sequence (duplicate
// symbols are decoder no-ops); evicting a decoder costs re-collection.
const maxFECBlocks = 64

// fecStream is the sender side of one piece's symbol stream: the
// encoder plus the next fresh index, so every retransmission round
// emits coded symbols the group has not seen before instead of
// repeating the ones already lost.
type fecStream struct {
	enc  *fec.Encoder
	next uint32
}

// fecBlock is the receiver side of one piece's collection.
type fecBlock struct {
	dec   *fec.Decoder
	total int // the file's piece count, from the symbols
	at    time.Time
}

// blockSeed names (uri, piece)'s symbol stream. It is derived, not
// negotiated: every node computes the same seed, so a receiver can
// start collecting from a relay's symbols before ever hearing the
// original sender, and a sender restarting after a crash re-enters
// the same stream.
func blockSeed(uri metadata.URI, piece int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(uri))
	return h.Sum64() ^ (uint64(piece)+1)*0x9E3779B97F4A7C15
}

// fecActiveLocked reports whether piece data should ride the symbol
// plane: this node has a lane, and every confirmed member advertised
// FEC in its last GroupHello. One legacy member pins the whole group
// to the piece plane — mixing planes would strand that member without
// data.
func (e *Engine) fecActiveLocked() bool {
	if e.symbols == nil || !e.confirmed || e.group == nil {
		return false
	}
	for _, m := range e.group {
		v := e.views[m]
		if v == nil || !v.fec {
			return false
		}
	}
	return true
}

// The opening burst of a K-symbol block is K(1+overhead) symbols, and
// overhead is learnt from the group. Every opening is judged once, when
// its grant lapses at the regrant deadline: short, if some member still
// lacks the piece, raises overhead by overheadUp; otherwise it falls by
// overheadDown. The steps' ratio leaves one piece in nine to a top-up:
// what a block needs under loss has a long tail, so an opening that
// covers it spends more on every piece than the top-ups it saves, while
// a top-up costs few symbols but a beat of one flight slot (DESIGN.md
// "Burst sizing" has the numbers). Two rules keep the loop steady. A
// beat that judges more than beatSample openings scales their steps to
// beatSample's worth, so a fast group on a slow ticker does not swing by
// hundreds of steps at once. And only openings cut to the present
// overhead (Engine.sizing) are judged: those still lapsing from before
// the last step would step it again for the same evidence. Overhead
// starts at the half block that suits moderate loss and settles at 0 on
// a clean lane, where the systematic prefix is all a member needs. A
// top-up is an eighth of a block of fresh symbols; the schedule is the
// retry loop, with no per-symbol bookkeeping.
const (
	initialOverhead = 0.5
	overheadUp      = 1.0 / 16
	overheadDown    = 1.0 / 128
	beatSample      = 8
	maxOverhead     = 7 // an 8 K opening: loss past 85 % is a dead lane
)

// burstLocked sizes one transmission of a K-symbol block.
func (e *Engine) burstLocked(k int, opening bool) int {
	if opening {
		return k + int(math.Ceil(e.overhead*float64(k)))
	}
	return k/8 + 2
}

// resizeLocked folds one beat's lapsed openings, short of them
// unresolved, into the overhead.
func (e *Engine) resizeLocked(lapsed, short int) {
	if lapsed == 0 {
		return
	}
	was := e.overhead
	step := overheadUp*float64(short) - overheadDown*float64(lapsed-short)
	if lapsed > beatSample {
		step *= beatSample / float64(lapsed)
	}
	e.overhead = math.Max(0, math.Min(was+step, maxOverhead))
	if e.overhead != was {
		e.sizing++
	}
}

// transmitSymbolsLocked streams one granted piece as coded symbols.
func (e *Engine) transmitSymbolsLocked(ctx context.Context, round uint64, uri metadata.URI, piece int, total int, data []byte, now time.Time) {
	key := pieceKey{uri, piece}
	st := e.fecSend[key]
	if st == nil {
		enc, err := fec.NewEncoder(data, e.cfg.SymbolSize, blockSeed(uri, piece))
		if err != nil {
			e.logf("bcast %d: fec encode %s#%d: %v", e.cfg.Self, uri, piece, err)
			return
		}
		// A finished piece's stream goes when the next one opens, so the
		// map holds the flight window and the stragglers, not a beat's
		// worth of pieces.
		for k := range e.fecSend {
			if !e.lackedLocked(k, now) {
				delete(e.fecSend, k)
			}
		}
		if len(e.fecSend) >= maxFECBlocks {
			e.fecSend = make(map[pieceKey]*fecStream)
		}
		st = &fecStream{enc: enc}
		e.fecSend[key] = st
	}
	opening := st.next == 0
	if !opening {
		e.counters.TopUps++
	}
	for n := e.burstLocked(st.enc.K(), opening); n > 0; n-- {
		s := &wire.Symbol{
			From:    e.cfg.Self,
			Round:   round,
			URI:     uri,
			Piece:   piece,
			Total:   total,
			Seed:    st.enc.Params().Seed,
			DataLen: st.enc.Params().DataLen,
			Index:   st.next,
			Payload: st.enc.Symbol(st.next),
		}
		s.Seal()
		st.next++
		e.symbols.BroadcastSymbol(ctx, s)
		e.counters.SymbolsSent++
	}
	var sizing uint64
	if opening {
		sizing = e.sizing
	}
	e.granted.Send(key, now, sizing)
	// No optimistic markHave here: on the lossy plane "transmitted" is
	// not "received". The piece leaves the candidate list only when
	// acks (or GroupHellos) flip the members' bits.
}

// selfHasLocked consults this node's own announced want state for a
// piece — the cheap "do I already hold this" check on the symbol path.
func (e *Engine) selfHasLocked(uri metadata.URI, piece int) bool {
	v := e.views[e.cfg.Self]
	if v == nil {
		return false
	}
	for i := range v.wants {
		if v.wants[i].URI == uri {
			return v.wants[i].HaveBit(piece)
		}
	}
	return false
}

// handleSymbolLocked absorbs one received coded symbol: integrity
// check, budget-limited first-sight relay, decode, and on a completed
// block the shared verify-and-store path plus the aggregate ack.
func (e *Engine) handleSymbolLocked(ctx context.Context, s *wire.Symbol, now time.Time) {
	e.counters.SymbolsRecv++
	if !s.CheckOK() {
		e.counters.SymbolsBadCheck++
		return // integrity first: a corrupt Round must not move the clock
	}
	if s.Round > e.round {
		e.round = s.Round
	}
	if len(s.Payload) == 0 || s.From == e.cfg.Self {
		return
	}
	if e.selfHasLocked(s.URI, s.Piece) {
		return // already held: neither decode nor relay is useful
	}
	if s.Seed != blockSeed(s.URI, s.Piece) {
		return // seeds are derived, not negotiated: a foreign stream
	}
	key := pieceKey{s.URI, s.Piece}
	p := fec.Params{DataLen: s.DataLen, SymbolSize: len(s.Payload), Seed: s.Seed}
	blk := e.fecRecv[key]
	if blk != nil && blk.dec.Params() != p {
		// Same piece and seed, different shape: one of them is wrong
		// (or corrupted in a way the check missed). First stream wins;
		// conflicting symbols are dropped as noise.
		return
	}
	if blk == nil {
		dec, err := fec.NewDecoder(p)
		if err != nil {
			return // hostile or mangled parameters
		}
		if len(e.fecRecv) >= maxFECBlocks {
			e.fecRecv = make(map[pieceKey]*fecBlock)
		}
		blk = &fecBlock{dec: dec, total: s.Total}
		e.fecRecv[key] = blk
	}
	blk.at = now
	before := blk.dec.Received()
	done, err := blk.dec.Add(s.Index, s.Payload)
	if err != nil {
		return
	}
	if blk.dec.Received() > before && e.relayQuota > 0 && e.confirmed && e.symbols != nil {
		// Coopcast cooperation: echo a first-sight symbol so members
		// shadowed from the sender still fill their blocks. First-sight
		// -only relaying means a symbol index crosses each member once,
		// so relays cannot echo forever.
		e.relayQuota--
		e.counters.SymbolsRelayed++
		e.symbols.BroadcastSymbol(ctx, s)
	}
	if !done {
		return
	}
	data, _ := blk.dec.Data()
	pb := &wire.PieceBcast{
		From: s.From, Round: s.Round, URI: s.URI, Index: s.Piece, Total: s.Total, Data: data,
	}
	if !e.cfg.Store.DeliverPiece(s.From, pb) {
		// The decoded bytes failed verification: some accepted symbol
		// was poisoned (a corruption that survived both checks). Start
		// the collection over rather than trusting any of it.
		e.counters.FECVerifyFails++
		blk.dec.Reset()
		return
	}
	e.counters.FECDecodes++
	delete(e.fecRecv, key)
	e.markHaveLocked(s.URI, s.Piece)
	e.ackLocked(ctx, s.URI, s.Total)
}

// ackLocked broadcasts this node's aggregate decode state for a file
// on the reliable control plane — one ack supersedes any number of
// per-piece NACKs, and the next GroupHello carries the same bits as a
// backstop if the ack frame is lost.
func (e *Engine) ackLocked(ctx context.Context, uri metadata.URI, total int) {
	ack := &wire.SymbolAck{
		From: e.cfg.Self, Round: e.round, URI: uri, Total: total,
		Have: make([]byte, wire.HaveLen(total)),
	}
	if v := e.views[e.cfg.Self]; v != nil {
		for i := range v.wants {
			if v.wants[i].URI == uri {
				copy(ack.Have, v.wants[i].Have)
			}
		}
	}
	e.sendLocked(ctx, ack)
	e.counters.SymbolAcksSent++
}

// handleSymbolAckLocked folds a member's aggregate decode report into
// its view, releasing acked pieces from the sender's candidate list.
func (e *Engine) handleSymbolAckLocked(from trace.NodeID, a *wire.SymbolAck) {
	e.counters.SymbolAcksRecv++
	if a.Round > e.round {
		e.round = a.Round
	}
	v := e.views[from]
	if v == nil {
		return
	}
	for i := range v.wants {
		if v.wants[i].URI != a.URI || v.wants[i].Total != a.Total {
			continue
		}
		for p := 0; p < a.Total; p++ {
			if a.HaveBit(p) {
				v.wants[i].SetHave(p)
			}
		}
	}
}

// pruneFECLocked drops collections that stopped making progress (the
// group moved on, or the stream's sender vanished) and sender streams
// for pieces no longer scheduled. Called from Tick under e.mu.
func (e *Engine) pruneFECLocked(now time.Time) {
	cutoff := 4 * e.cfg.Window
	for k, blk := range e.fecRecv {
		if now.Sub(blk.at) > cutoff {
			delete(e.fecRecv, k)
		}
	}
	for k := range e.fecSend {
		if e.selfHasLocked(k.uri, k.piece) {
			continue // cheap to keep; the encoder backs possible top-ups
		}
		delete(e.fecSend, k)
	}
}
