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
	"slices"
	"strings"
	"time"

	"repro/internal/fec"
	"repro/internal/metadata"
	"repro/internal/sched"
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

// fecBlock is the receiver side of one piece's collection. from and
// round name the latest burst heard of it — its sender and the round it
// was granted in — and told the last such round whose end this node
// reported while the block was still open (burstsEndedLocked).
type fecBlock struct {
	dec   *fec.Decoder
	total int // the file's piece count, from the symbols
	at    time.Time

	from        trace.NodeID
	round, told uint64
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
// overhead is learnt from the group. Every opening is judged once, as
// soon as the acks show which it was: short the moment a member's ack
// shows its burst ended with the piece still lacked — the next block's
// symbols arrived behind it — and enough the moment every member holds
// the piece. One the acks leave open is judged when its grant lapses at
// the regrant deadline, short if some member still lacks the piece then.
// Short raises overhead by overheadUp; enough lowers it by overheadDown.
// The steps' ratio leaves one piece in five to a top-up: what a block
// needs under loss has a long tail, so an opening that covers it spends
// more on every piece than the top-ups it saves. A top-up costs few
// symbols and one round trip of a flight slot, where it cost a beat
// before the next block could show a burst short; at one in nine the
// group sent 1.4 % more and finished no sooner (DESIGN.md "Burst
// sizing" has the numbers). Two rules keep the loop steady. The
// beat folds what was judged since the last one, and a beat that judges
// more than beatSample openings scales their steps to beatSample's
// worth, so a fast group on a slow ticker does not swing by hundreds of
// steps at once. And only openings cut to the present overhead
// (Engine.sizing) are judged: those still lapsing from before the last
// step would step it again for the same evidence. Overhead starts at the
// half block that suits moderate loss and settles at 0 on a clean lane,
// where the systematic prefix is all a member needs. A top-up is an
// eighth of a block of fresh symbols; the schedule is the retry loop,
// with no per-symbol bookkeeping.
const (
	initialOverhead = 0.5
	overheadUp      = 1.0 / 16
	overheadDown    = 1.0 / 64
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

// judgeLocked tallies one grant leaving the flight window, if it was an
// opening cut to the present overhead.
func (e *Engine) judgeLocked(g grant, short bool) {
	if g.sizing != e.sizing {
		return
	}
	e.judged++
	if short {
		e.short++
	}
}

// resizeLocked folds the openings judged since the last beat into the
// overhead.
func (e *Engine) resizeLocked() {
	judged, short := e.judged, e.short
	e.judged, e.short = 0, 0
	if judged == 0 {
		return
	}
	was := e.overhead
	step := overheadUp*float64(short) - overheadDown*float64(judged-short)
	if judged > beatSample {
		step *= beatSample / float64(judged)
	}
	e.overhead = math.Max(0, math.Min(was+step, maxOverhead))
	if e.overhead != was {
		e.sizing++
	}
}

// transmitSymbolsLocked streams one granted piece as coded symbols. data
// opens the piece's stream; a top-up continues it and needs none.
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
	g := grant{round: round, to: e.cfg.Self}
	if opening {
		g.sizing = e.sizing
	}
	e.flyLocked(key, g)
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
// check, a report of the bursts it shows ended short, budget-limited
// first-sight relay, decode, and on a completed block the shared
// verify-and-store path plus the aggregate ack.
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
	if s.Seed != blockSeed(s.URI, s.Piece) {
		return // seeds are derived, not negotiated: a foreign stream
	}
	key := pieceKey{s.URI, s.Piece}
	e.burstsEndedLocked(ctx, key, s)
	if e.selfHasLocked(s.URI, s.Piece) {
		return // already held: neither decode nor relay is useful
	}
	p := fec.Params{DataLen: s.DataLen, SymbolSize: len(s.Payload), Seed: s.Seed}
	blk := e.fecRecv[key]
	if blk != nil && blk.dec.Params() != p {
		// Same piece and seed, different shape: one of them is wrong
		// (or corrupted in a way the check missed). First stream wins;
		// conflicting symbols are dropped as noise.
		return
	}
	if blk == nil {
		// The block's shape is the file record's, not the symbol's to
		// say: a forged DataLen or Total would pin the block to a decoder
		// the genuine stream conflicts with, or one of any size.
		if n, total, _ := e.cfg.Store.Piece(s.URI, s.Piece); total == 0 || s.Total != total || s.DataLen != n {
			return
		}
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
	if s.Round >= blk.round {
		blk.from, blk.round = s.From, s.Round
	}
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
	e.ackLocked(ctx, s.URI, s.Total, s.Round)
}

// burstsEndedLocked reports the bursts s shows over. A lane delivers one
// sender's symbols in the order they were sent, so a symbol of round r
// means every burst its sender was granted before r has ended here. A
// block of such a burst still open is short of symbols, and its sender's
// sequencer hears so now — once per burst, in the ack this node would
// otherwise announce at its next beat — instead of when the grant lapses.
func (e *Engine) burstsEndedLocked(ctx context.Context, key pieceKey, s *wire.Symbol) {
	type file struct {
		uri   metadata.URI
		total int
	}
	var files []file
	for k, blk := range e.fecRecv {
		if k == key || blk.from != s.From || blk.round >= s.Round || blk.told == blk.round {
			continue
		}
		blk.told = blk.round
		if f := (file{k.uri, blk.total}); !slices.Contains(files, f) {
			files = append(files, f)
		}
	}
	slices.SortFunc(files, func(a, b file) int { return strings.Compare(string(a.uri), string(b.uri)) })
	for _, f := range files {
		e.ackLocked(ctx, f.uri, f.total, s.Round)
	}
}

// ackLocked broadcasts this node's aggregate decode state for a file
// on the reliable control plane — one ack supersedes any number of
// per-piece NACKs, and the next GroupHello carries the same bits as a
// backstop if the ack frame is lost. round is that of a symbol this node
// has received, so the ack also says that every burst granted to that
// symbol's sender before it has ended here (lapseEndedLocked).
func (e *Engine) ackLocked(ctx context.Context, uri metadata.URI, total int, round uint64) {
	ack := &wire.SymbolAck{
		From: e.cfg.Self, Round: round, URI: uri, Total: total,
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
// its view, releasing acked pieces from the sender's candidate list,
// lapses the grants whose bursts it shows ended short, and judges the
// openings it shows were enough.
func (e *Engine) handleSymbolAckLocked(from trace.NodeID, a *wire.SymbolAck, now time.Time) {
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
	e.lapseEndedLocked(v, a.Round)
	e.judgeResolvedLocked(now)
}

// judgeResolvedLocked judges enough every opening in the flight window
// that every member now holds. A short opening is
// judged when the next block shows it (lapseEndedLocked), so one that
// was enough is judged when the acks show it too, not when its grant
// lapses a beat or two later. By then overhead has usually stepped, and
// an opening cut to an older overhead is not judged at all: the loop
// would hear of the short openings and seldom of the rest.
func (e *Engine) judgeResolvedLocked(now time.Time) {
	for i := range e.granted {
		if f := &e.granted[i]; f.Tag.sizing == e.sizing && !e.lackedLocked(f.Key, now) {
			e.judgeLocked(f.Tag, false)
			f.Tag.sizing = 0 // judged: its lapse is no evidence
		}
	}
}

// lapseEndedLocked lapses, ahead of the beat, every grant the acker's
// ack shows short: an ack names a round whose symbols reached the acker,
// so every burst granted to that round's grantee before it has ended
// there, and one of a piece the acker still lacks needs a top-up. The
// slot it held is free for the next kicked round, and an opening among
// them is judged short now, once.
func (e *Engine) lapseEndedLocked(acker *view, round uint64) {
	i := slices.IndexFunc(e.granted, func(f sched.Flight[pieceKey, grant]) bool { return f.Tag.round == round })
	if i < 0 {
		return
	}
	to := e.granted[i].Tag.to
	for _, f := range e.granted.Lapse(func(f sched.Flight[pieceKey, grant]) bool {
		return f.Tag.to == to && f.Tag.round < round && acker.lacks(f.Key)
	}) {
		e.judgeLocked(f.Tag, true)
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
