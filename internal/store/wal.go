package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// WAL file layout: a sequence of frames, each
//
//	u32 payloadLen | u32 crc32(payload) | payload
//	payload := u64 seq | record (kind byte + body, see record.go)
//
// The frames of one append — a single record or a whole batch — are
// written with one Write call and fsynced once before the append
// returns. Replay walks frames from the start and stops at the first
// torn frame — short header, impossible length, CRC mismatch, or a
// record body that fails to decode — truncating the file there, so the
// recovered log is always a valid prefix of what was appended (a batch
// torn by a crash recovers as a frame-aligned prefix of itself).

const (
	walName        = "wal.log"
	frameHeaderLen = 8
	seqLen         = 8
)

// errUnrepaired marks an append failure whose truncate-back repair also
// failed: the log may end in a torn frame, and appending more would
// bury good records behind it. The store goes read-only on it.
var errUnrepaired = errors.New("store: wal tail unrepaired")

// walEntry is one replayed record with its sequence number.
type walEntry struct {
	seq uint64
	rec Record
}

// EncodeFrame builds one framed WAL record — exported for the corpus
// generator and tests that assemble log images byte-for-byte.
func EncodeFrame(seq uint64, rec Record) []byte { return appendFrame(nil, seq, rec) }

// appendFrame appends one framed WAL record to dst: the header is
// reserved, the payload encoded in place behind it, then length and CRC
// are patched in, so a batch of frames builds in one buffer.
func appendFrame(dst []byte, seq uint64, rec Record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderLen)...)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = appendRecord(dst, rec)
	payload := dst[start+frameHeaderLen:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// parseFrames walks the raw WAL bytes, returning the valid prefix's
// entries and the byte offset where the prefix ends (the torn tail, if
// any, starts there). It never fails: a torn or corrupt tail just stops
// the walk.
func parseFrames(b []byte) (entries []walEntry, validLen int64) {
	off := 0
	for {
		if len(b)-off < frameHeaderLen {
			return entries, int64(off)
		}
		plen := binary.BigEndian.Uint32(b[off : off+4])
		crc := binary.BigEndian.Uint32(b[off+4 : off+8])
		if plen < seqLen+1 || int64(plen) > maxRecordLen+seqLen {
			return entries, int64(off)
		}
		if len(b)-off-frameHeaderLen < int(plen) {
			return entries, int64(off)
		}
		payload := b[off+frameHeaderLen : off+frameHeaderLen+int(plen)]
		if crc32.ChecksumIEEE(payload) != crc {
			return entries, int64(off)
		}
		seq := binary.BigEndian.Uint64(payload[:seqLen])
		rec, err := DecodeRecord(payload[seqLen:])
		if err != nil {
			return entries, int64(off)
		}
		entries = append(entries, walEntry{seq: seq, rec: rec})
		off += frameHeaderLen + int(plen)
	}
}

// wal owns the open log file. buf is the frame buffer every append
// reuses.
type wal struct {
	fs   FS
	path string
	f    File
	size int64
	buf  []byte
}

// openWAL opens (creating if needed) the log, replays its valid prefix,
// and truncates any torn tail so new appends extend the valid prefix.
// tornBytes reports how much tail was cut.
func openWAL(fs FS, path string) (w *wal, entries []walEntry, tornBytes int64, err error) {
	// O_APPEND keeps every write at the current end of file, so the
	// write position stays right after replay's ReadAll and any
	// Truncate without needing a Seek in the FS seam.
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("store: open wal: %w", err)
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("store: read wal: %w", err)
	}
	entries, validLen := parseFrames(raw)
	tornBytes = int64(len(raw)) - validLen
	if tornBytes > 0 {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("store: truncate torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("store: sync truncated wal: %w", err)
		}
	}
	return &wal{fs: fs, path: path, f: f, size: validLen}, entries, tornBytes, nil
}

// append frames recs with sequence numbers firstSeq, firstSeq+1, … and
// logs them all-or-nothing: one Write of every frame and, unless
// noSync, one fsync. On a write or sync error it cuts the file back to
// the last known-good size, so the log never grows an unreachable tail
// and no part of a failed batch survives; if that repair fails too, the
// returned error wraps both and the caller must stop appending.
func (w *wal) append(firstSeq uint64, recs []Record, noSync bool) error {
	w.buf = w.buf[:0]
	for i, rec := range recs {
		w.buf = appendFrame(w.buf, firstSeq+uint64(i), rec)
	}
	if _, err := w.f.Write(w.buf); err != nil {
		if terr := w.truncateBack(); terr != nil {
			return fmt.Errorf("store: wal append: %w (repair failed: %v): %w", err, terr, errUnrepaired)
		}
		return fmt.Errorf("store: wal append: %w", err)
	}
	if !noSync {
		if err := w.f.Sync(); err != nil {
			if terr := w.truncateBack(); terr != nil {
				return fmt.Errorf("store: wal sync: %w (repair failed: %v): %w", err, terr, errUnrepaired)
			}
			return fmt.Errorf("store: wal sync: %w", err)
		}
	}
	w.size += int64(len(w.buf))
	return nil
}

// truncateBack cuts the file to the last acknowledged size after a
// failed append, discarding any partial frame the failure left behind.
func (w *wal) truncateBack() error {
	if err := w.f.Truncate(w.size); err != nil {
		return err
	}
	return w.f.Sync()
}

// reset empties the log after a snapshot made its contents redundant.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: reset wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: sync reset wal: %w", err)
	}
	w.size = 0
	return nil
}

func (w *wal) close() error { return w.f.Close() }
