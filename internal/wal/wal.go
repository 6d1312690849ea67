// Package wal implements the write-ahead log the HiStar single-level store
// uses for crash consistency (Section 4): synchronous updates are queued in
// a sequential on-disk log and applied to their home locations in batches.
// Records are logical — an object ID plus its new contents (or a tombstone)
// — so recovery does not depend on the physical layout chosen later by the
// extent allocator.
//
// # On-disk format
//
// The log occupies a fixed region of the disk.  It starts with a 32-byte
// header:
//
//	off  size  field
//	0    4     magic "HWLO" (0x48574c4f, little endian)
//	4    1     format version (4)
//	5    3     reserved (zero)
//	8    8     committed length: bytes of records after the header,
//	           including any reclaimed (dead) prefix
//	16   4     CRC-32C of header bytes 0..15
//	20   8     start offset: bytes after the header where the live records
//	           begin (records before it were reclaimed by an epoch
//	           checkpoint and are no longer replayed)
//	28   4     CRC-32C of header bytes 20..27
//
// The header CRCs make silent bit rot in the magic, version, committed
// length, or start offset detectable: an all-zero header is a fresh region,
// anything else that fails its checks is ErrCorrupt — never silently
// treated as empty.
//
// Committed records follow back to back.  A record is:
//
//	off  size  field
//	0    8     object ID
//	8    4     data length
//	12   2     label length (0 when the object carries no label)
//	14   1     flags: bit 0 = tombstone, bit 1 = label present,
//	           bit 2 = generation marker, bit 3 = clone alias,
//	           bit 4 = snapshot-bundle metadata
//	15   4     CRC-32 (IEEE) of bytes 0..15 plus the label and data bytes
//	19   ...   canonical serialized label (label.AppendBinary), then data
//
// A clone record (bit 3) does not carry the object's contents: its data is a
// small store-defined payload describing which committed extent the new
// object aliases (the store's snapshot-bundle clone path), and its label is
// the clone's own label.  A bundle record (bit 4) carries a store-defined
// serialization of a whole snapshot bundle in its data, keyed by the bundle's
// lineage ID in the object-ID field.  The log treats both payloads as opaque
// bytes under the record CRC; clone/bundle records cannot combine with each
// other or with tombstones or markers.
//
// A generation marker (bit 2, no data, no label) closes a checkpoint
// generation.  The store's incremental checkpoint seals one with AppendMark,
// reusing the object-ID field to carry the epoch of the metadata snapshot
// the marker opens.  Records before
// the last marker for the mounted snapshot's epoch belong to previous
// generations and are retained only so the store can fall back to its older
// metadata snapshot and replay them forward if the newer snapshot is
// corrupt on disk (see ReplayStart).  ReclaimBefore drops generations the
// fallback can no longer need by advancing the start offset — a single
// crash-atomic header write, no record bytes move — and compacts the region
// physically only when the live suffix fits entirely inside the dead
// prefix, so a torn compaction can never damage records the header still
// references.
//
// Commit appends the encoded records, then updates the header's committed
// length and flushes; the header update is what makes the batch durable.
// Recovery trusts only the committed prefix, verifies every record's CRC,
// and — per the contract FuzzRecover enforces — never panics on arbitrary
// log bytes: damage yields ErrCorrupt along with every record before the
// damage, and the log is resealed to that valid prefix so later commits
// append after it.  Any other version byte under an intact header CRC is
// refused with ErrVersion and the region left untouched;
// records that could never commit at all are rejected at Append time with
// ErrTooLarge.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"histar/internal/disk"
)

// Record is one logged update: the full new contents of an object (plus its
// canonical serialized information-flow label, when it has one), or its
// deletion.
type Record struct {
	ObjectID uint64
	Data     []byte
	// Label is the object's canonical serialized label (label.AppendBinary),
	// or nil for an unlabeled object.  The log treats it as opaque bytes
	// covered by the record CRC; the store decodes it on replay.
	Label  []byte
	Delete bool
	// Mark identifies a generation marker written by AppendMark: not an
	// object update at all, just the boundary between checkpoint generations
	// (ObjectID carries the epoch).  Replay loops must skip marker records.
	Mark bool
	// Clone marks a clone-alias record: Data is the store's description of
	// the committed extent the object aliases (not object contents), and
	// Label is the clone's label.
	Clone bool
	// Bundle marks a snapshot-bundle metadata record: ObjectID is the
	// bundle's lineage ID and Data its serialized metadata.
	Bundle bool
}

// Errors returned by the log.
var (
	// ErrFull is returned when a commit would overflow the log region; the
	// buffered records stay pending, so the caller can apply (checkpoint),
	// truncate, and simply Commit again — re-appending would duplicate them.
	ErrFull = errors.New("wal: log region full")
	// ErrTooLarge is returned by Append for a record that could never
	// commit: it would not fit even in an empty log region, or its label
	// exceeds the record format's 16-bit label-length field.  The record is
	// not buffered — no truncation could help — and the caller must fall
	// back to a checkpoint for its durability.
	ErrTooLarge = errors.New("wal: record exceeds log capacity")
	// ErrCorrupt is returned when recovery encounters a damaged record; all
	// records before the damage are still returned.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrVersion is returned when recovery meets a log whose header is
	// intact but names a format version other than the one this code writes;
	// the region is left untouched so the code that wrote it can still
	// mount it.
	ErrVersion = errors.New("wal: unsupported log format version")
)

const (
	recHeaderSize = 8 + 4 + 2 + 1 + 4 // id, data len, label len, flags, crc
	logHeaderSize = 32
	logMagic      = 0x48574c4f // "HWLO"
	logVersion    = 4

	flagDelete   = 1 << 0
	flagHasLabel = 1 << 1
	flagMark     = 1 << 2
	flagClone    = 1 << 3
	flagBundle   = 1 << 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is a redo log occupying a fixed region of the disk.  It is safe for
// concurrent use.
type Log struct {
	mu    sync.Mutex
	d     disk.Device
	start int64
	size  int64

	pending  []Record // appended but not yet committed
	tail     int64    // next write offset within the region (after header)
	commits  uint64
	applies  uint64
	appended uint64

	// Batch counters: AppendBatch calls, records appended through them,
	// their encoded bytes, and the largest single batch — the group-commit
	// tests assert commits stay below syncs using these.
	batches      uint64
	batchRecords uint64
	batchBytes   uint64
	maxBatch     int

	// reclaimOff is the body offset where the live records begin (the
	// header's start-offset field): everything before it has been reclaimed
	// by ReclaimBefore but not yet physically compacted away.
	reclaimOff int64
	// markOffs maps a marker epoch (its object-ID field) to the body offset
	// where the LAST marker carrying that epoch starts.  ReclaimBefore uses
	// it to find the reclaim boundary; AppendMark and Recover maintain it.
	markOffs map[uint64]int64
	// markIdxs maps a marker epoch to the index into the slice the last
	// Recover returned of the first record after the last marker carrying
	// that epoch (see ReplayStart).  Unlike markOffs it is only meaningful
	// until the recovered slice goes stale.
	markIdxs map[uint64]int
	// reclaims counts ReclaimBefore calls that advanced the start offset;
	// compactions counts physical compactions of the dead prefix.
	reclaims    uint64
	compactions uint64
}

// New creates a log over the region [start, start+size) of d and writes a
// fresh header.  Any previous log contents are discarded.
func New(d disk.Device, start, size int64) (*Log, error) {
	l := &Log{d: d, start: start, size: size, tail: logHeaderSize}
	if err := l.writeHeader(0, 0); err != nil {
		return nil, err
	}
	return l, nil
}

// Open attaches to an existing log region without erasing it; use Recover to
// read back committed records after a crash.
func Open(d disk.Device, start, size int64) *Log {
	return &Log{d: d, start: start, size: size, tail: logHeaderSize}
}

func (l *Log) writeHeader(committedBytes, startOff int64) error {
	var hdr [logHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], logMagic)
	hdr[4] = logVersion
	binary.LittleEndian.PutUint64(hdr[8:], uint64(committedBytes))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(hdr[:16], castagnoli))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(startOff))
	binary.LittleEndian.PutUint32(hdr[28:], crc32.Checksum(hdr[20:28], castagnoli))
	if _, err := l.d.WriteAt(hdr[:], l.start); err != nil {
		return err
	}
	return l.d.Flush()
}

// Append buffers a record for the next Commit.  A record that could never
// commit (see ErrTooLarge) is rejected here, before it enters the shared
// pending set, so it can neither wedge the log nor be silently lost by a
// concurrent caller's commit.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tooLarge(r) {
		return ErrTooLarge
	}
	l.appendLocked(r)
	return nil
}

// AppendBatch buffers a whole batch of records for the next Commit, as one
// all-or-nothing operation: if any record could never commit (see
// ErrTooLarge), none of the batch is buffered.  One AppendBatch plus one
// Commit is the group-commit fast path — many syncers' records become
// durable with a single sequential write and flush.
func (l *Log) AppendBatch(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range recs {
		if l.tooLarge(r) {
			return ErrTooLarge
		}
	}
	for _, r := range recs {
		l.appendLocked(r)
		l.batchBytes += uint64(r.EncodedSize())
	}
	l.batches++
	l.batchRecords += uint64(len(recs))
	if len(recs) > l.maxBatch {
		l.maxBatch = len(recs)
	}
	return nil
}

// DropPending discards all buffered (uncommitted) records.  The group
// committer uses it when a full log forces the checkpoint fallback: the
// checkpoint makes a state at least as new as every sealed record durable,
// so committing the stale records afterwards could only regress objects.
func (l *Log) DropPending() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending = l.pending[:0]
}

// TooLarge reports whether r could never commit even in an empty log region
// (the ErrTooLarge criterion), letting callers pre-check before sealing a
// record into a shared batch.
func (l *Log) TooLarge(r Record) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tooLarge(r)
}

func (l *Log) tooLarge(r Record) bool {
	return encodedSize(r) > l.size-logHeaderSize || len(r.Label) > 0xffff
}

// appendLocked buffers one pre-validated record; the caller holds l.mu.
func (l *Log) appendLocked(r Record) {
	r.Data = append([]byte(nil), r.Data...)
	r.Label = append([]byte(nil), r.Label...)
	l.pending = append(l.pending, r)
	l.appended++
}

// encodedSize returns the on-disk size of one record.
func encodedSize(r Record) int64 {
	return recHeaderSize + int64(len(r.Label)) + int64(len(r.Data))
}

// EncodedSize returns the record's on-disk size, letting callers bound the
// byte size of a group-commit batch before appending it.
func (r Record) EncodedSize() int64 { return encodedSize(r) }

// PendingBytes returns the encoded size of buffered (uncommitted) records.
func (l *Log) PendingBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, r := range l.pending {
		n += encodedSize(r)
	}
	return n
}

// CommittedBytes returns how much of the log region holds committed records.
func (l *Log) CommittedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail - logHeaderSize
}

// Commit durably appends all buffered records to the log: a sequential write
// into the log region followed by a header update and flush.  After Commit
// returns nil, the records will survive a crash and be returned by Recover.
// On ErrFull the records stay pending for a retry after a truncate.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked()
}

func (l *Log) commitLocked() error {
	if len(l.pending) == 0 {
		return nil
	}
	buf := encodeRecords(l.pending)
	if l.tail+int64(len(buf)) > l.size {
		// A reclaimed-but-uncompacted prefix may be holding the space this
		// commit needs; compact it away before giving up.
		if err := l.compactLocked(); err != nil {
			return err
		}
		if l.tail+int64(len(buf)) > l.size {
			return ErrFull
		}
	}
	if _, err := l.d.WriteAt(buf, l.start+l.tail); err != nil {
		return err
	}
	newTail := l.tail + int64(len(buf))
	// Header update makes the newly appended records part of the committed
	// prefix; the flush inside writeHeader orders both.
	if err := l.writeHeader(newTail-logHeaderSize, l.reclaimOff); err != nil {
		return err
	}
	l.tail = newTail
	l.pending = l.pending[:0]
	l.commits++
	return nil
}

// Truncate discards the committed log contents, typically after the caller
// has applied them to their home locations and checkpointed its metadata.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncateLocked()
}

func (l *Log) truncateLocked() error {
	if err := l.writeHeader(0, 0); err != nil {
		return err
	}
	l.tail = logHeaderSize
	l.reclaimOff = 0
	l.markOffs = nil
	l.applies++
	return nil
}

// AppendMark durably appends a generation marker carrying epoch in its
// object-ID field, committing it (and any pending records) in one batch.
// The store's incremental checkpoint calls it at seal time: records before
// this marker belong to generations the snapshot named by epoch subsumes.
// On ErrFull the marker is dropped from the pending set (unlike data
// records, a marker is trivially re-created on retry) so a later group
// commit cannot smuggle in a stale seal boundary.
func (l *Log) AppendMark(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendLocked(Record{ObjectID: epoch, Mark: true})
	if err := l.commitLocked(); err != nil {
		l.pending = l.pending[:len(l.pending)-1]
		return err
	}
	markStart := l.tail - logHeaderSize - recHeaderSize
	if l.markOffs == nil {
		l.markOffs = make(map[uint64]int64)
	}
	l.markOffs[epoch] = markStart
	return nil
}

// ReclaimBefore drops every record before the last generation marker
// carrying epoch: a single crash-atomic header write advances the start
// offset to the marker (the marker itself is retained so recovery can still
// find the generation boundary), then the region is physically compacted if
// the live suffix fits inside the dead prefix.  When no marker for epoch is
// known the log is left untouched apart from a compaction attempt — never
// guess a reclaim boundary.
func (l *Log) ReclaimBefore(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	off, ok := l.markOffs[epoch]
	if ok && off > l.reclaimOff {
		l.reclaimOff = off
		for e, o := range l.markOffs {
			if o < off {
				delete(l.markOffs, e)
			}
		}
		if err := l.writeHeader(l.tail-logHeaderSize, l.reclaimOff); err != nil {
			return err
		}
		l.reclaims++
	}
	return l.compactLocked()
}

// compactLocked physically removes the reclaimed dead prefix by copying the
// live suffix to the front of the region, but only when the two do not
// overlap: the copy then lands entirely inside bytes the on-disk header no
// longer references, so a crash at any point leaves the old header's view
// intact and the final header write switches over atomically.  The caller
// holds l.mu.
func (l *Log) compactLocked() error {
	live := l.tail - logHeaderSize - l.reclaimOff
	if l.reclaimOff == 0 || live > l.reclaimOff {
		return nil
	}
	if live > 0 {
		buf := make([]byte, live)
		if _, err := l.d.ReadAt(buf, l.start+logHeaderSize+l.reclaimOff); err != nil {
			return err
		}
		if _, err := l.d.WriteAt(buf, l.start+logHeaderSize); err != nil {
			return err
		}
		// Barrier: the copied records must be on the platter before the
		// header points at them.
		if err := l.d.Flush(); err != nil {
			return err
		}
	}
	shift := l.reclaimOff
	l.reclaimOff = 0
	l.tail -= shift
	for e := range l.markOffs {
		l.markOffs[e] -= shift
	}
	if err := l.writeHeader(l.tail-logHeaderSize, 0); err != nil {
		return err
	}
	l.compactions++
	return nil
}

// LiveBytes returns the committed bytes recovery would actually replay —
// the region length minus any reclaimed dead prefix.  The store uses it to
// decide when retaining a fallback generation would starve future commits.
func (l *Log) LiveBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail - logHeaderSize - l.reclaimOff
}

// ReplayStart returns the index into the slice the last Recover returned of
// the first record after the last generation marker carrying epoch, and
// whether such a marker exists.  Normal recovery replays from the marker of
// the snapshot it mounted; the metadata-fallback path uses the older
// snapshot's epoch, whose generation ReclaimBefore retains for exactly this
// purpose.
func (l *Log) ReplayStart(epoch uint64) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx, ok := l.markIdxs[epoch]
	return idx, ok
}

// Recover reads the committed records back from the log region (after a
// crash or restart).  Records damaged mid-write are detected by checksum;
// everything before the damage is returned along with ErrCorrupt, and the
// log is resealed to that valid prefix so subsequent commits extend it
// rather than the damaged tail.
func (l *Log) Recover() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var hdr [logHeaderSize]byte
	if _, err := l.d.ReadAt(hdr[:], l.start); err != nil {
		return nil, err
	}
	allZero := true
	for _, b := range hdr {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		// Fresh region: nothing ever logged.
		l.resetRecoveredState()
		return nil, nil
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != logMagic {
		// Non-zero but wrong magic is damage, not a fresh region — reseal
		// empty and say so rather than silently dropping the log.
		return nil, l.resealEmpty("bad log magic at offset %d: got %#x, want %#x", l.start, got, logMagic)
	}
	// Verify the header CRC before trusting any header field, the version
	// byte included: a mismatch means rot, whatever version it spells.
	want := binary.LittleEndian.Uint32(hdr[16:])
	if got := crc32.Checksum(hdr[:16], castagnoli); got != want {
		return nil, l.resealEmpty("log header checksum mismatch at offset %d: got %#x, want %#x", l.start, got, want)
	}
	if version := hdr[4]; version != logVersion {
		// An intact header for a format this code does not speak: refuse the
		// mount without touching the region, so the code that wrote it can
		// still recover.
		return nil, fmt.Errorf("%w %d", ErrVersion, version)
	}
	committed := int64(binary.LittleEndian.Uint64(hdr[8:]))
	if committed < 0 || committed > l.size-logHeaderSize {
		return nil, l.resealEmpty("committed length %d out of range", committed)
	}
	want = binary.LittleEndian.Uint32(hdr[28:])
	if got := crc32.Checksum(hdr[20:28], castagnoli); got != want {
		return nil, l.resealEmpty("log start-offset checksum mismatch at offset %d: got %#x, want %#x", l.start, got, want)
	}
	startOff := int64(binary.LittleEndian.Uint64(hdr[20:]))
	if startOff < 0 || startOff > committed {
		return nil, l.resealEmpty("start offset %d out of range (committed %d)", startOff, committed)
	}
	body := make([]byte, committed-startOff)
	if len(body) > 0 {
		if _, err := l.d.ReadAt(body, l.start+logHeaderSize+startOff); err != nil {
			return nil, err
		}
	}
	recs, good, err := decodeRecords(body)
	if good != committed-startOff {
		// Damaged tail: rewrite the valid prefix at the front of the region
		// and reseal the header to it.
		if werr := l.rewrite(recs); werr != nil {
			return recs, werr
		}
		return recs, err
	}
	l.tail = logHeaderSize + committed
	l.reclaimOff = startOff
	l.setMarkBoundary(recs, startOff)
	return recs, err
}

// resealEmpty reseals a region whose header failed a check as an empty log
// — never silently: the returned error wraps ErrCorrupt with the reason.
// The caller holds l.mu.
func (l *Log) resealEmpty(format string, args ...interface{}) error {
	l.resetRecoveredState()
	if err := l.writeHeader(0, 0); err != nil {
		return err
	}
	return fmt.Errorf("%w: "+format, append([]interface{}{ErrCorrupt}, args...)...)
}

// resetRecoveredState clears every field derived from a recovered log body,
// leaving the log logically empty; the caller holds l.mu.
func (l *Log) resetRecoveredState() {
	l.tail = logHeaderSize
	l.reclaimOff = 0
	l.markOffs = nil
	l.markIdxs = nil
}

// setMarkBoundary records where generation markers sit in the recovered
// records (the per-epoch offset and index maps), with body offsets counted
// from base (the reclaimed start offset the records were decoded after); the
// caller holds l.mu.
func (l *Log) setMarkBoundary(recs []Record, base int64) {
	l.markOffs = make(map[uint64]int64)
	l.markIdxs = make(map[uint64]int)
	off := base
	for i, r := range recs {
		if r.Mark {
			l.markOffs[r.ObjectID] = off
			l.markIdxs[r.ObjectID] = i + 1
		}
		off += encodedSize(r)
	}
}

// rewrite replaces the committed log contents with recs; the caller holds
// l.mu.
func (l *Log) rewrite(recs []Record) error {
	buf := encodeRecords(recs)
	if logHeaderSize+int64(len(buf)) > l.size {
		return fmt.Errorf("wal: resealed log (%d bytes) exceeds the region", len(buf))
	}
	if len(buf) > 0 {
		if _, err := l.d.WriteAt(buf, l.start+logHeaderSize); err != nil {
			return err
		}
	}
	if err := l.writeHeader(int64(len(buf)), 0); err != nil {
		return err
	}
	l.tail = logHeaderSize + int64(len(buf))
	l.reclaimOff = 0
	l.setMarkBoundary(recs, 0)
	return nil
}

// Stats describes cumulative log activity.
type Stats struct {
	// Commits counts successful Commit calls (each one header update+flush).
	Commits uint64
	// Applies counts Truncate calls (the log being applied to home locations).
	Applies uint64
	// Appended counts records buffered via Append and AppendBatch.
	Appended uint64
	// Batches counts accepted AppendBatch calls and BatchRecords the records
	// appended through them; MaxBatch is the largest single batch.  These
	// count at the append layer — a batch whose Commit later fails is still
	// counted here (the store's committer stats count only committed
	// batches).  Appended ≫ Commits with Batches > 0 is group commit
	// working.
	Batches      uint64
	BatchRecords uint64
	MaxBatch     int
	// BatchBytes counts the encoded bytes appended through AppendBatch, so
	// bytes-per-flush is BatchBytes/Commits when all traffic is batched.
	BatchBytes uint64
	// Reclaims counts ReclaimBefore calls that advanced the start offset;
	// Compactions counts the physical dead-prefix compactions that followed
	// (here or opportunistically inside a would-be-full Commit).
	Reclaims    uint64
	Compactions uint64
}

// Stats returns cumulative commit, apply (truncate), append and batch counts.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Commits:      l.commits,
		Applies:      l.applies,
		Appended:     l.appended,
		Batches:      l.batches,
		BatchRecords: l.batchRecords,
		MaxBatch:     l.maxBatch,
		BatchBytes:   l.batchBytes,
		Reclaims:     l.reclaims,
		Compactions:  l.compactions,
	}
}

func encodeRecords(recs []Record) []byte {
	var total int64
	for _, r := range recs {
		total += encodedSize(r)
	}
	buf := make([]byte, 0, total)
	for _, r := range recs {
		var hdr [recHeaderSize]byte
		binary.LittleEndian.PutUint64(hdr[0:], r.ObjectID)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(r.Data)))
		binary.LittleEndian.PutUint16(hdr[12:], uint16(len(r.Label)))
		if r.Delete {
			hdr[14] |= flagDelete
		}
		if len(r.Label) > 0 {
			hdr[14] |= flagHasLabel
		}
		if r.Mark {
			hdr[14] |= flagMark
		}
		if r.Clone {
			hdr[14] |= flagClone
		}
		if r.Bundle {
			hdr[14] |= flagBundle
		}
		crc := crc32.NewIEEE()
		crc.Write(hdr[:15])
		crc.Write(r.Label)
		crc.Write(r.Data)
		binary.LittleEndian.PutUint32(hdr[15:], crc.Sum32())
		buf = append(buf, hdr[:]...)
		buf = append(buf, r.Label...)
		buf = append(buf, r.Data...)
	}
	return buf
}

// decodeRecords decodes records, returning the records decoded,
// the number of bytes consumed by them, and ErrCorrupt if damage stopped the
// decode early.
func decodeRecords(buf []byte) ([]Record, int64, error) {
	var out []Record
	var consumed int64
	for len(buf) > 0 {
		if len(buf) < recHeaderSize {
			return out, consumed, ErrCorrupt
		}
		id := binary.LittleEndian.Uint64(buf[0:])
		nd := int(binary.LittleEndian.Uint32(buf[8:]))
		nl := int(binary.LittleEndian.Uint16(buf[12:]))
		flags := buf[14]
		wantCRC := binary.LittleEndian.Uint32(buf[15:])
		if flags&^byte(flagDelete|flagHasLabel|flagMark|flagClone|flagBundle) != 0 {
			return out, consumed, ErrCorrupt
		}
		if (flags&flagHasLabel != 0) != (nl > 0) {
			return out, consumed, ErrCorrupt
		}
		if flags&flagMark != 0 && (flags != flagMark || nd != 0 || nl != 0) {
			// A generation marker carries nothing but the flag.
			return out, consumed, ErrCorrupt
		}
		if flags&flagClone != 0 && flags&(flagDelete|flagMark|flagBundle) != 0 {
			// A clone alias is neither a tombstone, a marker, nor a bundle.
			return out, consumed, ErrCorrupt
		}
		if flags&flagBundle != 0 && flags&^byte(flagBundle) != 0 {
			// Bundle metadata carries only its payload: no label, no other flag.
			return out, consumed, ErrCorrupt
		}
		if nd < 0 || len(buf) < recHeaderSize+nl+nd {
			return out, consumed, ErrCorrupt
		}
		lbl := buf[recHeaderSize : recHeaderSize+nl]
		data := buf[recHeaderSize+nl : recHeaderSize+nl+nd]
		crc := crc32.NewIEEE()
		crc.Write(buf[:15])
		crc.Write(lbl)
		crc.Write(data)
		if crc.Sum32() != wantCRC {
			return out, consumed, ErrCorrupt
		}
		r := Record{
			ObjectID: id,
			Delete:   flags&flagDelete != 0,
			Mark:     flags&flagMark != 0,
			Clone:    flags&flagClone != 0,
			Bundle:   flags&flagBundle != 0,
		}
		if nd > 0 {
			r.Data = append([]byte(nil), data...)
		}
		if nl > 0 {
			r.Label = append([]byte(nil), lbl...)
		}
		out = append(out, r)
		buf = buf[recHeaderSize+nl+nd:]
		consumed += recHeaderSize + int64(nl) + int64(nd)
	}
	return out, consumed, nil
}
