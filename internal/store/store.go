// Package store implements the HiStar single-level store (Sections 3 and 4):
// on bootup the entire system state is restored from the most recent on-disk
// snapshot, and all kernel objects are periodically checkpointed to disk.
// The layout follows the paper's description, inspired by XFS: an object map
// gives each object ID its location on disk (the paper's B+-tree; here one
// slice in ID order, see home.go), and a free-extent list tracks
// the unused space (the paper's two B+-trees, by size and by location; here
// one offset-ordered slice that a best-fit scan allocates from, derived from
// the object map and the segment table rather than stored, see alloc.go).  Write-ahead logging provides atomicity and crash consistency,
// and disk space allocation is delayed until an object is written to disk,
// making it easier to allocate contiguous extents.
//
// # On-disk layout
//
// The disk is divided into four fixed regions followed by the data region:
//
//	[0, 4096)                       superblock (two checksummed copies)
//	[4096, 4096+logSize)            write-ahead log (see package wal)
//	[.., .. + metaSize)             metadata area 0
//	[.., .. + metaSize)             metadata area 1
//	[.., disk size)                 data region: segments
//
// The superblock sector holds two identical 64-byte copies, at offsets 0
// and 512, each independently protected by a CRC32C over its first 56
// bytes.  A copy's fields are little-endian u64s: the magic "HIST", which
// metadata area the current snapshot lives in, the snapshot's byte length,
// the log region size, the metadata area size, the format version
// (currently 2), and the checkpoint epoch; the CRC32C sits in the final
// u32.  Open uses whichever copy verifies (preferring the higher epoch if
// both do), so a single rotted sector never loses the root of the store.
//
// Each metadata area starts with a 48-byte header — magic "HMET", version
// (currently 9), checkpoint epoch, payload length, section count, and a
// CRC32C over the header itself — followed by two tagged sections, each
// framed as [tag u64] [length u64] [CRC32C u64] [payload]: the object map
// (one record per object: id, extent offset, size and the CRC field, then,
// when bit 33 of that field says so, the canonical label.AppendBinary bytes;
// the CRC, flagged by bit 32, is what every read of a home extent verifies
// against, and a record without the flag, or with any higher bit, is
// corruption); and the segment table (base, size, used triples describing the
// append-only data segments).  Every home lies in a segment, and no two
// entries of the object map name one extent.  Only primary facts are stored:
// the free-extent list and the per-segment live counts are derived from these
// sections at open.
// format.go holds every one of these layouts and is the only file that
// reads or writes them.  Checkpoints serialize into the area the superblock
// does NOT reference, flush, then rewrite both superblock copies with the
// bumped epoch, so a crash mid-checkpoint always leaves one intact,
// referenced snapshot.
//
// A superblock copy or metadata header that verifies but names any other
// version is refused as corruption — nothing is ever loaded unverified.
// See doc.go for the full integrity reference: the degradation ladder Open
// walks when verification fails, and the quarantine semantics for damaged
// object extents.
//
// # Data region: segments
//
// Checkpoint relocations append object contents, in the order the objects
// changed, into fixed-size append-only segments (Options.SegmentSize,
// default 1 MB) at 512-byte granularity: a few sequential streams, with files
// written together homed together.  An object larger than half a segment,
// or any object once no free extent holds a whole segment, takes a segment of
// its own, sized to it.  Space behind deleted or superseded objects is
// reclaimed by a cleaner inside the checkpoint body: fully dead segments are
// freed without copying, and each segment at least half dead has its live
// objects read in one sweep, in offset order, then appended out.
// Segments are never overwritten in place — appends land only beyond the
// committed high-water mark, and vacated extents are free only once the
// checkpoint's snapshot commits — preserving the copy-on-write discipline
// that makes a crash at any write boundary leave the previously referenced
// snapshot intact.  See segment.go.
//
// Three durability modes mirror the evaluation's LFS variants:
//
//   - asynchronous: Put buffers in memory; nothing reaches disk until a
//     checkpoint.
//   - per-object sync: SyncObject appends the object — contents and label
//     in one record, so a crash can never resurrect an object without its
//     taint — to the write-ahead log through the group committer and waits
//     for the batch commit: concurrent syncers share one sequential write
//     plus flush; it logs only the bytes that changed when it can (sealSync).
//   - group sync: Checkpoint seals the dirty set, writes it to home
//     segments, persists the metadata snapshot, and updates the superblock
//     once.
//
// # Incremental checkpoints
//
// Checkpoint is not a stop-the-world pause.  The protocol has three
// phases (see checkpoint.go for the full invariant catalogue):
//
//   - SEAL, the only exclusive moment: a brief ckptMu write hold that takes
//     a fresh epoch — the one later log frames are stamped with — and
//     captures the dirty set (clearing dirty, marking entries ckpt).  It
//     walks only the entries changed since the last seal (Store.changed):
//     its duration is proportional to them, with no disk I/O at all.
//   - BODY, concurrent with everything: relocates the sealed entries into
//     segments, runs the segment cleaner, and writes the metadata snapshot
//     for the sealed epoch while reads, Puts, and SyncObject group commits
//     proceed under ckptMu read mode.
//     Bodies of different checkpoints are serialized by ckptRun.
//   - FINISH: reclaims write-ahead log frames of epochs older than the
//     previous committed snapshot's (its own are retained so a torn
//     metadata area can fall back one snapshot with zero committed-sync
//     loss).
//
// Log records of the seal's epoch or later carry state the sealed snapshot
// may not include, and replay on top of it at Open; records of older epochs
// are reclaimable once the snapshot commits.
//
// # Locking discipline
//
// Four locks, in order of acquisition:
//
//  1. ckptRun serializes whole checkpoints, seal through finish: Checkpoint,
//     Close and a sync's checkpoint fallback.  It is also the fence on
//     superblock and metadata-area device I/O: only a checkpoint body (and
//     single-threaded Format) writes those regions, so Scrub holds ckptRun
//     while it verifies them and never reads a torn in-progress image.
//  2. ckptMu, a RWMutex, is the checkpoint gate: Put, Get, Delete, scrub
//     chunks and every logged operation hold it in read mode, a logged one
//     from its first seal to its last commit.  Only the checkpoint SEAL and
//     Close hold it exclusively, and only briefly; the checkpoint body runs
//     under no mode of it.
//  3. mu guards every in-memory table: the object entries (objEntry), the
//     home table and the committed snapshot's place (metaWhich, metaEpoch),
//     the free list and the segment table.  It is never held across a
//     device write or flush: the checkpoint body issues each write outside
//     it and takes it to record where the bytes went.  Get holds it across a
//     home read, so no put, delete or relocation lands between the lookup
//     and the read.
//  4. The committer's queue mutex (see groupcommit.go) is a leaf below mu:
//     records are sealed and enqueued under mu, so per-object log order
//     matches seal order.
//
// Format and Open are single-threaded: they touch the tables without mu.
//
// Recovery (Open, in open.go) loads the snapshot the superblock references
// and replays the committed write-ahead log records of that snapshot's epoch
// or later on top of it, restoring each logged object's label.  The crash-injection
// harness in this package's tests replays every write-boundary crash point
// of randomized workloads — concurrent ones included — to check exactly
// this path.
package store

import (
	"errors"
	"sync"
	"sync/atomic"

	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/wal"
)

// objEntry is the in-memory state of one object: flags, the recorded label,
// and the contents while no committed home holds them (resident).  An object
// has one only while it holds state the committed snapshot lacks — dirty,
// dead, or sealed into a checkpoint that has not committed — or a quarantine
// verdict; otherwise its home record is all there is to know.  Every field
// is guarded by the store's mu.  A put patches data in place unless
// shared says a sealed whole log record or checkpoint capture still holds it;
// then data is replaced, never mutated.
type objEntry struct {
	data   []byte
	shared bool   // a sealed record or checkpoint capture aliases data
	dirty  bool   // modified since the last checkpoint seal
	dead   bool   // deleted since the last checkpoint seal
	lbl    []byte // the label, encoded canonically (nil: none)
	// quar marks an object whose home-extent contents failed checksum
	// verification: accesses that would read the damaged extent return
	// ErrQuarantined instead of corrupt bytes, until a Put/Delete replaces
	// the contents.  The flag never blocks a resident copy.
	quar bool
	// ckpt marks an entry sealed into the running incremental checkpoint:
	// until the snapshot naming the sealed state's new home commits, no
	// durable home holds that state, so the entry keeps its copy (a Get
	// reads it, a sync logs it) and condemn leaves it alone.  Cleared by
	// releaseSealed, or by restoreSealed if the checkpoint fails.
	ckpt   bool
	listed bool // on the changed list (touch)

	lo, hi int    // [lo, hi) changed since the last log record (empty: lo >= hi)
	base   uint64 // the log generation of the last whole record
}

// resident reports whether the entry holds the object's contents (data ==
// nil cannot say: an empty object's contents are nil too).
func (e *objEntry) resident() bool { return (e.dirty || e.ckpt) && !e.dead }

// entry returns id's entry, creating one if there is none, with the label
// its home records; the caller holds mu.
func (s *Store) entry(id uint64) *objEntry {
	e := s.objs[id]
	if e == nil {
		e = &objEntry{}
		if i, ok := s.homeAt(id); ok {
			e.lbl = s.homes[i].lbl
		}
		s.objs[id] = e
		s.touch(id, e)
	}
	return e
}

// touch puts an entry on the changed list the next seal walks: every entry
// created, made dirty or dead since the last seal is on it.  Caller holds mu.
func (s *Store) touch(id uint64, e *objEntry) {
	if !e.listed {
		e.listed = true
		s.changed = append(s.changed, id)
	}
}

// Layout constants.
const (
	superblockOffset = 0
	superblockSize   = 4096
	logOffset        = superblockSize
	defaultLogSize   = 32 << 20 // 32 MB log region

	// defaultMetaAreaSize is the default size of each of the two alternating
	// metadata areas; checkpoints write the serialized metadata into the
	// area not referenced by the current superblock, then flip the
	// superblock, so a crash mid-checkpoint always leaves one intact copy.
	defaultMetaAreaSize = 16 << 20
)

// Errors.
var (
	ErrNoSuchObject = errors.New("store: no such object")
	ErrNoSpace      = errors.New("store: out of disk space")
	ErrClosed       = errors.New("store: store is closed")
)

// Stats describes cumulative store activity.
type Stats struct {
	ObjectSyncs uint64
	Checkpoints uint64
	BytesLogged uint64
	BytesHome   uint64
	LiveObjects int
	// SealStallMaxNs measures the only exclusive moment an incremental
	// checkpoint has: the ckptMu write hold of the seal.  This is the
	// store's "stop-the-world" budget — everything else in a checkpoint
	// runs concurrently with syncs and reads.
	SealStallMaxNs int64
	// BytesCleaned counts object bytes the segment cleaner copied out of
	// half-dead segments; together with BytesHome and MetaBytesWritten it
	// gives the checkpoint write-amplification picture.
	BytesCleaned     uint64
	MetaBytesWritten uint64
	// SegsCleaned counts data-region segments the cleaner compacted.
	SegsCleaned uint64
	// CorruptionsDetected counts every checksum or structural failure the
	// store has detected (at open, on access, or during scrubs);
	// QuarantineEvents counts objects placed in quarantine.
	CorruptionsDetected uint64
	QuarantineEvents    uint64
}

type counters struct {
	objectSyncs, checkpoints       atomic.Uint64
	bytesLogged, bytesHome         atomic.Uint64
	sealStallMaxNs                 atomic.Int64
	bytesCleaned, metaBytesWritten atomic.Uint64
	segsCleaned                    atomic.Uint64
	corruptions, quarantines       atomic.Uint64
}

// Store is a single-level store on a simulated disk.  It is safe for
// concurrent use; see the package comment for the locking discipline.
type Store struct {
	d disk.Device
	l *wal.Log

	logSize  int64
	metaSize int64

	// ckptMu is the checkpoint gate (discipline rule 2).  closed is guarded
	// by it (read under R, written under W).
	ckptMu sync.RWMutex
	closed bool

	// ckptRun serializes checkpoint runs end to end (seal through finish);
	// ckptMu write mode covers only the seal, so without ckptRun two
	// concurrent Checkpoint calls could interleave their bodies.  Scrub
	// holds it to verify the regions only a checkpoint body writes
	// (discipline rule 1).
	ckptRun sync.Mutex

	// epoch is the last seal attempt's epoch, which every log frame
	// committed since carries; each seal takes the next one.  A sync's
	// checkpoint fallback records it under ckptMu.R; the record is durably
	// covered once metaEpoch exceeds that value (a checkpoint sealed
	// strictly after the record was enqueued has committed).
	epoch atomic.Uint64

	logGen atomic.Uint64 // the log generation (see sealSync)

	syncers atomic.Int64 // goroutines inside logged (see awaitCommit)

	// mu guards all of the store's in-memory state (discipline rule 3).
	mu      sync.Mutex
	objs    map[uint64]*objEntry // object ID → in-memory entry
	changed []uint64             // the entries touched since the last seal
	homes   []homedObject        // the paper's object map, ascending by ID (home.go)
	img     []byte               // the last metadata image (encodeMetadata)
	spare   []homedObject        // the home table's other buffer (mergeHomes)

	free []extent // the free extents, ascending by offset (see alloc.go)

	// The append-only data segments (see segment.go), ascending by base, and
	// the one currently receiving appends (nil = none).
	segs    []*segment
	openSeg *segment
	segSize int64

	comm committer

	metaWhich int // which metadata area (0 or 1) the superblock references
	// metaEpoch is the checkpoint epoch recorded in the current superblock
	// and metadata-area headers.  The checkpoint body writes it and
	// metaWhich under mu with ckptRun held, so either lock suffices to read
	// them; the body itself reads them bare.
	metaEpoch uint64

	// Test hooks, set before the store is shared: scrubGate runs between
	// scrub chunks (no locks held), ckptGate between a checkpoint's seal and
	// body.
	scrubGate func()
	ckptGate  func()

	// report records the degradation-ladder rungs Open took; immutable once
	// the store is published.
	report RecoveryReport

	c counters
}

// Options configure Format and Open.  Open reads only SegmentSize: the log
// and metadata geometry come from the superblock Format wrote.
type Options struct {
	// LogSize is the size of the write-ahead log region (default 32 MB).
	LogSize int64
	// MetaAreaSize is the size of each of the two alternating metadata
	// areas (default 16 MB).
	MetaAreaSize int64
	// SegmentSize is the size of the append-only data segments checkpoint
	// relocation packs objects into (default 1 MB, rounded up to a sector).  Runtime-only: each existing segment's geometry is
	// persisted in the metadata snapshot, so reopening under a different
	// SegmentSize affects only newly allocated segments.
	SegmentSize int64
}

// defaultSegmentSize balances sequential checkpoint writes against cleaner
// copy granularity.
const defaultSegmentSize = 1 << 20

// One group-commit batch holds at most groupCommitBytes of encoded records
// (but always at least one record) and at most groupCommitRecords records.
const (
	groupCommitBytes   = 1 << 20
	groupCommitRecords = 128
)

// newStore builds the in-memory skeleton shared by Format and Open.
func newStore(d disk.Device, opts Options) *Store {
	segSize := opts.SegmentSize
	if segSize <= 0 {
		segSize = defaultSegmentSize
	}
	s := &Store{d: d, logSize: opts.LogSize, metaSize: opts.MetaAreaSize, segSize: align512(segSize)}
	s.logGen.Store(1) // an entry's base 0 names no generation
	s.resetTables()
	s.comm.maxBytes, s.comm.maxRecs = groupCommitBytes, groupCommitRecords
	return s
}

// Format initializes an empty single-level store on d, erasing any previous
// contents, and returns it ready for use.
func Format(d disk.Device, opts Options) (*Store, error) {
	if opts.LogSize == 0 {
		opts.LogSize = defaultLogSize
	}
	if opts.MetaAreaSize == 0 {
		opts.MetaAreaSize = defaultMetaAreaSize
	}
	s := newStore(d, opts)
	l, err := wal.New(d, logOffset, opts.LogSize)
	if err != nil {
		return nil, err
	}
	s.l = l
	if err := s.writeSnapshot(s.epoch.Add(1)); err != nil {
		return nil, err
	}
	return s, nil
}

// resetTables (re)initializes every table a metadata image decodes into, so
// a fallback area decodes into a clean store after a failed first attempt.
func (s *Store) resetTables() {
	s.homes, s.changed = nil, nil
	s.free = nil
	s.segs = nil
	s.openSeg = nil
	s.objs = make(map[uint64]*objEntry)
}

// Disk returns the underlying device.
func (s *Store) Disk() disk.Device { return s.d }

// Stats returns a snapshot of store statistics.
func (s *Store) Stats() Stats {
	st := Stats{
		ObjectSyncs:         s.c.objectSyncs.Load(),
		Checkpoints:         s.c.checkpoints.Load(),
		BytesLogged:         s.c.bytesLogged.Load(),
		BytesHome:           s.c.bytesHome.Load(),
		SealStallMaxNs:      s.c.sealStallMaxNs.Load(),
		BytesCleaned:        s.c.bytesCleaned.Load(),
		MetaBytesWritten:    s.c.metaBytesWritten.Load(),
		SegsCleaned:         s.c.segsCleaned.Load(),
		CorruptionsDetected: s.c.corruptions.Load(),
		QuarantineEvents:    s.c.quarantines.Load(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Live is what a Get finds: the homes, less the objects deleted since
	// the last checkpoint, plus those written (or sealed into the running
	// checkpoint) that have no home yet.
	st.LiveObjects = len(s.homes)
	for id, e := range s.objs {
		_, home := s.homeOf(id)
		switch {
		case e.dead && home:
			st.LiveObjects--
		case !e.dead && (e.dirty || e.ckpt) && !home:
			st.LiveObjects++
		}
	}
	return st
}

// WALStats returns the write-ahead log's cumulative counters.
func (s *Store) WALStats() wal.Stats { return s.l.Stats() }

// Put stores (or replaces) the contents of an object in memory.  Nothing is
// written to disk until SyncObject or a checkpoint, mirroring HiStar's
// delayed allocation.
func (s *Store) Put(id uint64, data []byte) error { return s.put(id, data, nil, 0, len(data)) }

// PutLabeled is Put plus recording the object's information-flow label, and
// the caller's word that only bytes [lo, hi) differ from its last put.
// Labels are serialized in their canonical sorted form (into every SyncObject
// log record, and into the metadata snapshot at checkpoint) and decoded
// without sorting on load.  Contents and label are installed
// under one hold of mu, so a concurrent SyncObject can never seal the
// new contents with the old (or no) label — the same atomicity the log
// record format provides on disk.
func (s *Store) PutLabeled(id uint64, lbl label.Label, data []byte, lo, hi int) error {
	return s.put(id, data, lbl.AppendBinary(nil), lo, hi)
}

// put installs new contents and, when lbl (encoded) is not nil, the label,
// and adds [lo, hi) — all of it, when the length changed or nothing was
// resident — to the bytes changed since the last log record.
func (s *Store) put(id uint64, data []byte, lbl []byte, lo, hi int) error {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	// A put of every byte copies them before taking mu, so that no other
	// operation waits on the copy; a range put patches under mu.
	var whole []byte
	if lo <= 0 && hi >= len(data) {
		whole = append([]byte(nil), data...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entry(id)
	fresh := !e.resident() || len(data) != len(e.data)
	if fresh {
		e.lo, e.hi = 0, len(data)
	} else if lo, hi = max(lo, 0), min(hi, len(data)); lo < hi {
		if e.lo >= e.hi {
			e.lo, e.hi = lo, hi
		}
		e.lo, e.hi = min(e.lo, lo), max(e.hi, hi)
	}
	// Patch [lo, hi) in place — the caller vouches for every other byte —
	// unless a sealed record or checkpoint capture still holds the slice.
	if whole != nil {
		e.data, e.shared = whole, false
	} else if fresh || e.shared {
		e.data, e.shared = append([]byte(nil), data...), false
	} else if lo < hi {
		copy(e.data[lo:hi], data[lo:hi])
	}
	e.dirty, e.dead = true, false
	s.touch(id, e)
	// New contents supersede a damaged home extent: lift the quarantine.
	e.quar = false
	if lbl != nil {
		e.lbl = lbl
	}
	return nil
}

// Get returns a copy of an object's contents: the resident copy, or else the
// home extent, read and verified on every call and kept nowhere (the kernel's
// page-in).  A home extent that fails verification condemns its objects.
func (s *Store) Get(id uint64) ([]byte, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, err := s.read(id)
	var rot *CorruptError
	if errors.As(err, &rot) {
		s.condemn(id)
		return nil, &QuarantineError{ID: id, Detail: rot.Error()}
	}
	return buf, err
}

// read is Get under ckptMu and mu.
func (s *Store) read(id uint64) ([]byte, error) {
	if e := s.objs[id]; e != nil {
		switch {
		case e.dead:
			return nil, ErrNoSuchObject
		case e.resident():
			return append([]byte(nil), e.data...), nil
		case e.quar:
			return nil, &QuarantineError{ID: id, Detail: "home extent failed verification"}
		}
	}
	h, ok := s.homeOf(id)
	if !ok {
		return nil, ErrNoSuchObject
	}
	return s.readVerified(h)
}

// Label returns the stored label of an object, if one was recorded: its
// entry's, or else its home's.
func (s *Store) Label(id uint64) (label.Label, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var enc []byte
	if e := s.objs[id]; e != nil {
		enc = e.lbl
	} else if i, ok := s.homeAt(id); ok {
		enc = s.homes[i].lbl
	}
	if enc == nil {
		return label.Label{}, false
	}
	lbl, _, err := label.DecodeBinary(enc)
	return lbl, err == nil
}

// EvictCache does nothing: the store keeps no clean contents to drop, so a
// Get of a clean object reads its home extent already.  It stays only until
// the benchmark stops calling it (ROADMAP item 19).
func (s *Store) EvictCache() {}

// Delete removes an object.
func (s *Store) Delete(id uint64) error {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entry(id)
	s.touch(id, e)
	e.data, e.dirty, e.dead = nil, false, true
	e.quar = false // deletion disposes of the damaged extent
	e.lbl = nil
	return nil
}

// Close checkpoints and marks the store closed.
func (s *Store) Close() error {
	if err := s.Checkpoint(); err != nil {
		return err
	}
	s.ckptMu.Lock()
	s.closed = true
	s.ckptMu.Unlock()
	return nil
}

// FreeBytes returns the total free space in the data region.
func (s *Store) FreeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, e := range s.free {
		total += e.size
	}
	return total
}
