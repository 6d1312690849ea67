// Package store implements the HiStar single-level store (Sections 3 and 4):
// on bootup the entire system state is restored from the most recent on-disk
// snapshot, and all kernel objects are periodically checkpointed to disk.
// The layout follows the paper's description, inspired by XFS: a B+-tree
// maps object IDs to their location on disk, two more B+-trees maintain the
// free-extent list (indexed by size, for allocation, and by location, for
// coalescing).  Write-ahead logging provides atomicity and crash consistency,
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
//	[.., disk size)                 data region: segments + dedicated extents
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
// (currently 6), checkpoint epoch, payload length, section count, and a
// CRC32C over the header itself — followed by four tagged sections, each
// framed as [tag u64] [length u64] [CRC32C u64] [payload]: the object map
// (id plus home record — extent offset, size, contents CRC; the CRC, flagged
// by bit 32 of its field, is what every read of a home extent verifies
// against, and an entry without the flag is corruption); the free-extent
// list (offset, size); object labels (id, canonical label.AppendBinary
// bytes); and the segment table (base, size, used triples describing the
// append-only data segments).  Two entries of the object map may name one
// extent: that is all an alias is on disk.  Only primary facts are stored:
// the extent refcounts and the per-segment live counts are derived from
// these sections at open.
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
// # Aliases
//
// Alias (alias.go) is the one way two object IDs share bytes: the
// destination becomes an ordinary object whose home is the source's
// committed extent, in O(metadata) — no data is read or written — and from
// then on the two are peers: either may be rewritten (the ordinary
// dirty/relocate path gives it a private extent: copy-on-write at checkpoint
// granularity) or deleted, and the other keeps reading the shared bytes.  A
// snapshot, to the store, is nothing more than aliases somebody holds on to;
// a clone is an alias of one of those; dropping either is Delete.
//
// Sharing is tracked by extRefs, a refcount over extents with more than one
// referent (an absent entry means the single ordinary owner).  vacateExtent
// consults it first, so neither the deferred-free path nor the segment
// cleaner can reclaim bytes while any referent lives, and the cleaner leaves
// a segment holding a shared extent where it is rather than copy the extent
// out once per referent (see cleanSegments).
//
// Durability: an alias is acknowledged once a small self-contained WAL
// record — destination ID, home record, label — has committed.  It rides the
// group committer exactly as a sync record does (logged, in groupcommit.go)
// and, when the log has no room, is made durable by a checkpoint instead,
// which persists the installed home in the object map.  A record only ever
// names an extent the committed snapshot holds — an alias asked for while a
// checkpoint body is open waits the body out — and replay re-aliases it; a
// record whose extent the loaded snapshot does not hold quarantines the
// destination: a typed error, never silent bad bytes.
//
// Rot: a contents-CRC failure on a shared extent, whichever read path finds
// it, falls on every referent (condemn, in home.go): all are quarantined, so
// later aliases of any of them fail with a typed QuarantineError instead of
// silently fanning damaged bytes out.
//
// # Data region: segments
//
// Checkpoint relocations append object contents into fixed-size append-only
// segments (Options.SegmentSize, default 1 MB) at 512-byte granularity, so
// one checkpoint's home writes are a few sequential streams rather than one
// random extent per object; objects larger than half a segment keep the
// original dedicated-extent path.  Space behind deleted or superseded
// objects is reclaimed by a cleaner that runs inside the checkpoint body:
// fully dead segments are freed without copying, and segments at least half
// dead have their live objects appended out so the extent can be reclaimed.
// Segments are never overwritten in place — appends land only beyond the
// committed high-water mark, and vacated extents return to the free trees
// only after every data write of the checkpoint has issued — preserving the
// copy-on-write discipline that makes a crash at any write boundary leave
// the previously referenced snapshot intact.  See segment.go.
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
//     segments, persists the metadata trees, and updates the superblock
//     once.
//
// # Incremental checkpoints
//
// Checkpoint is not a stop-the-world pause.  The protocol has three
// phases (see checkpoint.go for the full invariant catalogue):
//
//   - SEAL, the only exclusive moment: a brief ckptMu write hold that takes
//     a fresh epoch — the one later log frames are stamped with — captures
//     the dirty set (clearing dirty, marking entries ckpt) and captures
//     every label.  Seal duration is proportional to the number of entries,
//     with no disk I/O at all.
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
// The store admits concurrent operations with the same discipline the
// kernel uses: no big lock, sharded tables, per-object state.  In order of
// acquisition:
//
//  1. ckptMu, a store-wide RWMutex, is the checkpoint gate: every object
//     operation (Put, Get, Delete, label ops, SyncObject, stats) holds it in
//     read mode for its duration.  Only the checkpoint SEAL and Close hold
//     it exclusively, and only briefly; the checkpoint body runs under no
//     ckptMu mode at all, serialized against other checkpoints by ckptRun.
//  2. Each cached object has its own entry (objEntry) with a per-entry
//     mutex guarding its contents, dirty/dead/ckpt flags, and label.
//     A put patches e.data in place, by the range it changed, unless the
//     entry's shared bit says a sealed whole log record or a checkpoint
//     capture aliases it past the entry lock; then it installs a fresh copy.
//  3. The entry table is sharded by object-ID bits.  Each shard's RWMutex
//     guards its id→entry map and is never held while acquiring an entry
//     lock — entry pointers are fetched under the shard read lock, which is
//     released before the entry is locked.
//  4. sbMu fences superblock and metadata-area device I/O: the checkpoint
//     body holds it across the snapshot write + superblock flip, and scrub
//     holds it while verifying those same regions, so scrub never reads a
//     torn in-progress image.
//  5. metaMu (RWMutex) guards the home table — the object map and each
//     object's home record, reached only through the accessors in home.go:
//     Get's home lookups take it shared, checkpoint relocation and Alias
//     take it exclusively per object — never across device I/O, which is
//     staged outside the lock.
//  6. allocMu guards the free-extent trees, the segment table, and the
//     deferred-free list.  Reads never touch it, so lookups never contend
//     with allocation.
//  7. The committer's queue mutex (see groupcommit.go) is a leaf below the
//     entry locks: records — syncs and aliases alike — are sealed and
//     enqueued under the entry lock so per-object log order matches seal
//     order.
//
// Under ckptMu held exclusively (the seal; Format and Open are
// single-threaded) entry locks are not required: entries are read and
// written directly.
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

	"histar/internal/btree"
	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/wal"
)

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

	// extentAlign is the allocation granularity.  HiStar's allocator does
	// not cluster small objects the way ext3's block groups do, which is the
	// effect behind the uncached small-file read gap in Figure 12; aligning
	// extents reproduces that dispersion.
	extentAlign = 8192
)

// Errors.
var (
	ErrNoSuchObject = errors.New("store: no such object")
	ErrNoSpace      = errors.New("store: out of disk space")
	ErrClosed       = errors.New("store: store is closed")
)

// Stats describes cumulative store activity.
type Stats struct {
	Puts            uint64
	Gets            uint64
	Deletes         uint64
	ObjectSyncs     uint64
	Checkpoints     uint64
	LogApplications uint64
	BytesLogged     uint64
	BytesHome       uint64
	// LabelBytesLogged counts canonical label bytes committed to the
	// write-ahead log.
	LabelBytesLogged uint64
	DirtyObjects     int
	LiveObjects      int
	// SealStallTotalNs and SealStallMaxNs measure the only exclusive moment
	// an incremental checkpoint has: the ckptMu write hold of the seal.
	// This is the store's "stop-the-world" budget — everything else in a
	// checkpoint runs concurrently with syncs and reads.
	SealStallTotalNs int64
	SealStallMaxNs   int64
	// BytesCleaned counts object bytes the segment cleaner copied out of
	// half-dead segments; together with BytesHome and MetaBytesWritten it
	// gives the checkpoint write-amplification picture.
	BytesCleaned     uint64
	MetaBytesWritten uint64
	// SegsAllocated / SegsCleaned / SegsFreed count data-region segments
	// created by the segment writer, compacted by the cleaner, and returned
	// to the free trees.
	SegsAllocated uint64
	SegsCleaned   uint64
	SegsFreed     uint64
}

type counters struct {
	puts, gets, deletes, objectSyncs atomic.Uint64
	checkpoints, logApplications     atomic.Uint64
	bytesLogged, bytesHome           atomic.Uint64
	labelBytesLogged                 atomic.Uint64

	sealStallTotalNs, sealStallMaxNs atomic.Int64
	bytesCleaned, metaBytesWritten   atomic.Uint64
	segsAllocated, segsCleaned       atomic.Uint64
	segsFreed                        atomic.Uint64
}

// Store is a single-level store on a simulated disk.  It is safe for
// concurrent use; see the package comment for the locking discipline.
type Store struct {
	d disk.Device
	l *wal.Log

	logSize  int64
	metaSize int64

	// ckptMu is the checkpoint gate (discipline rule 1).  closed is guarded
	// by it (read under R, written under W).
	ckptMu sync.RWMutex
	closed bool

	// ckptRun serializes checkpoint runs end to end (seal through finish);
	// ckptMu write mode covers only the seal, so without ckptRun two
	// concurrent Checkpoint calls could interleave their bodies.
	ckptRun sync.Mutex

	// epoch is the last seal attempt's epoch, which every log frame
	// committed since carries; each seal takes the next one.  A sync's
	// checkpoint fallback records it under ckptMu.R; the record is durably
	// covered once metaEpoch exceeds that value (a checkpoint sealed
	// strictly after the record was enqueued has committed).
	epoch atomic.Uint64

	logGen atomic.Uint64 // the log generation (see sealSync)

	// shards hold the in-memory object entries, partitioned by object-ID bits.
	shards [storeShards]storeShard

	// metaMu guards the home table (see home.go).
	metaMu sync.RWMutex
	objMap *btree.Tree     // object ID → extent offset, the paper's object map
	homes  map[uint64]home // object ID → home record; same key set as objMap

	// allocMu guards the free-extent trees, the segment table, and the
	// deferred-free list.
	allocMu    sync.Mutex
	freeBySize *btree.Tree // (size, offset) → 0
	freeByOff  *btree.Tree // (offset, 0) → size
	// deferredFree holds extents vacated during a checkpoint (relocations,
	// deletions, emptied segments) until every data write of that checkpoint
	// has issued; kept on the store, not the stack, so a failed checkpoint
	// retains them for the next attempt instead of leaking the space.
	deferredFree []extent
	// extRefs counts the object-map entries naming each shared home extent
	// (see Alias).  An absent entry means the ordinary single owner;
	// vacateExtent decrements before freeing, so a shared extent is reclaimed
	// only when its last referent lets go.  Rebuilt from the object map at
	// Open.
	extRefs map[int64]int64

	// The append-only data segments (see segment.go): segs maps base offset
	// to segment, segBases indexes the bases for containment lookups, and
	// openSegBase is the segment currently receiving appends (0 = none; the
	// data region never starts at offset 0).  Guarded by allocMu.
	segs        map[int64]*segment
	segBases    *btree.Tree
	openSegBase int64
	segSize     int64

	comm committer

	// sbMu fences superblock and metadata-area device I/O (discipline rule
	// 4): the checkpoint body's snapshot write + superblock flip and scrub's
	// verification of those regions exclude each other.
	sbMu sync.Mutex

	metaWhich int // which metadata area (0 or 1) the superblock references
	// metaEpoch is the checkpoint epoch recorded in the current superblock
	// and metadata-area headers.  Written under metaMu by the checkpoint
	// body (ckptRun-serialized); the body may read it without metaMu
	// because the previous body's release of ckptRun happens-before this
	// run's acquisition.
	metaEpoch uint64

	// Test hooks, set before the store is shared: scrubGate runs between
	// scrub chunks (no locks held), ckptGate between a checkpoint's seal and
	// body.
	scrubGate func()
	ckptGate  func()

	// report records the degradation-ladder rungs Open took; immutable once
	// the store is published.
	report RecoveryReport

	integ integrityCounters

	c counters
}

// Options configure Format and Open.
type Options struct {
	// LogSize is the size of the write-ahead log region (default 32 MB).
	LogSize int64
	// MetaAreaSize is the size of each of the two alternating metadata
	// areas (default 16 MB).  Format records it in the superblock; Open
	// reads it back, so the option only matters when formatting.
	MetaAreaSize int64
	// SegmentSize is the size of the append-only data segments checkpoint
	// relocation packs small objects into (default 1 MB, rounded up to the
	// extent alignment).  Runtime-only: each existing segment's geometry is
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

// storeShards (a power of two) keeps shard-lock collisions negligible at
// any realistic GOMAXPROCS while staying cheap to iterate for stats.
const storeShards = 32

// newStore builds the in-memory skeleton shared by Format and Open.
func newStore(d disk.Device, opts Options) *Store {
	segSize := opts.SegmentSize
	if segSize <= 0 {
		segSize = defaultSegmentSize
	}
	s := &Store{d: d, logSize: opts.LogSize, metaSize: opts.MetaAreaSize, segSize: alignUp(segSize)}
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
	dataStart := logOffset + opts.LogSize + 2*s.metaSize
	s.addFree(extent{off: dataStart, size: d.Size() - dataStart})
	if err := s.writeSnapshot(s.epoch.Add(1), nil); err != nil {
		return nil, err
	}
	return s, nil
}

// resetTables (re)initializes every table a metadata image decodes into, so
// a fallback area decodes into a clean store after a failed first attempt.
func (s *Store) resetTables() {
	s.objMap = &btree.Tree{}
	s.homes = make(map[uint64]home)
	s.freeBySize = &btree.Tree{}
	s.freeByOff = &btree.Tree{}
	s.extRefs = make(map[int64]int64)
	s.segs = make(map[int64]*segment)
	s.segBases = &btree.Tree{}
	s.openSegBase = 0
	for i := range s.shards {
		s.shards[i].objs = make(map[uint64]*objEntry)
	}
}

// Disk returns the underlying device.
func (s *Store) Disk() disk.Device { return s.d }

// Stats returns a snapshot of store statistics.
func (s *Store) Stats() Stats {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	st := Stats{
		Puts:             s.c.puts.Load(),
		Gets:             s.c.gets.Load(),
		Deletes:          s.c.deletes.Load(),
		ObjectSyncs:      s.c.objectSyncs.Load(),
		Checkpoints:      s.c.checkpoints.Load(),
		LogApplications:  s.c.logApplications.Load(),
		BytesLogged:      s.c.bytesLogged.Load(),
		BytesHome:        s.c.bytesHome.Load(),
		LabelBytesLogged: s.c.labelBytesLogged.Load(),
		SealStallTotalNs: s.c.sealStallTotalNs.Load(),
		SealStallMaxNs:   s.c.sealStallMaxNs.Load(),
		BytesCleaned:     s.c.bytesCleaned.Load(),
		MetaBytesWritten: s.c.metaBytesWritten.Load(),
		SegsAllocated:    s.c.segsAllocated.Load(),
		SegsCleaned:      s.c.segsCleaned.Load(),
		SegsFreed:        s.c.segsFreed.Load(),
	}
	// Entry locks first, metaMu second: the entry→metaMu order matches
	// Get's page-in path, so a pending metaMu writer can never wedge
	// between the two.
	var dirtyIDs []uint64
	for si := range s.shards {
		for _, e := range s.shards[si].snapshot() {
			e.entry.mu.Lock()
			if e.entry.dirty {
				dirtyIDs = append(dirtyIDs, e.id)
			}
			e.entry.mu.Unlock()
		}
	}
	st.DirtyObjects = len(dirtyIDs)
	s.metaMu.RLock()
	st.LiveObjects = s.objMap.Len()
	for _, id := range dirtyIDs {
		if _, ok := s.homeOf(id); !ok {
			st.LiveObjects++
		}
	}
	s.metaMu.RUnlock()
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
// under one entry-lock hold, so a concurrent SyncObject can never seal the
// new contents with the old (or no) label — the same atomicity the log
// record format provides on disk.
func (s *Store) PutLabeled(id uint64, lbl label.Label, data []byte, lo, hi int) error {
	return s.put(id, data, &lbl, lo, hi)
}

// put installs new contents and, when lbl is not nil, the label, and adds
// [lo, hi) — all of it, when the length changed or nothing was resident — to
// the bytes changed since the last log record.
func (s *Store) put(id uint64, data []byte, lbl *label.Label, lo, hi int) error {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	e := s.shardOf(id).getOrCreate(id)
	e.mu.Lock()
	defer e.mu.Unlock()
	fresh := !e.cached || len(data) != len(e.data)
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
	if fresh || e.shared {
		e.data, e.shared = append([]byte(nil), data...), false
	} else if lo < hi {
		copy(e.data[lo:hi], data[lo:hi])
	}
	e.cached, e.dirty, e.dead = true, true, false
	// New contents supersede a damaged home extent: lift the quarantine.
	e.quar = false
	s.c.puts.Add(1)
	if lbl != nil {
		e.lbl, e.hasLbl = *lbl, true
	}
	return nil
}

// Get returns the contents of an object, reading it from disk if it is not
// cached.
func (s *Store) Get(id uint64) ([]byte, error) { return s.get(id, true) }

// PageIn makes the object's contents resident, paying the home extent's read
// when they are not (Section 7.1: whole-object paging).  It fails only for
// damage: the kernel goes on to read its own bytes, so an object the store
// does not hold is no error, but a home extent that fails verification is
// one a real kernel would refuse to page in.
func (s *Store) PageIn(id uint64) error {
	if _, err := s.get(id, false); errors.Is(err, ErrCorrupt) {
		return err
	}
	return nil
}

// get is Get, or with want false PageIn: resident contents are not copied out.
func (s *Store) get(id uint64, want bool) ([]byte, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.c.gets.Add(1)
	sh := s.shardOf(id)
	e := sh.lookup(id)
	if e == nil {
		// No in-memory state at all: the object exists only if it has a
		// committed home.
		if _, ok := s.lookupHome(id); !ok {
			return nil, ErrNoSuchObject
		}
		e = sh.getOrCreate(id)
	}
	buf, h, err := s.pageIn(id, e, want)
	var rot *CorruptError
	if errors.As(err, &rot) {
		// The verdict falls on every referent of the extent, this object
		// included; condemn takes their entry locks one at a time.
		s.condemn(h.off)
		return nil, &QuarantineError{ID: id, Detail: rot.Error()}
	}
	return buf, err
}

// pageIn returns a copy of the object's contents (nil when the caller does
// not want one), reading and verifying the home extent (whose record it also
// returns) into the resident copy when they are not resident.  The entry lock
// is held across the read so concurrent misses do one disk read.
func (s *Store) pageIn(id uint64, e *objEntry, want bool) ([]byte, home, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.cached && !want:
		return nil, home{}, nil
	case e.cached:
		return append([]byte(nil), e.data...), home{}, nil
	case e.dead:
		return nil, home{}, ErrNoSuchObject
	case e.quar:
		return nil, home{}, &QuarantineError{ID: id, Detail: "home extent failed verification"}
	}
	h, ok := s.lookupHome(id)
	if !ok {
		return nil, h, ErrNoSuchObject
	}
	buf, err := s.readVerified(h)
	if err != nil {
		return nil, h, err
	}
	e.data, e.cached, e.shared = buf, true, false
	if !want {
		return nil, h, nil
	}
	return append([]byte(nil), buf...), h, nil
}

// Label returns the stored label of an object, if one was recorded.
func (s *Store) Label(id uint64) (label.Label, bool) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	e := s.shardOf(id).lookup(id)
	if e == nil {
		return label.Label{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lbl, e.hasLbl
}

// EvictCache drops all clean objects from the in-memory cache, forcing
// subsequent Gets to hit the disk (used by the uncached read benchmarks).
// Labels stay resident: only contents are evicted.
func (s *Store) EvictCache() {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	for si := range s.shards {
		for _, se := range s.shards[si].snapshot() {
			se.entry.mu.Lock()
			// A checkpoint-sealed entry's resident copy is the only copy of
			// its sealed state until the body writes it home: never evictable.
			if se.entry.cached && !se.entry.dirty && !se.entry.ckpt {
				se.entry.data, se.entry.cached = nil, false
			}
			se.entry.mu.Unlock()
		}
	}
}

// Delete removes an object.
func (s *Store) Delete(id uint64) error {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.c.deletes.Add(1)
	e := s.shardOf(id).getOrCreate(id)
	e.mu.Lock()
	e.data, e.cached, e.dirty, e.dead, e.deadSealed = nil, false, false, true, false
	e.quar = false // deletion disposes of the damaged extent
	e.lbl, e.hasLbl = label.Label{}, false
	e.mu.Unlock()
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
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	var total int64
	s.freeByOff.Scan(func(_ btree.Key, v uint64) bool {
		total += int64(v)
		return true
	})
	return total
}
