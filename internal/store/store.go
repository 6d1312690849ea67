// Package store implements the HiStar single-level store (Sections 3 and 4):
// on bootup the entire system state is restored from the most recent on-disk
// snapshot, and all kernel objects are periodically checkpointed to disk.  As
// in the paper, an object map gives each object ID its location on disk (its
// B+-tree is here one slice in ID order, home.go), a free-extent list tracks
// unused space (derived from the segment table, not stored, alloc.go),
// write-ahead logging provides atomicity and crash consistency, and disk
// space is allocated only when an object is written to disk.
//
// # On-disk layout
//
//	[0, 4096)                       superblock (two checksummed copies)
//	[4096, 4096+logSize)            write-ahead log (see package wal)
//	[4096+logSize, disk size)       data region: segments
//
// The superblock names the current base's extent and the previous one's, the
// base's epoch and its chain id.  A base is a whole snapshot: a chain record
// of every row — per object its extent, size, contents CRC and label, and
// per segment its extent and used mark — that pins the chain before it.
// Every checkpoint after a base writes into the data region, beside its
// objects, a run header and a delta: a record of the same format holding the
// rows it changed.  Each run header lies at the sector the record before it
// reserved, so Open applies the base to empty tables and each delta after
// it.  Once the chain holds maxChainLinks deltas or more bytes than half the
// base, counted as at least a segment, a checkpoint writes a new base, placed
// like a delta, and flips the superblock.  format.go holds every layout and
// is the only file that reads or writes them; doc.go is the integrity
// reference.
//
// # Data region: segments
//
// Checkpoints append object contents, in the order the objects changed, into
// append-only segments (Options.SegmentSize, default 1 MB) at 512-byte
// granularity, so files written together are homed together.  An object
// larger than half a segment, or any object once no free extent holds a
// whole segment, takes a segment of its own.  A cleaner in the checkpoint
// body drops dead segments and, once the packed segments fall under a third
// live or free segments run short, moves the live objects out of the
// emptiest ones.
// Nothing is overwritten in place, so a crash at any write boundary leaves
// the committed snapshot intact (segment.go).
//
// Three durability modes mirror the evaluation's LFS variants: Put buffers
// in memory until a checkpoint; SyncObject appends the object, contents and
// label in one record, to the write-ahead log through the group committer
// (groupcommit.go); Checkpoint seals the dirty set and commits it as one
// delta.  Checkpoints do not stop the world (checkpoint.go): log records of
// the seal's epoch or later replay on top of its snapshot at Open (open.go).
//
// # Locking discipline
//
// Four locks, in order of acquisition:
//
//  1. ckptRun serializes whole checkpoints: Checkpoint, Close and a sync's
//     checkpoint fallback.  Only a checkpoint body (and Format) writes the
//     superblock, the bases and the chain, so Scrub holds ckptRun while it
//     verifies them.
//  2. ckptMu, a RWMutex, is the checkpoint gate, and only three take it:
//     SyncObjects in read mode, from its first seal to its last ticket, so
//     no SEAL falls between sealing a record and committing it; the SEAL
//     and Close exclusively, and briefly.  Put, Get, Delete and Scrub meet
//     the seal under mu alone, so none of them queues behind a seal that
//     waits out a sync's flush.
//  3. mu guards every in-memory table.  It is never held across a device
//     write or flush; Get holds it across a home read, so no put, delete or
//     relocation lands between the lookup and the read.
//  4. The committer's queue mutex (groupcommit.go) is a leaf below mu:
//     records are sealed and enqueued under mu, so per-object log order
//     matches seal order.
//
// Format and Open are single-threaded: they touch the tables without mu.
package store

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/wal"
)

// objEntry is the in-memory state of one object, guarded by mu: flags, the
// label, and the contents while no committed home holds them (resident).  An
// object has one only while it holds state the committed snapshot lacks, or
// a quarantine verdict.  A put patches data in place unless shared says the
// array is the kernel's, handed over frozen, or a sealed record or checkpoint
// capture holds it; then data is replaced.
type objEntry struct {
	data   []byte
	shared bool   // data is a handed array, or a sealed record or capture aliases it
	dirty  bool   // modified since the last checkpoint seal
	dead   bool   // deleted since the last checkpoint seal
	lbl    []byte // the label, encoded canonically (nil: none)
	// quar marks an object whose home extent failed verification: reads of
	// the extent return ErrQuarantined until a Put or Delete replaces it.
	quar bool
	// ckpt marks an entry sealed into the running checkpoint: until its
	// delta commits, the entry keeps its copy (a Get reads it, a sync logs
	// it) and condemn leaves it alone.
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
	// SealStallMaxNs is the longest ckptMu write hold of a seal: the only
	// moment a checkpoint stops syncs and reads.
	SealStallMaxNs int64
	// BytesCleaned counts bytes the cleaner copied out of the segments it
	// cleaned; MetaBytesWritten those of bases, superblocks, run headers
	// and deltas.
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

	logSize int64

	// ckptMu is the checkpoint gate (discipline rule 2).  Close's seal sets
	// closed holding ckptMu and mu, so either lock may read it.
	ckptMu sync.RWMutex
	closed bool

	ckptRun sync.Mutex // serializes checkpoints end to end (discipline rule 1)

	// epoch is the last seal attempt's epoch, which every log frame
	// committed since carries; each seal takes the next one.  A sync's
	// checkpoint fallback records it under ckptMu.R; the record is durably
	// covered once metaEpoch exceeds that value (a checkpoint sealed
	// strictly after the record was enqueued has committed).
	epoch atomic.Uint64

	logGen atomic.Uint64 // the log generation (see sealSync)

	syncers atomic.Int64 // goroutines inside SyncObjects (see awaitCommit)

	// mu guards all of the store's in-memory state (discipline rule 3).
	mu      sync.Mutex
	objs    map[uint64]*objEntry // object ID → in-memory entry
	changed []uint64             // the entries touched since the last seal
	homes   []homedObject        // the paper's object map, ascending by ID (home.go)
	spare   []homedObject        // the home table's other buffer (mergeHomes)
	rbuf    []byte               // the last chain record written (appendRecord)

	free []extent // the free extents, ascending by offset (see alloc.go)
	held []extent // the segments the last commit dropped (alloc.go)

	// The append-only data segments (see segment.go), ascending by base, and
	// the one currently receiving appends (nil = none).
	segs    []*segment
	openSeg *segment
	segSize int64

	comm committer

	// The committed snapshot: its epoch (the base's, or its chain's last
	// delta's), the base, the chain id run headers carry (the superblock's),
	// the sector and link of the next run header, and the extents of the
	// chain's records — the base's run sector, then each delta with the sector
	// after it — and of the base and chain before, pinned until the next base.
	// The body writes them under mu with ckptRun held, so either lock suffices
	// to read them.
	metaEpoch uint64
	base      baseRef
	chainID   uint64
	nextRun   int64
	link      uint64
	chain     []extent
	prevBase  extent
	prevChain []extent
	sb        []byte // the superblock's two copies as last read or flipped

	// Test hooks, set before the store is shared: scrubGate runs before
	// each object of a scrub's walk (no locks held), ckptGate between a
	// checkpoint's seal and body.
	scrubGate func()
	ckptGate  func()

	// report records the degradation-ladder rungs Open took; immutable once
	// the store is published.
	report RecoveryReport

	c counters
}

// baseRef is the committed base: its extent, and the epoch, chain id and
// first run header's sector its record holds.
type baseRef struct {
	ext          extent
	epoch, chain uint64
	run          int64
	renew        bool // the next checkpoint writes a base: a degraded mount loaded this one
}

// Options configure Format and Open.  Open reads only SegmentSize: the log's
// size comes from the superblock Format wrote.
type Options struct {
	// LogSize is the size of the write-ahead log region (default 32 MB).
	LogSize int64
	// SegmentSize is the size of the segments checkpoints pack objects into
	// (default 1 MB, rounded up to a sector); it affects only new segments.
	SegmentSize int64
}

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
	s := &Store{d: d, logSize: opts.LogSize, segSize: align512(segSize)}
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
	s := newStore(d, opts)
	l, err := wal.New(d, logOffset, opts.LogSize)
	if err != nil {
		return nil, err
	}
	s.l = l
	// The first chain's first run header and the first base, written twice,
	// take a sector each of a segment of their own at the top of the data
	// region.  The first copy stands as the previous base, so a rotted first
	// base still falls back.
	s.free, _ = s.deriveFree(0, false)
	top, err := s.allocateTop(3 * runHeaderSize)
	if err != nil {
		return nil, err
	}
	s.openSeg = &segment{base: top.off, size: top.size, used: runHeaderSize, live: runHeaderSize}
	s.segs, s.nextRun, s.chain = []*segment{s.openSeg}, top.off, []extent{{top.off, runHeaderSize}}
	epoch := s.epoch.Add(1)
	for range 2 {
		if err := s.writeBase(epoch); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// resetTables (re)initializes every table a snapshot decodes into.
func (s *Store) resetTables() {
	s.homes, s.changed = nil, nil
	s.free = nil
	s.segs = nil
	s.openSeg = nil
	s.chain, s.prevChain, s.held = nil, nil, nil
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
// delayed allocation.  The store keeps a copy; data stays the caller's.
func (s *Store) Put(id uint64, data []byte) error {
	return s.put(id, append([]byte(nil), data...), nil, 0, len(data))
}

// handPage is kernel.PageSize: an object of at most this many bytes is kept,
// not copied, whatever range a put names (the kernel.Pager contract).
const handPage = 4096

// PutLabeled is Put plus recording the object's information-flow label, in
// its canonical form, and the caller's word that only bytes [lo, hi) differ
// from its last put.  Contents and label are installed under one hold of mu,
// so a concurrent SyncObject never seals the new contents with the old
// label.  A put of every byte, or of at most handPage, keeps data itself —
// the caller never writes it again — and a range put of a larger object
// patches the store's own copy.
func (s *Store) PutLabeled(id uint64, lbl label.Label, data []byte, lo, hi int) error {
	return s.put(id, data, lbl.AppendBinary(nil), lo, hi)
}

// put installs new contents and, when lbl (encoded) is not nil, the label,
// and adds [lo, hi) — all of it, when the length changed or nothing was
// resident — to the bytes changed since the last log record.
func (s *Store) put(id uint64, data []byte, lbl []byte, lo, hi int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	e := s.entry(id)
	fresh := !e.resident() || len(data) != len(e.data)
	keep := lo <= 0 && hi >= len(data) || len(data) <= handPage
	if fresh {
		e.lo, e.hi = 0, len(data)
	} else if lo, hi = max(lo, 0), min(hi, len(data)); lo < hi {
		if e.lo >= e.hi {
			e.lo, e.hi = lo, hi
		}
		e.lo, e.hi = min(e.lo, lo), max(e.hi, hi)
	}
	// Keep a handed array, shared so nothing patches it; patch [lo, hi) in
	// place — the caller vouches for every other byte — unless a handed
	// array, a sealed record or a checkpoint capture holds the slice.
	switch {
	case keep:
		e.data, e.shared = data, true
	case fresh || e.shared:
		e.data, e.shared = append([]byte(nil), data...), false
	case lo < hi:
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	buf, err := s.read(id)
	var rot *CorruptError
	if errors.As(err, &rot) {
		s.condemn(id)
		return nil, &QuarantineError{ID: id, Detail: rot.Error()}
	}
	return buf, err
}

// read is Get under mu.
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	e := s.entry(id)
	s.touch(id, e)
	e.data, e.dirty, e.dead = nil, false, true
	e.quar = false // deletion disposes of the damaged extent
	e.lbl = nil
	return nil
}

// Close checkpoints and marks the store closed, in the checkpoint's seal: no
// put can land after the snapshot it writes.  When the checkpoint fails the
// store is open again and the error is returned.
func (s *Store) Close() error {
	s.ckptRun.Lock()
	defer s.ckptRun.Unlock()
	return s.checkpointRunLocked(true)
}

// FreeBytes returns the total free space in the data region: the free list
// and what the last commit dropped, which the next one makes allocatable.
func (s *Store) FreeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, e := range append(slices.Clip(s.free), s.held...) {
		total += e.size
	}
	return total
}
