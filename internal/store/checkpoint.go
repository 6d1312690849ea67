package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"histar/internal/btree"
	"histar/internal/label"
	"histar/internal/wal"
)

// castagnoli is the CRC32C polynomial table shared by every store checksum
// (superblock copies, metadata headers and sections, object contents).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc32c(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Checkpoint persists a whole-system snapshot — every object dirtied since
// the last seal written to a new home location, the metadata sections
// rewritten, the superblock flipped — without stopping the world.  The old
// protocol held ckptMu exclusively for the entire pass; now only the SEAL
// is exclusive, and it does no I/O beyond one log-marker append:
//
//	SEAL    (ckptMu held exclusively, microseconds): capture the dirty and
//	        dead entries and every recorded label, clear the dirty flags
//	        (marking the entries ckpt so eviction and scrub leave them
//	        alone), and append a generation marker stamped with the epoch
//	        this checkpoint will commit.  Records synced after the seal land
//	        after the marker, so replay boundaries equal seal boundaries.
//	BODY    (no store-wide lock; serialized by ckptRun): vacate deleted
//	        objects' extents, stream the sealed contents into append-only
//	        segments (dedicated extents for oversized objects), run the
//	        segment cleaner, return deferred frees to the allocator,
//	        serialize the metadata sections against the sealed epoch, and
//	        flip the superblock.  Reads, writes, and SyncObject group
//	        commits all proceed concurrently.
//	FINISH  reclaim log generations older than the previous snapshot's seal
//	        marker (kept for the metadata-fallback ladder rung) and publish
//	        completion.
//
// Checkpoints remain copy-on-write: a sealed object is never written over
// an extent the on-disk snapshot still references — segment appends only
// ever extend past the committed high-water mark, and vacated extents are
// held on the deferred-free list until every data write of this checkpoint
// has issued, then returned to the free trees just before the metadata is
// serialized.  Whichever superblock a crash leaves behind references only
// intact data.
//
// If the log is so full that even the seal marker cannot be appended after
// reclaiming the previous generation, the checkpoint degrades to the old
// stop-the-world form: the body runs under the still-held exclusive ckptMu
// and the log is truncated after the superblock flip.  Correctness is
// unchanged; only concurrency is lost for that one pass.
func (s *Store) Checkpoint() error {
	s.ckptRun.Lock()
	defer s.ckptRun.Unlock()
	return s.checkpointRunLocked()
}

// sealedEntry is one entry captured by the seal: a dirty object whose
// sealed contents must be written home, or a dead object whose extent must
// be vacated.  done marks entries the body has finished with, so a failed
// body re-dirties only what was actually lost.
type sealedEntry struct {
	id   uint64
	e    *objEntry
	data []byte // aliases the COW contents slice sealed for this epoch
	dead bool
	done bool
}

// sealedLabel is one (id, label) pair captured at seal time; the metadata
// label and index sections are serialized from this capture, not from the
// live tables, so the snapshot is consistent with the sealed object map
// even while concurrent SetLabel calls proceed.
type sealedLabel struct {
	id  uint64
	lbl label.Label
}

// sealedState is everything the checkpoint body needs, captured under the
// brief exclusive seal.
type sealedState struct {
	entries []sealedEntry // dirty and dead entries, ascending id per shard
	labels  []sealedLabel // every recorded label, ascending id
	epoch   uint64        // the snapshot epoch this checkpoint commits
	seq     uint64        // sealSeq of this seal
	world   bool          // no log room for the marker: stop-the-world pass
}

// checkpointRunLocked runs one seal→body→finish cycle; the caller holds
// ckptRun, which serializes whole checkpoints (Checkpoint itself, Close,
// and the sync fallback in checkpointSince).
func (s *Store) checkpointRunLocked() error {
	start := time.Now()
	s.ckptMu.Lock()
	if s.closed {
		s.ckptMu.Unlock()
		return ErrClosed
	}
	ss, err := s.sealCheckpoint()
	if err != nil {
		s.ckptMu.Unlock()
		return err
	}
	if ss.world {
		// Degraded stop-the-world pass: run the body under the still-held
		// exclusive lock (see Checkpoint's comment).
		defer s.noteSealStall(start)
		defer s.ckptMu.Unlock()
		return s.checkpointBody(ss)
	}
	s.ckptMu.Unlock()
	s.noteSealStall(start)
	if gate := s.ckptGate; gate != nil {
		gate()
	}
	return s.checkpointBody(ss)
}

// noteSealStall folds one seal's exclusive-hold duration into the stall
// metrics.  ckptRun serializes callers, so plain load/store suffices.
func (s *Store) noteSealStall(start time.Time) {
	d := time.Since(start).Nanoseconds()
	s.c.sealStallTotalNs.Add(d)
	if d > s.c.sealStallMaxNs.Load() {
		s.c.sealStallMaxNs.Store(d)
	}
}

// sealCheckpoint is the SEAL phase; the caller holds ckptMu exclusively and
// ckptRun.  The walk is in ascending ID order per shard, not map order:
// relocation order determines segment packing and the free-tree shape, and
// a deterministic workload must produce a byte-deterministic image.
func (s *Store) sealCheckpoint() (*sealedState, error) {
	ss := &sealedState{epoch: s.metaEpoch + 1}
	for si := range s.shards {
		sh := &s.shards[si]
		ids := make([]uint64, 0, len(sh.objs))
		for id := range sh.objs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			e := sh.objs[id]
			if e.hasLbl {
				ss.labels = append(ss.labels, sealedLabel{id: id, lbl: e.lbl})
			}
			switch {
			case e.dead:
				if _, ok := s.objMap.Get(btree.K1(id)); ok {
					// The home extent must be vacated by the body; the entry
					// stays in the shard (keeping the deletion visible to
					// concurrent Gets) until a later seal finds the map entry
					// gone and prunes it below.
					ss.entries = append(ss.entries, sealedEntry{id: id, e: e, dead: true})
				} else {
					delete(sh.objs, id)
				}
			case e.dirty:
				// Seal the COW contents slice and hand the entry to the body:
				// ckpt keeps eviction and scrub off the only in-RAM copy
				// until the body has written it home.
				e.dirty = false
				e.ckpt = true
				ss.entries = append(ss.entries, sealedEntry{id: id, e: e, data: e.data})
			case !e.cached && !e.hasLbl && !e.quar && !e.ckpt:
				// Nothing worth remembering: prune the entry.  Quarantined
				// entries are remembered so the damage verdict (and the
				// QuarantinedObjects enumeration) survives cache turnover.
				delete(sh.objs, id)
			}
		}
	}
	sort.Slice(ss.labels, func(i, j int) bool { return ss.labels[i].id < ss.labels[j].id })
	// The seal marker separates this checkpoint's generation from records
	// synced afterwards.  It is appended while ckptMu is held exclusively,
	// so no sync is mid-commit: log position order equals seal order.
	if err := s.l.AppendMark(ss.epoch); err != nil {
		if !errors.Is(err, wal.ErrFull) {
			s.restoreSealed(ss)
			return nil, err
		}
		// Make room by dropping the generation retained for metadata
		// fallback (degraded: the fallback rung loses its replay tail, but
		// the committed snapshot and the live generation stay intact).
		// Generations a live bundle's record still needs are kept even here.
		cut := s.metaEpoch
		if floor := s.bundleRetentionFloor(ss.epoch); floor < cut {
			cut = floor
		}
		_ = s.l.ReclaimBefore(cut)
		if err := s.l.AppendMark(ss.epoch); err != nil {
			if !errors.Is(err, wal.ErrFull) {
				s.restoreSealed(ss)
				return nil, err
			}
			ss.world = true
		}
	}
	ss.seq = s.sealSeq.Add(1)
	return ss, nil
}

// restoreSealed undoes a seal whose checkpoint failed: sealed-dirty entries
// the body had not yet relocated become dirty again, so no sealed state is
// lost and the next checkpoint retries them.  Entries deleted or re-written
// concurrently keep their newer state.
func (s *Store) restoreSealed(ss *sealedState) {
	for i := range ss.entries {
		se := &ss.entries[i]
		if se.done || se.dead {
			continue
		}
		se.e.mu.Lock()
		se.e.ckpt = false
		if !se.e.dead {
			se.e.dirty = true
		}
		se.e.mu.Unlock()
	}
}

// checkpointBody is the BODY and FINISH of one checkpoint; the caller holds
// ckptRun (and, on a degraded stop-the-world pass, ckptMu exclusively).
func (s *Store) checkpointBody(ss *sealedState) (err error) {
	defer func() {
		if err != nil {
			s.restoreSealed(ss)
		}
	}()
	if err := s.relocateSealed(ss); err != nil {
		return err
	}
	if err := s.cleanSegments(); err != nil {
		return err
	}
	// All data writes issued; the vacated extents may now rejoin the free
	// trees so the metadata snapshot below records them reusable.
	s.allocMu.Lock()
	for _, e := range s.deferredFree {
		s.addFreeLocked(e)
	}
	s.deferredFree = nil
	s.allocMu.Unlock()
	if err := s.writeSnapshot(ss.epoch, ss.labels); err != nil {
		return err
	}
	// FINISH: log retention.  The generation before the PREVIOUS snapshot's
	// seal marker can no longer serve any replay; the previous generation
	// itself is retained so that, should the snapshot written above rot on
	// disk, Open can fall back to the previous snapshot and replay forward
	// from its marker — zero committed-sync loss.  When even the retained
	// generation would keep the log more than half full, it is sacrificed
	// too (degraded, as at seal time).
	if ss.world {
		if err := s.l.Truncate(); err != nil {
			return err
		}
		// The truncated log trivially has room for the new generation's
		// marker; a failure here only costs replay precision (a missing
		// marker replays from the log start, which is a superset).
		if err := s.l.AppendMark(ss.epoch); err != nil && !errors.Is(err, wal.ErrFull) {
			return err
		}
	} else {
		// Bundle retention: a bundle captured at epoch E has its WAL record
		// in generation E and enters the metadata snapshot at E+1, so that
		// generation stays replayable until two committed snapshots contain
		// the bundle — otherwise a metadata fallback could lose the bundle
		// and orphan every clone of it.  Both reclaim points clamp to the
		// floor.
		floor := s.bundleRetentionFloor(ss.epoch)
		if ss.epoch > 1 {
			cut := ss.epoch - 1
			if floor < cut {
				cut = floor
			}
			if err := s.l.ReclaimBefore(cut); err != nil {
				return err
			}
		}
		if s.l.LiveBytes() > s.logSize/2 {
			cut := ss.epoch
			if floor < cut {
				cut = floor
			}
			if err := s.l.ReclaimBefore(cut); err != nil {
				return err
			}
		}
	}
	s.c.logApplications.Add(1)
	s.c.checkpoints.Add(1)
	s.completedSeal.Store(ss.seq)
	return nil
}

// relocateSealed is the body's data phase: vacate the extents of sealed
// deletions and write each sealed-dirty object to its new home — segment
// appends for small objects, dedicated extents for oversized ones.  Device
// writes are issued WITHOUT holding metaMu, so checkpoint I/O never blocks
// metadata readers; the map/CRC updates after each write hold it only
// briefly.
func (s *Store) relocateSealed(ss *sealedState) error {
	for i := range ss.entries {
		se := &ss.entries[i]
		if se.dead {
			s.metaMu.Lock()
			if off, ok := s.objMap.Get(btree.K1(se.id)); ok {
				size := s.objSizes[se.id]
				s.objMap.Delete(btree.K1(se.id))
				delete(s.objSizes, se.id)
				delete(s.objCRCs, se.id)
				s.vacateExtent(int64(off), size)
			}
			s.metaMu.Unlock()
			se.done = true
			continue
		}
		newOff, err := s.writeObjectHome(se.data)
		if err != nil {
			return err
		}
		s.metaMu.Lock()
		if oldOff, ok := s.objMap.Get(btree.K1(se.id)); ok {
			s.vacateExtent(int64(oldOff), s.objSizes[se.id])
		}
		s.objMap.Put(btree.K1(se.id), uint64(newOff))
		s.objSizes[se.id] = int64(len(se.data))
		// The contents CRC travels with the extent in the metadata
		// snapshot; reads and scrubs verify against it.
		s.objCRCs[se.id] = crc32c(se.data)
		s.metaMu.Unlock()
		se.e.mu.Lock()
		se.e.ckpt = false
		// The fresh extent supersedes any damage verdict on the old one.
		se.e.quar = false
		se.e.mu.Unlock()
		s.c.bytesHome.Add(uint64(len(se.data)))
		se.done = true
	}
	return nil
}

// writeObjectHome writes one object's sealed contents to a new home:
// packed into the open append-only segment when it fits, or a dedicated
// extent otherwise.  No lock is held across the device write.
func (s *Store) writeObjectHome(data []byte) (int64, error) {
	if align512(int64(len(data))) <= s.segSize/2 {
		return s.segAppend(data)
	}
	ext, err := s.allocate(int64(len(data)))
	if err != nil {
		return 0, err
	}
	if len(data) > 0 {
		if _, err := s.d.WriteAt(data, ext.off); err != nil {
			return 0, err
		}
	}
	return ext.off, nil
}

// ---------------------------------------------------------------------------
// Extent allocation.
// ---------------------------------------------------------------------------

func alignUp(n int64) int64 {
	if n <= 0 {
		return extentAlign
	}
	return (n + extentAlign - 1) / extentAlign * extentAlign
}

// allocate finds a free extent of at least size bytes using the
// free-by-size tree, splitting the extent when it is larger than needed.
func (s *Store) allocate(size int64) (extent, error) {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	need := alignUp(size)
	k, _, ok := s.freeBySize.Ceiling(btree.K2(uint64(need), 0))
	if !ok {
		return extent{}, ErrNoSpace
	}
	ext := extent{off: int64(k[1]), size: int64(k[0])}
	s.removeFreeLocked(ext)
	if ext.size > need {
		s.addFreeLocked(extent{off: ext.off + need, size: ext.size - need})
		ext.size = need
	}
	return ext, nil
}

// addFree inserts an extent into both free trees, coalescing with adjacent
// extents (the purpose of the offset-indexed tree).
func (s *Store) addFree(e extent) {
	s.allocMu.Lock()
	s.addFreeLocked(e)
	s.allocMu.Unlock()
}

func (s *Store) addFreeLocked(e extent) {
	if e.size <= 0 {
		return
	}
	// Coalesce with the preceding extent.
	if k, v, ok := s.freeByOff.Floor(btree.K1(uint64(e.off))); ok {
		prev := extent{off: int64(k[0]), size: int64(v)}
		if prev.off+prev.size == e.off {
			s.removeFreeLocked(prev)
			e.off = prev.off
			e.size += prev.size
		}
	}
	// Coalesce with the following extent.
	if k, v, ok := s.freeByOff.Ceiling(btree.K1(uint64(e.off + e.size))); ok {
		next := extent{off: int64(k[0]), size: int64(v)}
		if e.off+e.size == next.off {
			s.removeFreeLocked(next)
			e.size += next.size
		}
	}
	s.freeBySize.Put(btree.K2(uint64(e.size), uint64(e.off)), 0)
	s.freeByOff.Put(btree.K1(uint64(e.off)), uint64(e.size))
}

func (s *Store) removeFreeLocked(e extent) {
	s.freeBySize.Delete(btree.K2(uint64(e.size), uint64(e.off)))
	s.freeByOff.Delete(btree.K1(uint64(e.off)))
}

// ---------------------------------------------------------------------------
// Superblock and metadata persistence.
// ---------------------------------------------------------------------------

// The superblock stores the location and length of the serialized metadata
// (object map, object sizes, free list, labels, label index, segment
// table).  Metadata is written to the alternate metadata area on every
// checkpoint and the superblock is updated last, so a crash during
// checkpoint leaves the previous snapshot intact.  writeSnapshot and the
// encode side of the codecs run only in the checkpoint body (serialized by
// ckptRun) or during single-threaded construction (Format); the decode side
// runs only in single-threaded Open.
//
// The superblock page holds two identical 64-byte
// checksummed copies (primary at offset 0, backup at offset 512, each in
// its own sector), and every metadata area starts with a checksummed,
// epoch-stamped header followed by per-section CRCs — see the package
// comment for the exact layouts and the fallback rules readSuperblock and
// loadMetadata apply when a check fails.

// superblock field offsets within one 64-byte copy (little-endian u64s
// unless noted).
const (
	sbCopySize   = 64
	sbBackupOff  = 512 // second copy sits in its own sector
	sbMagicOff   = 0
	sbWhichOff   = 8
	sbMetaLenOff = 16
	sbLogSizeOff = 24
	sbMetaSzOff  = 32
	sbVersionOff = 40
	sbEpochOff   = 48
	sbCRCOff     = 56 // u32 CRC32C over bytes [0, 56)

	superVersion = 2
)

// metadata-area header layout: a 48-byte checksummed prologue before the
// section stream.
const (
	metaMagic      = 0x484d4554 // "HMET"
	metaVersion    = 4
	metaHeaderSize = 48
	mhMagicOff     = 0
	mhVersionOff   = 8
	mhEpochOff     = 16
	mhPayloadOff   = 24 // payload byte length (sections, after this header)
	mhSectionsOff  = 32 // section count
	mhCRCOff       = 40 // u32 CRC32C over bytes [0, 40)

	// Section tags.  Each section is [tag u64][len u64][crc u64: low 32
	// bits CRC32C of the payload][payload].  The fingerprint index (tag 4)
	// is the only section whose corruption is non-fatal: it is rebuilt from
	// the label section.  Tag 5 is the segment table and tag 6 the
	// snapshot-bundle table (per bundle its lineage ID and serialized name,
	// capture epoch, and object list — see bundle.go for the body codec).
	secObjMap  = 1
	secFree    = 2
	secLabels  = 3
	secIndex   = 4
	secSegs    = 5
	secBundles = 6
	numSecs    = 6

	// objCRCValid flags an object-map or bundle CRC field as carrying a
	// contents checksum.  Every entry written has it set; a decoded entry
	// without it is corruption.
	objCRCValid = uint64(1) << 32
)

// superblockInfo is one parsed superblock copy.
type superblockInfo struct {
	which    int
	metaLen  int64
	logSize  int64
	metaSize int64
	epoch    uint64
}

// encodeSuperblockCopy builds one 64-byte checksummed copy.
func encodeSuperblockCopy(info superblockInfo) []byte {
	b := make([]byte, sbCopySize)
	binary.LittleEndian.PutUint64(b[sbMagicOff:], superMagic)
	binary.LittleEndian.PutUint64(b[sbWhichOff:], uint64(info.which))
	binary.LittleEndian.PutUint64(b[sbMetaLenOff:], uint64(info.metaLen))
	binary.LittleEndian.PutUint64(b[sbLogSizeOff:], uint64(info.logSize))
	binary.LittleEndian.PutUint64(b[sbMetaSzOff:], uint64(info.metaSize))
	binary.LittleEndian.PutUint64(b[sbVersionOff:], superVersion)
	binary.LittleEndian.PutUint64(b[sbEpochOff:], info.epoch)
	binary.LittleEndian.PutUint32(b[sbCRCOff:], crc32c(b[:sbCRCOff]))
	return b
}

// parseSuperblockCopy validates one copy at device offset off: magic, then
// the CRC over every field, then the version — no field of a copy that fails
// its CRC is interpreted.
func parseSuperblockCopy(b []byte, off int64) (superblockInfo, error) {
	var info superblockInfo
	if got := binary.LittleEndian.Uint64(b[sbMagicOff:]); got != superMagic {
		return info, &CorruptError{Area: "superblock", Offset: off + sbMagicOff,
			Detail: fmt.Sprintf("bad magic: got %#x, want %#x", got, uint64(superMagic))}
	}
	info.which = int(binary.LittleEndian.Uint64(b[sbWhichOff:]))
	info.metaLen = int64(binary.LittleEndian.Uint64(b[sbMetaLenOff:]))
	info.logSize = int64(binary.LittleEndian.Uint64(b[sbLogSizeOff:]))
	info.metaSize = int64(binary.LittleEndian.Uint64(b[sbMetaSzOff:]))
	info.epoch = binary.LittleEndian.Uint64(b[sbEpochOff:])
	want := binary.LittleEndian.Uint32(b[sbCRCOff:])
	if got := crc32c(b[:sbCRCOff]); got != want {
		return info, &CorruptError{Area: "superblock", Offset: off + sbCRCOff,
			Detail: fmt.Sprintf("checksum mismatch: got %#x, want %#x", got, want)}
	}
	if v := binary.LittleEndian.Uint64(b[sbVersionOff:]); v != superVersion {
		return info, &CorruptError{Area: "superblock", Offset: off + sbVersionOff,
			Detail: fmt.Sprintf("unsupported superblock version %d", v)}
	}
	if info.which != 0 && info.which != 1 {
		return info, &CorruptError{Area: "superblock", Offset: off + sbWhichOff,
			Detail: fmt.Sprintf("metadata area selector %d out of range", info.which)}
	}
	return info, nil
}

// writeSnapshot serializes the metadata sections against the sealed epoch,
// writes them to the alternate metadata area, and flips the superblock.
// It runs in the checkpoint body (ckptRun serialized) or single-threaded
// construction: sbMu fences the superblock/meta-area device I/O against a
// concurrent scrub's reads of the same regions, and the committed
// metaWhich/metaEpoch are published under metaMu so concurrent readers
// (scrub) always see a (which, epoch) pair that matches the bytes on disk.
func (s *Store) writeSnapshot(epoch uint64, labels []sealedLabel) error {
	meta := s.encodeMetadata(epoch, labels)
	if int64(len(meta)) > s.metaSize {
		return fmt.Errorf("store: metadata (%d bytes) exceeds the metadata area", len(meta))
	}
	s.metaMu.RLock()
	next := 1 - s.metaWhich
	s.metaMu.RUnlock()
	metaOff := logOffset + s.logSize + int64(next)*s.metaSize
	s.sbMu.Lock()
	defer s.sbMu.Unlock()
	if _, err := s.d.WriteAt(meta, metaOff); err != nil {
		return err
	}
	// Barrier between the metadata image and the superblock that references
	// it: without it, a write-back cache destaging in ascending offset
	// order could persist the new superblock (offset 0) before the new
	// metadata area behind it.  The same barrier also orders every data
	// write of this checkpoint (segments, dedicated extents) before the
	// superblock that references them.
	if err := s.d.Flush(); err != nil {
		return err
	}
	copyBytes := encodeSuperblockCopy(superblockInfo{
		which: next, metaLen: int64(len(meta)),
		logSize: s.logSize, metaSize: s.metaSize, epoch: epoch,
	})
	sb := make([]byte, sbBackupOff+sbCopySize)
	copy(sb[0:], copyBytes)
	copy(sb[sbBackupOff:], copyBytes)
	if _, err := s.d.WriteAt(sb, superblockOffset); err != nil {
		return err
	}
	if err := s.d.Flush(); err != nil {
		return err
	}
	s.metaMu.Lock()
	s.metaWhich = next
	s.metaEpoch = epoch
	s.metaMu.Unlock()
	s.c.metaBytesWritten.Add(uint64(len(meta) + len(sb)))
	return nil
}

// readSuperblock mounts the superblock and metadata, walking the
// degradation ladder on checksum failures; Open calls it before the store
// is published, so no locks are taken.
func (s *Store) readSuperblock() error {
	raw := make([]byte, sbBackupOff+sbCopySize)
	if _, err := s.d.ReadAt(raw, superblockOffset); err != nil {
		return err
	}
	primary, perr := parseSuperblockCopy(raw[:sbCopySize], superblockOffset)
	backup, berr := parseSuperblockCopy(raw[sbBackupOff:], superblockOffset+sbBackupOff)
	var sb superblockInfo
	switch {
	case perr == nil && berr == nil:
		// Both intact: trust the newer epoch (they differ only if a crash
		// tore the two-copy write, which sector atomicity makes one-sided).
		sb = primary
		if backup.epoch > primary.epoch {
			sb = backup
		}
	case perr == nil:
		sb = primary
		s.noteCorruption(berr)
	case berr == nil:
		sb = backup
		s.report.SuperblockFallback = true
		s.noteCorruption(perr)
	default:
		s.noteCorruption(berr)
		return s.noteCorruption(fmt.Errorf("both superblock copies invalid: %w (backup: %v)", perr, berr))
	}
	s.logSize = sb.logSize
	s.metaSize = sb.metaSize
	s.metaWhich = sb.which
	s.metaEpoch = sb.epoch
	s.report.MetaEpoch = sb.epoch
	return s.loadMetadata(sb)
}

// loadMetadata loads the snapshot sb references, falling back to the
// alternate area (plus the retained write-ahead log generation, which the
// caller replays) when the referenced one fails verification.
func (s *Store) loadMetadata(sb superblockInfo) error {
	err := s.loadMetaArea(sb.which, sb.epoch)
	if err == nil {
		return nil
	}
	if !errors.Is(err, ErrCorrupt) {
		return err
	}
	s.noteCorruption(err)
	// Referenced snapshot is damaged: reset whatever the failed decode
	// half-applied and try the alternate (previous-checkpoint) area.  Only
	// a strictly older epoch is acceptable — a crash after the metadata
	// write but before the superblock flip can leave the alternate area
	// holding a NEWER, never-committed snapshot, which must not be
	// resurrected.
	s.resetLoadedState()
	alt := 1 - sb.which
	altErr := s.loadMetaAreaFallback(alt, sb.epoch)
	if altErr != nil {
		s.resetLoadedState()
		return s.noteCorruption(fmt.Errorf("both metadata areas unusable: %w (alternate: %v)", err, altErr))
	}
	s.report.MetaFallback = true
	s.metaWhich = alt
	return nil
}

// resetLoadedState clears everything a failed metadata decode may have
// half-applied, so the fallback area decodes into a clean store.
func (s *Store) resetLoadedState() {
	s.objMap = &btree.Tree{}
	s.objSizes = make(map[uint64]int64)
	s.objCRCs = make(map[uint64]uint32)
	s.freeBySize = &btree.Tree{}
	s.freeByOff = &btree.Tree{}
	s.segs = make(map[int64]*segment)
	s.segBases = &btree.Tree{}
	s.openSegBase = 0
	s.bundles = make(map[uint64]*Bundle)
	s.extRefs = make(map[int64]int64)
	for i := range s.shards {
		s.shards[i].objs = make(map[uint64]*objEntry)
		s.shards[i].labelIndex = &btree.Tree{}
	}
	s.report.IndexRebuilt = false
}

// loadMetaArea reads, verifies, and decodes metadata area which, requiring
// its header epoch to equal wantEpoch (the epoch the superblock committed).
func (s *Store) loadMetaArea(which int, wantEpoch uint64) error {
	secs, epoch, indexErr, err := s.verifyMetaArea(which)
	if err != nil {
		return err
	}
	if epoch != wantEpoch {
		return &CorruptError{Area: "metadata", Offset: s.metaAreaOff(which) + mhEpochOff,
			Detail: fmt.Sprintf("snapshot epoch %d does not match superblock epoch %d", epoch, wantEpoch)}
	}
	if indexErr != nil {
		s.noteCorruption(indexErr)
		s.report.IndexRebuilt = true
	}
	return s.applyMetaSections(which, secs)
}

// loadMetaAreaFallback is loadMetaArea for the alternate area: any epoch
// strictly older than the superblock's is acceptable.
func (s *Store) loadMetaAreaFallback(which int, sbEpoch uint64) error {
	secs, epoch, indexErr, err := s.verifyMetaArea(which)
	if err != nil {
		return err
	}
	if epoch >= sbEpoch {
		return &CorruptError{Area: "metadata", Offset: s.metaAreaOff(which) + mhEpochOff,
			Detail: fmt.Sprintf("alternate snapshot epoch %d not older than superblock epoch %d (uncommitted checkpoint)", epoch, sbEpoch)}
	}
	if indexErr != nil {
		s.noteCorruption(indexErr)
		s.report.IndexRebuilt = true
	}
	if err := s.applyMetaSections(which, secs); err != nil {
		return err
	}
	s.metaEpoch = epoch
	s.report.MetaEpoch = epoch
	return nil
}

func (s *Store) metaAreaOff(which int) int64 {
	return logOffset + s.logSize + int64(which)*s.metaSize
}

// verifyMetaArea reads area which and checks the header and every section
// CRC, returning the raw section payloads by tag.  A corrupt index section
// (tag 4) alone is tolerated: the section is returned as nil along with a
// non-nil indexErr, and callers decide whether to rebuild (Open) or just
// count it (Scrub).  No payload is decoded here — verification is complete
// before any byte is interpreted, so a damaged area can never half-apply.
func (s *Store) verifyMetaArea(which int) (secs [numSecs + 1][]byte, epoch uint64, indexErr, err error) {
	areaOff := s.metaAreaOff(which)
	hdr := make([]byte, metaHeaderSize)
	if _, rerr := s.d.ReadAt(hdr, areaOff); rerr != nil {
		return secs, 0, nil, rerr
	}
	if got := binary.LittleEndian.Uint64(hdr[mhMagicOff:]); got != metaMagic {
		return secs, 0, nil, &CorruptError{Area: "metadata", Offset: areaOff,
			Detail: fmt.Sprintf("bad area magic: got %#x, want %#x", got, uint64(metaMagic))}
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[mhCRCOff:])
	if got := crc32c(hdr[:mhCRCOff]); got != wantCRC {
		return secs, 0, nil, &CorruptError{Area: "metadata", Offset: areaOff + mhCRCOff,
			Detail: fmt.Sprintf("area header checksum mismatch: got %#x, want %#x", got, wantCRC)}
	}
	if v := binary.LittleEndian.Uint64(hdr[mhVersionOff:]); v != metaVersion {
		return secs, 0, nil, &CorruptError{Area: "metadata", Offset: areaOff + mhVersionOff,
			Detail: fmt.Sprintf("unsupported metadata version %d", v)}
	}
	epoch = binary.LittleEndian.Uint64(hdr[mhEpochOff:])
	payloadLen := int64(binary.LittleEndian.Uint64(hdr[mhPayloadOff:]))
	nSecs := binary.LittleEndian.Uint64(hdr[mhSectionsOff:])
	if payloadLen < 0 || payloadLen > s.metaSize-metaHeaderSize || nSecs != numSecs {
		return secs, 0, nil, &CorruptError{Area: "metadata", Offset: areaOff + mhPayloadOff,
			Detail: fmt.Sprintf("implausible geometry: payload %d bytes, %d sections", payloadLen, nSecs)}
	}
	payload := make([]byte, payloadLen)
	if _, rerr := s.d.ReadAt(payload, areaOff+metaHeaderSize); rerr != nil {
		return secs, 0, nil, rerr
	}
	// Walk the section stream.  Structure damage (bad tag, length past the
	// payload) is fatal for the area; a checksum failure is fatal unless it
	// is the rebuildable index section.
	off := int64(0)
	seen := 0
	for off < payloadLen {
		if payloadLen-off < 24 {
			return secs, 0, nil, &CorruptError{Area: "metadata", Offset: areaOff + metaHeaderSize + off,
				Detail: "truncated section header"}
		}
		tag := binary.LittleEndian.Uint64(payload[off:])
		slen := int64(binary.LittleEndian.Uint64(payload[off+8:]))
		scrc := binary.LittleEndian.Uint64(payload[off+16:])
		off += 24
		if tag < secObjMap || tag > secBundles || secs[tag] != nil || slen < 0 || slen > payloadLen-off {
			return secs, 0, nil, &CorruptError{Area: "metadata", Offset: areaOff + metaHeaderSize + off - 24,
				Detail: fmt.Sprintf("bad section header: tag %d, length %d", tag, slen)}
		}
		body := payload[off : off+slen]
		off += slen
		seen++
		if got := crc32c(body); uint64(got) != scrc {
			cerr := &CorruptError{Area: "metadata", Offset: areaOff + metaHeaderSize + off - slen,
				Detail: fmt.Sprintf("section %d checksum mismatch: got %#x, want %#x", tag, got, scrc)}
			if tag == secIndex {
				// The index is derived data: report it separately, leave the
				// section nil, and let the caller rebuild from labels.
				cerr.Area = "metadata/index"
				indexErr = cerr
				continue
			}
			return secs, 0, nil, cerr
		}
		secs[tag] = body
	}
	if seen != numSecs {
		return secs, 0, nil, &CorruptError{Area: "metadata", Offset: areaOff + metaHeaderSize,
			Detail: fmt.Sprintf("expected %d sections, found %d", numSecs, seen)}
	}
	return secs, epoch, indexErr, nil
}

// applyMetaSections decodes the verified section payloads into the store.
func (s *Store) applyMetaSections(which int, secs [numSecs + 1][]byte) error {
	areaOff := s.metaAreaOff(which)
	if err := s.decodeObjMapSection(secs[secObjMap], areaOff); err != nil {
		return err
	}
	if err := s.decodeFreeSection(secs[secFree], areaOff); err != nil {
		return err
	}
	if err := s.decodeLabelSection(secs[secLabels], areaOff); err != nil {
		return err
	}
	if secs[secIndex] == nil {
		s.rebuildLabelIndex()
	} else if err := s.decodeIndexSection(secs[secIndex], areaOff); err != nil {
		// The index section passed its CRC but does not parse — a codec
		// regression rather than rot, but still recoverable the same way.
		s.noteCorruption(err)
		s.report.IndexRebuilt = true
		for i := range s.shards {
			s.shards[i].labelIndex = &btree.Tree{}
		}
		s.rebuildLabelIndex()
	}
	if err := s.decodeSegsSection(secs[secSegs], areaOff); err != nil {
		return err
	}
	if err := s.decodeBundlesSection(secs[secBundles], areaOff); err != nil {
		return err
	}
	s.recomputeSegLive()
	return nil
}

// rebuildLabelIndex recomputes the fingerprint index from the decoded
// labels (the index is pure derived data).
func (s *Store) rebuildLabelIndex() {
	for si := range s.shards {
		sh := &s.shards[si]
		for id, e := range sh.objs {
			if e.hasLbl {
				sh.labelIndex.Put(btree.K2(uint64(e.lbl.Fingerprint()), id), 0)
			}
		}
	}
}

// appendU64 is the metadata codecs' little-endian primitive.
func appendU64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}

// encodeMetadata serializes the metadata image: a checksummed,
// epoch-stamped header followed by six individually checksummed sections
// (object map with per-object content CRCs, free list, labels, fingerprint
// index, segment table, snapshot-bundle table).  The object map and
// free/segment state are read under their own locks — by the time the body
// serializes, it has finished mutating them, and no concurrent operation
// does — while the label and index sections come from the seal-time
// capture, so the snapshot is consistent with the sealed epoch even as
// concurrent SetLabel calls proceed.  The bundle section reads the live
// table under metaMu: bundles registered after the seal simply appear one
// snapshot early, which replay tolerates (re-registration is idempotent).
func (s *Store) encodeMetadata(epoch uint64, labels []sealedLabel) []byte {
	// Object map: (id, offset, size, contents-CRC) quads.
	var objs []byte
	s.metaMu.RLock()
	objs = appendU64(objs, uint64(s.objMap.Len()))
	s.objMap.Scan(func(k btree.Key, v uint64) bool {
		objs = appendU64(objs, k[0])
		objs = appendU64(objs, v)
		objs = appendU64(objs, uint64(s.objSizes[k[0]]))
		objs = appendU64(objs, objCRCValid|uint64(s.objCRCs[k[0]]))
		return true
	})
	s.metaMu.RUnlock()
	// Free list by offset, and the segment table (base, size, used; live is
	// derived), both under allocMu.
	var free, segsSec []byte
	s.allocMu.Lock()
	nf := 0
	s.freeByOff.Scan(func(btree.Key, uint64) bool { nf++; return true })
	free = appendU64(free, uint64(nf))
	s.freeByOff.Scan(func(k btree.Key, v uint64) bool {
		free = appendU64(free, k[0])
		free = appendU64(free, v)
		return true
	})
	segsSec = appendU64(segsSec, uint64(len(s.segs)))
	s.segBases.Scan(func(k btree.Key, _ uint64) bool {
		seg := s.segs[int64(k[0])]
		segsSec = appendU64(segsSec, uint64(seg.base))
		segsSec = appendU64(segsSec, uint64(seg.size))
		segsSec = appendU64(segsSec, uint64(seg.used))
		return true
	})
	s.allocMu.Unlock()
	// Object labels in canonical serialized form, and the fingerprint index
	// derived from them — both from the seal-time capture.
	var labelsSec []byte
	labelsSec = appendU64(labelsSec, uint64(len(labels)))
	idx := make([][2]uint64, 0, len(labels))
	for _, sl := range labels {
		labelsSec = appendU64(labelsSec, sl.id)
		labelsSec = sl.lbl.AppendBinary(labelsSec)
		idx = append(idx, [2]uint64{uint64(sl.lbl.Fingerprint()), sl.id})
	}
	sort.Slice(idx, func(i, j int) bool {
		if idx[i][0] != idx[j][0] {
			return idx[i][0] < idx[j][0]
		}
		return idx[i][1] < idx[j][1]
	})
	var index []byte
	index = appendU64(index, uint64(len(idx)))
	for _, p := range idx {
		index = appendU64(index, p[0])
		index = appendU64(index, p[1])
	}

	bundlesSec := s.encodeBundlesSection()

	var payload []byte
	for _, sec := range []struct {
		tag  uint64
		body []byte
	}{{secObjMap, objs}, {secFree, free}, {secLabels, labelsSec}, {secIndex, index},
		{secSegs, segsSec}, {secBundles, bundlesSec}} {
		payload = appendU64(payload, sec.tag)
		payload = appendU64(payload, uint64(len(sec.body)))
		payload = appendU64(payload, uint64(crc32c(sec.body)))
		payload = append(payload, sec.body...)
	}

	hdr := make([]byte, metaHeaderSize)
	binary.LittleEndian.PutUint64(hdr[mhMagicOff:], metaMagic)
	binary.LittleEndian.PutUint64(hdr[mhVersionOff:], metaVersion)
	binary.LittleEndian.PutUint64(hdr[mhEpochOff:], epoch)
	binary.LittleEndian.PutUint64(hdr[mhPayloadOff:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(hdr[mhSectionsOff:], numSecs)
	binary.LittleEndian.PutUint32(hdr[mhCRCOff:], crc32c(hdr[:mhCRCOff]))
	return append(hdr, payload...)
}

// sectionReader walks one verified section payload; every structural
// violation comes back as a CorruptError anchored at the section's device
// offset.
type sectionReader struct {
	buf  []byte
	off  int64 // device offset of the section start, for error reports
	area string
}

func (r *sectionReader) u64() (uint64, error) {
	if len(r.buf) < 8 {
		return 0, &CorruptError{Area: r.area, Offset: r.off, Detail: "truncated section"}
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v, nil
}

func (s *Store) decodeObjMapSection(buf []byte, areaOff int64) error {
	r := &sectionReader{buf: buf, off: areaOff, area: "metadata"}
	n, err := r.u64()
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		id, err := r.u64()
		if err != nil {
			return err
		}
		off, err := r.u64()
		if err != nil {
			return err
		}
		size, err := r.u64()
		if err != nil {
			return err
		}
		crcField, err := r.u64()
		if err != nil {
			return err
		}
		if crcField&objCRCValid == 0 {
			return &CorruptError{Area: "metadata", Offset: areaOff,
				Detail: fmt.Sprintf("object %d mapped without a contents checksum", id)}
		}
		s.objMap.Put(btree.K1(id), off)
		s.objSizes[id] = int64(size)
		s.objCRCs[id] = uint32(crcField)
	}
	return nil
}

func (s *Store) decodeFreeSection(buf []byte, areaOff int64) error {
	r := &sectionReader{buf: buf, off: areaOff, area: "metadata"}
	nf, err := r.u64()
	if err != nil {
		return err
	}
	for i := uint64(0); i < nf; i++ {
		off, err := r.u64()
		if err != nil {
			return err
		}
		size, err := r.u64()
		if err != nil {
			return err
		}
		s.freeBySize.Put(btree.K2(size, off), 0)
		s.freeByOff.Put(btree.K1(off), size)
	}
	return nil
}

func (s *Store) decodeSegsSection(buf []byte, areaOff int64) error {
	r := &sectionReader{buf: buf, off: areaOff, area: "metadata"}
	n, err := r.u64()
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		base, err := r.u64()
		if err != nil {
			return err
		}
		size, err := r.u64()
		if err != nil {
			return err
		}
		used, err := r.u64()
		if err != nil {
			return err
		}
		if size == 0 || used > size {
			return &CorruptError{Area: "metadata", Offset: areaOff,
				Detail: fmt.Sprintf("segment at %d has impossible geometry (size %d, used %d)", base, size, used)}
		}
		seg := &segment{base: int64(base), size: int64(size), used: int64(used)}
		s.segs[seg.base] = seg
		s.segBases.Put(btree.K1(base), 0)
	}
	return nil
}

func (s *Store) decodeLabelSection(buf []byte, areaOff int64) error {
	r := &sectionReader{buf: buf, off: areaOff, area: "metadata"}
	nl, err := r.u64()
	if err != nil {
		return err
	}
	for i := uint64(0); i < nl; i++ {
		id, err := r.u64()
		if err != nil {
			return err
		}
		lbl, rest, derr := s.decodeLabel(r.buf)
		if derr != nil {
			return &CorruptError{Area: "metadata", Offset: areaOff,
				Detail: fmt.Sprintf("label of object %d does not decode: %v", id, derr)}
		}
		r.buf = rest
		e := s.shardOf(id).getOrCreate(id)
		e.lbl, e.hasLbl = lbl, true
	}
	return nil
}

func (s *Store) decodeIndexSection(buf []byte, areaOff int64) error {
	r := &sectionReader{buf: buf, off: areaOff, area: "metadata/index"}
	ni, err := r.u64()
	if err != nil {
		return err
	}
	for i := uint64(0); i < ni; i++ {
		fp, err := r.u64()
		if err != nil {
			return err
		}
		id, err := r.u64()
		if err != nil {
			return err
		}
		s.shardOf(id).labelIndex.Put(btree.K2(fp, id), 0)
	}
	return nil
}
