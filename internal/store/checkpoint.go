package store

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"histar/internal/label"
	"histar/internal/wal"
)

// Checkpoint persists a whole-system snapshot — every object dirtied since
// the last seal written to a new home location, the metadata sections
// rewritten, the superblock flipped — without stopping the world.  Only the
// SEAL is exclusive, and it does no I/O beyond one log-marker append:
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
// reclaiming the previous generation, the checkpoint degrades to a
// stop-the-world pass: the body runs under the still-held exclusive ckptMu
// and the log is truncated after the superblock flip.  Correctness is
// unchanged; only concurrency is lost for that one pass.
func (s *Store) Checkpoint() error {
	s.ckptRun.Lock()
	defer s.ckptRun.Unlock()
	return s.checkpointRunLocked()
}

// sealedEntry is one entry captured by the seal: a dirty object whose
// sealed contents must be written home, or a dead object whose extent must
// be vacated.
type sealedEntry struct {
	id   uint64
	e    *objEntry
	data []byte // aliases the COW contents slice sealed for this epoch
	dead bool
}

// sealedLabel is one (id, label) pair captured at seal time; the metadata
// label section is serialized from this capture, not from the live tables,
// so the snapshot is consistent with the sealed object map even while
// concurrent PutLabeled calls proceed.
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
			case e.dead && e.deadSealed:
				// An earlier checkpoint captured this deletion and committed
				// (see objEntry.deadSealed): nothing on disk has the object.
				delete(sh.objs, id)
			case e.dead:
				// The body vacates the home extent, if there is one; the
				// entry stays in the shard, keeping the deletion visible to
				// concurrent Gets and syncs, until the seal after this
				// checkpoint commits.
				e.deadSealed = true
				ss.entries = append(ss.entries, sealedEntry{id: id, e: e, dead: true})
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
		_ = s.l.ReclaimBefore(s.metaEpoch)
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
// become dirty again — one the body already relocated too: its new home is
// known only to the table in memory, so left clean it could be evicted and a
// sync acknowledged with no I/O; the retry vacates that extent like any
// superseded home — and sealed deletions lose their deadSealed mark (even
// one the body already vacated in memory is still in the committed
// snapshot), so no sealed state is lost and the next checkpoint retries
// them.  Entries deleted or re-written concurrently keep their newer state.
func (s *Store) restoreSealed(ss *sealedState) {
	for i := range ss.entries {
		se := &ss.entries[i]
		se.e.mu.Lock()
		if se.dead {
			se.e.deadSealed = false
		} else {
			se.e.ckpt = false
			if !se.e.dead {
				if !se.e.cached {
					// Relocated, then evicted: the sealed slice is the copy.
					se.e.data, se.e.cached = se.data, true
				}
				se.e.dirty = true
			}
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
		if ss.epoch > 1 {
			if err := s.l.ReclaimBefore(ss.epoch - 1); err != nil {
				return err
			}
		}
		if s.l.LiveBytes() > s.logSize/2 {
			if err := s.l.ReclaimBefore(ss.epoch); err != nil {
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
			if old, ok := s.homeOf(se.id); ok {
				s.dropHome(se.id)
				s.vacateExtent(old.off, old.size)
			}
			s.metaMu.Unlock()
			continue
		}
		newOff, err := s.writeObjectHome(se.data)
		if err != nil {
			return err
		}
		s.metaMu.Lock()
		if old, ok := s.homeOf(se.id); ok {
			s.vacateExtent(old.off, old.size)
		}
		// The contents CRC travels with the extent in the metadata
		// snapshot; reads and scrubs verify against it.
		s.setHome(se.id, home{off: newOff, size: int64(len(se.data)), crc: crc32c(se.data)})
		s.metaMu.Unlock()
		se.e.mu.Lock()
		se.e.ckpt = false
		// The fresh extent supersedes any damage verdict on the old one.
		se.e.quar = false
		se.e.mu.Unlock()
		s.c.bytesHome.Add(uint64(len(se.data)))
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
