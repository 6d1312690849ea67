package store

import (
	"errors"
	"fmt"
	"time"
)

// Checkpoint persists a whole-system snapshot — every object dirtied since
// the last seal written to a new home location, the metadata sections
// rewritten, the superblock flipped — without stopping the world.  Only the
// SEAL is exclusive, and it does no I/O at all:
//
//	SEAL    (ckptMu held exclusively, and mu; microseconds): take a fresh
//	        epoch, capture the dirty entries with their labels and the dead
//	        ones, walking only those changed since the last seal, and clear
//	        the dirty flags (marking the entries ckpt, so they keep their
//	        contents and condemn leaves them alone).  Records
//	        synced after the seal go into log frames stamped with the new
//	        epoch, so replay boundaries equal seal boundaries.
//	BODY    (no ckptMu; serialized by ckptRun; mu only between device
//	        writes, never across one): stream the sealed contents into
//	        append-only segments, merge their homes and the deletions into
//	        the object map, run the segment cleaner, serialize the metadata
//	        sections against the sealed epoch, and flip the superblock; only
//	        then install the free list derived from the segment table
//	        serialized and release the sealed entries, their state now the
//	        snapshot's.  Reads, writes, and SyncObject group commits all
//	        proceed concurrently.
//	FINISH  reclaim log frames of epochs older than the previous committed
//	        snapshot's (its own are kept for the metadata-fallback ladder
//	        rung).
//
// Checkpoints remain copy-on-write: a sealed object is never written over
// an extent the on-disk snapshot still references — segment appends only
// ever extend past the committed high-water mark, and a vacated extent is
// free only once a snapshot not naming it has committed (alloc.go), so a
// failed body frees nothing.  Whichever superblock a crash leaves behind
// references only intact data.
//
// Every seal attempt takes a fresh epoch, so a failed body burns its own:
// records synced between it and the retry carry an epoch the retry's
// snapshot is newer than, and never replay over it.
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
	data []byte // aliases the contents slice sealed for this epoch (shared)
	lbl  []byte // the label sealed with data, encoded (nil: none)
	home        // where relocateSealed wrote data
	dead bool
}

// sealedState is everything the checkpoint body needs, captured under the
// brief exclusive seal.
type sealedState struct {
	entries []sealedEntry // dirty and dead entries, in the order they changed
	epoch   uint64        // the snapshot epoch this checkpoint commits
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
	s.mu.Lock()
	ss := s.sealCheckpoint()
	s.mu.Unlock()
	s.ckptMu.Unlock()
	// The stall metric; ckptRun serializes callers, so a plain load and
	// store keep the maximum.
	stall := time.Since(start).Nanoseconds()
	if stall > s.c.sealStallMaxNs.Load() {
		s.c.sealStallMaxNs.Store(stall)
	}
	if gate := s.ckptGate; gate != nil {
		gate()
	}
	return s.checkpointBody(ss)
}

// sealCheckpoint is the SEAL phase; the caller holds ckptRun, ckptMu
// exclusively, and mu.  It walks the changed list in the order the entries
// changed, which relocation keeps: objects written together are homed side
// by side, and a deterministic workload produces a byte-deterministic image.
func (s *Store) sealCheckpoint() *sealedState {
	// Syncs hold ckptMu in read mode from sealing a record to its commit, so
	// every frame committed from here on carries the new epoch.
	ss := &sealedState{epoch: s.epoch.Add(1)}
	s.logGen.Add(1) // a range record never reaches back past a seal (see sealSync)
	ids := s.changed
	s.changed = nil
	for _, id := range ids {
		e := s.objs[id]
		e.listed = false
		switch {
		case e.dead:
			// The body vacates the home extent, if there is one; the entry
			// stays in the table, keeping the deletion visible to concurrent
			// Gets and syncs, until this checkpoint commits.
			ss.entries = append(ss.entries, sealedEntry{id: id, e: e, dead: true})
		case e.dirty:
			// Seal the contents slice, shared so no put patches it, and
			// hand the entry to the body: ckpt keeps the copy resident
			// and condemn off it until the snapshot holding it commits.
			e.dirty, e.ckpt, e.shared = false, true, true
			ss.entries = append(ss.entries, sealedEntry{id: id, e: e, data: e.data, lbl: e.lbl})
		}
		// Anything else on the list holds a quarantine verdict, which stays
		// (and keeps its place in QuarantinedObjects).
	}
	return ss
}

// restoreSealed undoes a seal whose checkpoint failed: every sealed entry
// goes back on the changed list, a sealed-dirty one dirty again with its
// sealed copy still resident — one the body already relocated too, since its
// new home is known only to the table in memory; the retry vacates that
// extent like any superseded home — and a sealed deletion as it was (even one
// the body already vacated in memory is still in the committed snapshot), so
// no sealed state is lost and the next checkpoint retries them.  Entries
// deleted or re-written concurrently keep their newer state.
func (s *Store) restoreSealed(ss *sealedState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, se := range ss.entries {
		if !se.dead {
			se.e.ckpt, se.e.dirty = false, !se.e.dead
		}
		s.touch(se.id, se.e)
	}
}

// releaseSealed runs once the snapshot holding the sealed states has
// committed: a sealed entry not changed since the seal leaves the table, its
// state — contents and label, or absence — now the snapshot's; one a put or
// delete changed since leaves ckpt and keeps its newer state for the next
// seal.  Either way the fresh extent supersedes any damage verdict.
func (s *Store) releaseSealed(ss *sealedState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, se := range ss.entries {
		if se.e.listed {
			se.e.ckpt = false
		} else {
			delete(s.objs, se.id)
		}
	}
}

// checkpointBody is the BODY and FINISH of one checkpoint; the caller holds
// ckptRun.  A failure before the snapshot commits undoes the seal.  Sealed
// deletions free space only once a snapshot without them commits, so a
// relocation that runs out of space commits them alone first, under the
// committed epoch so replay restores every logged state, and retries once.
func (s *Store) checkpointBody(ss *sealedState) (err error) {
	defer func() {
		if err != nil && s.metaEpoch != ss.epoch {
			s.restoreSealed(ss)
		}
	}()
	homes := len(s.homes)
	err = s.relocateSealed(ss)
	if errors.Is(err, ErrNoSpace) && len(s.homes) < homes {
		if err = s.writeSnapshot(s.metaEpoch); err == nil {
			err = s.relocateSealed(ss)
		}
	}
	if err != nil {
		return err
	}
	if err := s.cleanSegments(); err != nil {
		return err
	}
	prev := s.metaEpoch
	if err := s.writeSnapshot(ss.epoch); err != nil {
		return err
	}
	s.releaseSealed(ss)
	// FINISH: log retention.  Frames older than the PREVIOUS snapshot's epoch
	// can no longer serve any replay; that snapshot's own are retained so
	// that, should the snapshot written above rot on disk, Open can fall back
	// to the previous snapshot and replay forward from them — zero
	// committed-sync loss.  When even those would keep the log more than half
	// full, they are sacrificed too (degraded: the fallback rung loses its
	// replay tail).
	if err := s.l.ReclaimBefore(prev); err != nil {
		return err
	}
	if s.l.LiveBytes() > s.logSize/2 {
		if err := s.l.ReclaimBefore(ss.epoch); err != nil {
			return err
		}
	}
	s.c.checkpoints.Add(1)
	return nil
}

// relocateSealed is the body's data phase: append each sealed-dirty object to
// a segment, in seal order, each device write without mu, then merge the
// new homes and the sealed deletions into the home table at once.  After a
// failed write only the deletions merge, the homes written are vacated again,
// and the open segment, if the attempt began in it, appends from where it did.
func (s *Store) relocateSealed(ss *sealedState) (err error) {
	open, used := s.openSeg, int64(0)
	if open != nil {
		used = open.used // only this body moves it: ckptRun is held
	}
	written := len(ss.entries)
	for i := range ss.entries {
		se := &ss.entries[i]
		if se.dead {
			continue
		}
		var off int64
		if off, err = s.segAppend(se.data); err != nil {
			written = i
			break
		}
		// The contents CRC travels with the extent in the metadata snapshot;
		// reads and scrubs verify against it.  The entry stays ckpt, and
		// keeps its copy, until that snapshot commits: a sync before then
		// must still log this state (releaseSealed).
		se.home = home{off: off, size: int64(len(se.data)), crc: crc32c(se.data)}
		s.c.bytesHome.Add(uint64(len(se.data)))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delta := ss.entries
	if err != nil {
		delta = nil
		for i, se := range ss.entries {
			if se.dead {
				delta = append(delta, se)
			} else if i < written {
				s.vacateExtent(se.off, se.size)
			}
		}
		if open != nil && open == s.openSeg {
			open.used = used
		}
	}
	s.mergeHomes(delta)
	return err
}

// writeSnapshot serializes the metadata sections against the sealed epoch,
// writes them to the alternate metadata area, flips the superblock, and only
// then installs the free list derived from the tables it serialized.  It runs
// in the checkpoint body or single-threaded construction, so nothing
// allocates in between; ckptRun, held in the body, also fences these device
// writes against a scrub's reads of the same regions.  The committed
// metaWhich/metaEpoch are published under mu with ckptRun held, so a reader
// holding either (scrub, committedEpoch) sees a (which, epoch) pair that
// matches the bytes on disk.  An image larger than the metadata area is
// ErrNoSpace, and changes nothing.
func (s *Store) writeSnapshot(epoch uint64) error {
	s.mu.Lock()
	next := 1 - s.metaWhich
	metaOff := s.metaAreaOff(next)
	meta := s.encodeMetadata(epoch)
	free, err := s.deriveFree(metaOff, false)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if int64(len(meta)) > s.metaSize {
		return fmt.Errorf("%w: metadata (%d bytes) exceeds the metadata area (%d bytes)", ErrNoSpace, len(meta), s.metaSize)
	}
	if _, err := s.d.WriteAt(meta, metaOff); err != nil {
		return err
	}
	// Barrier between the metadata image and the superblock that references
	// it: without it, a write-back cache destaging in ascending offset
	// order could persist the new superblock (offset 0) before the new
	// metadata area behind it.  The same barrier also orders every data
	// write of this checkpoint before the superblock that references them.
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
	s.mu.Lock()
	s.metaWhich, s.metaEpoch, s.free = next, epoch, free
	s.mu.Unlock()
	s.c.metaBytesWritten.Add(uint64(len(meta) + len(sb)))
	return nil
}
