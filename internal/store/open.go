package store

import (
	"errors"
	"fmt"

	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/wal"
)

// Open mounts an existing store from d, replaying the write-ahead log if the
// system crashed before the log was applied.  This is the "bootup restores
// the entire system state from the most recent on-disk snapshot" path:
// snapshot metadata is loaded first, then committed log records — each
// carrying an object's contents and canonical label — are re-applied on top,
// so a synced object always comes back with the taint it was synced with.
//
// Every structure is checksum-verified on the way in, and failures walk a
// degradation ladder instead of failing the mount (see RecoveryReport): a
// damaged primary superblock copy falls back to the backup copy; a damaged
// referenced metadata area falls back to the alternate (previous-checkpoint)
// area plus a replay of the log frames FINISH retains for it, losing no
// committed sync; a damaged log yields its valid prefix.  Only when both
// superblock copies or both metadata areas are corrupt does Open refuse,
// with an error matching ErrCorrupt.
func Open(d disk.Device, opts Options) (*Store, error) {
	s := newStore(d, opts)
	if err := s.readSuperblock(); err != nil {
		return nil, err
	}
	s.l = wal.Open(d, logOffset, s.logSize)
	recs, err := s.l.Recover()
	if err != nil {
		if !errors.Is(err, wal.ErrCorrupt) {
			return nil, err
		}
		// Damaged record or header: the valid prefix was recovered and the
		// log resealed.  Mount degraded rather than refusing.
		s.report.WALDamaged = true
		s.noteCorruption(err)
	}
	// Re-apply committed log records on top of the checkpointed state.  Open
	// is single-threaded (the store is not yet published), so entries are
	// written directly.  Replay takes the records of the loaded snapshot's
	// epoch or later — synced after its seal — which subsumes the fallback
	// case: a metadata fallback loads the previous snapshot, an older epoch,
	// whose records FINISH retains, so replay covers everything the lost
	// snapshot held plus what followed — zero committed-sync loss.  The next
	// seal takes an epoch above every recovered one, so no record synced
	// before it is ever replayed over its snapshot.
	top := s.metaEpoch
	for _, r := range recs {
		top = max(top, r.Epoch)
		if r.Epoch < s.metaEpoch {
			continue
		}
		s.report.WALRecordsReplayed++
		e := s.entry(r.ObjectID)
		// The record's label, or none, replaces whatever a checkpoint
		// recorded: a tombstone drops it, and a label-less record asserts the
		// object was unlabeled when it was synced (it may have been deleted
		// and re-created since, with no tombstone ever logged).
		e.lbl = nil
		if r.Delete {
			e.data, e.dirty, e.dead = nil, false, true
			e.quar = false
			continue
		}
		if !r.Range {
			e.data = append([]byte(nil), r.Data...)
		} else if !e.resident() || !applyRangeBody(e.data, r.Data) {
			// Only a replayed whole record makes contents resident here, and
			// without one the log does not say what lies beside these bytes.
			s.noteCorruption(fmt.Errorf("%w: range record for object %d has no replayed whole record to patch", ErrCorrupt, r.ObjectID))
			e.data, e.dirty, e.dead = nil, false, false
			s.quarantine(e)
			continue
		}
		e.dirty = true
		// A logged re-create after a logged tombstone must clear the dead
		// flag, or the next SyncObject would log a spurious deletion.
		e.dead = false
		e.quar = false
		if len(r.Label) > 0 {
			if _, rest, derr := label.DecodeBinary(r.Label); derr != nil || len(rest) != 0 {
				return nil, s.noteCorruption(fmt.Errorf("%w: replaying label of object %d: %v", ErrCorrupt, r.ObjectID, derr))
			}
			e.lbl = r.Label
		}
	}
	s.epoch.Store(top)
	return s, nil
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
	return s.loadMetadata(sb)
}

// loadMetadata loads the snapshot sb references, falling back to the
// alternate area (plus the retained write-ahead log generation, which the
// caller replays) when the referenced one fails verification.
func (s *Store) loadMetadata(sb superblockInfo) error {
	err := s.loadMetaArea(sb.which, sb.epoch, false)
	if err == nil {
		return nil
	}
	if !errors.Is(err, ErrCorrupt) {
		return err
	}
	s.noteCorruption(err)
	// Referenced snapshot is damaged: reset whatever the failed decode
	// half-applied and try the alternate (previous-checkpoint) area.
	s.resetTables()
	alt := 1 - sb.which
	if altErr := s.loadMetaArea(alt, sb.epoch, true); altErr != nil {
		return s.noteCorruption(fmt.Errorf("both metadata areas unusable: %w (alternate: %v)", err, altErr))
	}
	s.report.MetaFallback = true
	s.metaWhich = alt
	return nil
}

// loadMetaArea reads, verifies, and decodes metadata area which, and derives
// its free list.  The referenced area must carry exactly the epoch the
// superblock committed.
// The fallback area must not carry a newer one: a crash after the metadata
// write but before the superblock flip can leave the alternate area holding a
// NEWER, never-committed snapshot, which must not be resurrected.  The same
// one is the referenced snapshot before it committed deletions alone.
func (s *Store) loadMetaArea(which int, sbEpoch uint64, fallback bool) error {
	img, err := s.verifyMetaArea(which)
	if err != nil {
		return err
	}
	areaOff := s.metaAreaOff(which)
	switch {
	case !fallback && img.epoch != sbEpoch:
		return &CorruptError{Area: "metadata", Offset: areaOff + mhEpochOff,
			Detail: fmt.Sprintf("snapshot epoch %d does not match superblock epoch %d", img.epoch, sbEpoch)}
	case fallback && img.epoch > sbEpoch:
		return &CorruptError{Area: "metadata", Offset: areaOff + mhEpochOff,
			Detail: fmt.Sprintf("alternate snapshot epoch %d newer than superblock epoch %d (uncommitted checkpoint)", img.epoch, sbEpoch)}
	}
	for _, sec := range []struct {
		tag    uint64
		decode func(*sectionReader)
	}{
		{secObjMap, s.decodeObjMapSection}, {secSegs, s.decodeSegsSection},
	} {
		r := &sectionReader{buf: img.secs[sec.tag], off: areaOff, area: "metadata"}
		if sec.decode(r); r.err != nil {
			return r.err
		}
	}
	if s.free, err = s.deriveFree(areaOff, true); err != nil {
		return err
	}
	s.recomputeSegLive()
	s.metaEpoch = img.epoch
	s.report.MetaEpoch = img.epoch
	return nil
}

func (s *Store) metaAreaOff(which int) int64 {
	return logOffset + s.logSize + int64(which)*s.metaSize
}

// metaImage is one verified, still undecoded metadata area.
type metaImage struct {
	epoch  uint64
	length int64 // header plus section stream, in bytes
	secs   [secSegs + 1][]byte
}

// verifyMetaArea reads area which and checks its header and every section
// CRC, returning the raw section payloads by tag.  Nothing is decoded, so a
// damaged area can never half-apply; Open decodes what this returns, Scrub
// only counts it.
func (s *Store) verifyMetaArea(which int) (img metaImage, err error) {
	areaOff := s.metaAreaOff(which)
	hdr := make([]byte, metaHeaderSize)
	if _, err := s.d.ReadAt(hdr, areaOff); err != nil {
		return img, err
	}
	epoch, payloadLen, err := parseMetaHeader(hdr, areaOff, s.metaSize-metaHeaderSize)
	if err != nil {
		return img, err
	}
	payload := make([]byte, payloadLen)
	if _, err := s.d.ReadAt(payload, areaOff+metaHeaderSize); err != nil {
		return img, err
	}
	secs, err := parseSections(payload, areaOff+metaHeaderSize)
	return metaImage{epoch: epoch, length: metaHeaderSize + payloadLen, secs: secs}, err
}
