package store

import (
	"errors"
	"fmt"
	"slices"
)

// Integrity errors.  Every corruption the store detects — superblock,
// base, chain record, object extent, or write-ahead log — is
// reported through an error that errors.Is-matches ErrCorrupt; no decode
// path returns a bare fmt.Errorf or panics on damaged bytes.
var (
	// ErrCorrupt is the sentinel every detected-corruption error wraps.
	ErrCorrupt = errors.New("store: corrupt on-disk state")
	// ErrQuarantined is returned when accessing an object whose home-extent
	// contents failed checksum verification.  The rest of the store keeps
	// serving; the damaged object stays enumerable via QuarantinedObjects
	// until its contents are replaced by a Put or Delete.
	ErrQuarantined = errors.New("store: object quarantined (failed integrity verification)")
)

// CorruptError describes where corruption was detected.  It matches
// ErrCorrupt under errors.Is.
type CorruptError struct {
	// Area names the damaged structure: "superblock", "metadata", "chain",
	// "object", or "wal".
	Area string
	// Offset is the byte offset on the device where the damage was detected.
	Offset int64
	// Detail says what check failed, including expected/got values where
	// they exist.
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt %s at offset %d: %s", e.Area, e.Offset, e.Detail)
}

func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// corrupt reports damage to area found at device offset off.
func corrupt(area string, off int64, format string, args ...any) error {
	return &CorruptError{Area: area, Offset: off, Detail: fmt.Sprintf(format, args...)}
}

// QuarantineError identifies a quarantined object.  It matches both
// ErrQuarantined and ErrCorrupt under errors.Is.
type QuarantineError struct {
	ID     uint64
	Detail string
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("store: object %d quarantined: %s", e.ID, e.Detail)
}

func (e *QuarantineError) Is(target error) bool {
	return target == ErrQuarantined || target == ErrCorrupt
}

// RecoveryReport records which rungs of the degradation ladder Open had to
// take to mount the store.  A clean open reports all-false.
type RecoveryReport struct {
	// SuperblockFallback: the primary superblock copy failed its checks and
	// the backup copy at offset 512 was used.
	SuperblockFallback bool
	// MetaFallback: the superblock's base failed its checks; the previous
	// base it names was loaded and its chain followed into the failed one's.
	MetaFallback bool
	// ChainTruncated: a run header, or a delta with the chain going on past
	// it, failed its checks; the snapshot is the last delta before it.
	ChainTruncated bool
	// MetaEpoch is the checkpoint epoch of the snapshot actually loaded: the
	// base's, or its chain's last delta's.
	MetaEpoch uint64
	// WALDamaged: the write-ahead log had a damaged record or header; the
	// valid prefix was replayed, and the log refuses syncs until a
	// checkpoint restarts it (a damaged header was rewritten empty).
	WALDamaged bool
	// WALRecordsReplayed counts the log records applied on top of the
	// loaded snapshot.
	WALRecordsReplayed int
}

// Degraded reports whether any fallback rung fired.
func (r RecoveryReport) Degraded() bool {
	return r.SuperblockFallback || r.MetaFallback || r.ChainTruncated || r.WALDamaged
}

// RecoveryReport returns what the mounting Open had to do; immutable after
// Open returns.
func (s *Store) RecoveryReport() RecoveryReport { return s.report }

// QuarantinedObjects returns, in ascending order, the IDs of every object
// currently in quarantine.
func (s *Store) QuarantinedObjects() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []uint64
	for id, e := range s.objs {
		if e.quar {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// quarantine marks an entry damaged and counts the event; the caller holds
// mu.
func (s *Store) quarantine(e *objEntry) {
	if !e.quar {
		e.quar = true
		s.c.quarantines.Add(1)
	}
}

// noteCorruption counts a detected corruption and returns err unchanged, so
// detection sites stay one-liners.
func (s *Store) noteCorruption(err error) error {
	s.c.corruptions.Add(1)
	return err
}
