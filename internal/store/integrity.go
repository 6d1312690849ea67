package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Integrity errors.  Every corruption the store detects — superblock,
// metadata area, object extent, or write-ahead log — is
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
	// Area names the damaged structure: "superblock", "metadata", "object",
	// or "wal".
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
	// MetaFallback: the superblock-referenced metadata area failed its
	// checks; the alternate (previous-checkpoint) area was loaded and the
	// write-ahead log replayed from the retained generation forward.
	MetaFallback bool
	// MetaEpoch is the checkpoint epoch of the metadata snapshot actually
	// loaded.
	MetaEpoch uint64
	// WALDamaged: the write-ahead log had a damaged record or header; the
	// valid prefix was replayed and the log resealed.
	WALDamaged bool
	// WALRecordsReplayed counts the log records applied on top of the
	// loaded snapshot.
	WALRecordsReplayed int
}

// Degraded reports whether any fallback rung fired.
func (r RecoveryReport) Degraded() bool {
	return r.SuperblockFallback || r.MetaFallback || r.WALDamaged
}

// RecoveryReport returns what the mounting Open had to do; immutable after
// Open returns.
func (s *Store) RecoveryReport() RecoveryReport { return s.report }

// integrityCounters holds the store's corruption accounting.
type integrityCounters struct {
	corruptions atomic.Uint64 // checksum/structure failures detected
	quarantines atomic.Uint64 // quarantine events (cumulative)
	scrubPasses atomic.Uint64
	scrubBytes  atomic.Uint64

	mu        sync.Mutex
	lastScrub ScrubStats
}

// IntegrityStats is the store's corruption-accounting snapshot.
type IntegrityStats struct {
	// CorruptionsDetected counts every checksum or structural failure the
	// store has detected (at open, on access, or during scrubs).
	CorruptionsDetected uint64
	// QuarantineEvents counts objects placed in quarantine (cumulative);
	// QuarantinedNow is how many are quarantined at this instant.
	QuarantineEvents uint64
	QuarantinedNow   int
	// ScrubPasses and ScrubBytesVerified accumulate across Scrub calls;
	// LastScrub is the most recent pass's full result.
	ScrubPasses        uint64
	ScrubBytesVerified uint64
	LastScrub          ScrubStats
	// Recovery is what Open had to do to mount this store.
	Recovery RecoveryReport
}

// IntegrityStats returns the store's corruption accounting.
func (s *Store) IntegrityStats() IntegrityStats {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	s.integ.mu.Lock()
	last := s.integ.lastScrub
	s.integ.mu.Unlock()
	return IntegrityStats{
		CorruptionsDetected: s.integ.corruptions.Load(),
		QuarantineEvents:    s.integ.quarantines.Load(),
		QuarantinedNow:      len(s.quarantinedLocked()),
		ScrubPasses:         s.integ.scrubPasses.Load(),
		ScrubBytesVerified:  s.integ.scrubBytes.Load(),
		LastScrub:           last,
		Recovery:            s.report,
	}
}

// QuarantinedObjects returns, in ascending order, the IDs of every object
// currently in quarantine.
func (s *Store) QuarantinedObjects() []uint64 {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	return s.quarantinedLocked()
}

// quarantinedLocked enumerates quarantined IDs; caller holds ckptMu (either
// mode).
func (s *Store) quarantinedLocked() []uint64 {
	var out []uint64
	for si := range s.shards {
		for _, se := range s.shards[si].snapshot() {
			se.entry.mu.Lock()
			q := se.entry.quar
			se.entry.mu.Unlock()
			if q {
				out = append(out, se.id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quarantine marks an entry damaged and counts the event; caller holds the
// entry's lock.
func (s *Store) quarantine(e *objEntry) {
	if !e.quar {
		e.quar = true
		s.integ.quarantines.Add(1)
	}
}

// noteCorruption counts a detected corruption and returns err unchanged, so
// detection sites stay one-liners.
func (s *Store) noteCorruption(err error) error {
	s.integ.corruptions.Add(1)
	return err
}
