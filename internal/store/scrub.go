package store

import (
	"errors"
	"slices"
	"time"
)

// ScrubStats is the result of one scrub pass.
type ScrubStats struct {
	// SuperblockCopiesOK counts the superblock copies (of 2) that passed
	// verification.
	SuperblockCopiesOK int
	// MetaAreasChecked / MetaAreasOK cover the referenced metadata area
	// and, when it holds a committed snapshot, the alternate one.
	MetaAreasChecked int
	MetaAreasOK      int
	// ObjectsChecked counts home extents verified against their recorded
	// contents CRC; ObjectsQuarantined counts objects newly quarantined by
	// this pass.
	ObjectsChecked     int
	ObjectsQuarantined int
	// CorruptionsFound is every verification failure this pass detected
	// (superblock copies, metadata areas, object extents).
	CorruptionsFound int
	// BytesVerified is the volume of data read and checksummed.
	BytesVerified int64
	// Duration is the wall-clock cost of the pass.
	Duration time.Duration
}

// scrubChunk bounds how many object extents are verified per ckptMu read
// hold.  The gate is reacquired between chunks, so a pending checkpoint
// seal (a ckptMu writer) waits for at most one chunk of reads — not the
// whole pass — and syncs queued behind that writer see bounded latency.
const scrubChunk = 64

// Scrub verifies the store's on-disk state in the background of normal
// operation: both superblock copies, the referenced (and, when present, the
// alternate) metadata area, and every object home extent against its
// recorded contents CRC.  Mismatched extents are quarantined exactly as an
// access-time detection would.
//
// The object walk is chunked: each chunk of extents is verified under its
// own ckptMu read hold, and the lock is dropped between chunks, so a
// checkpoint seal never queues behind a full pass (and syncs never queue
// behind the seal).  Because the checkpoint body relocates extents
// concurrently, a mismatch is re-validated against the live object map
// before any quarantine verdict: a target whose object has moved or been
// re-checksummed since capture is simply stale, not damaged.  Superblock
// and metadata-area verification runs under ckptRun: only a checkpoint body
// writes those regions, so scrub never reads a torn in-progress image, and
// ckptRun is dropped before the object walk, so a checkpoint waits out only
// this first phase.
func (s *Store) Scrub() (ScrubStats, error) {
	start := time.Now()
	var st ScrubStats

	s.ckptRun.Lock()
	s.ckptMu.RLock()
	if s.closed {
		s.ckptMu.RUnlock()
		s.ckptRun.Unlock()
		return ScrubStats{}, ErrClosed
	}
	s.scrubSuperblock(&st)
	s.scrubMetaAreas(&st)
	targets := s.scrubTargets()
	s.ckptMu.RUnlock()
	s.ckptRun.Unlock()

	for len(targets) > 0 {
		if s.scrubGate != nil {
			s.scrubGate()
		}
		n := scrubChunk
		if n > len(targets) {
			n = len(targets)
		}
		chunk := targets[:n]
		targets = targets[n:]
		s.ckptMu.RLock()
		if s.closed {
			s.ckptMu.RUnlock()
			break
		}
		for _, t := range chunk {
			s.scrubOneObject(t, &st)
		}
		s.ckptMu.RUnlock()
	}

	st.Duration = time.Since(start)
	return st, nil
}

// scrubSuperblock verifies both superblock copies in place; the caller
// holds ckptRun.
func (s *Store) scrubSuperblock(st *ScrubStats) {
	raw := make([]byte, sbBackupOff+sbCopySize)
	if _, err := s.d.ReadAt(raw, superblockOffset); err != nil {
		st.CorruptionsFound++
		s.c.corruptions.Add(1)
		return
	}
	_, perr := parseSuperblockCopy(raw[:sbCopySize], superblockOffset)
	_, berr := parseSuperblockCopy(raw[sbBackupOff:], superblockOffset+sbBackupOff)
	st.BytesVerified += 2 * sbCopySize
	if perr == nil {
		st.SuperblockCopiesOK++
	} else {
		st.CorruptionsFound++
		s.c.corruptions.Add(1)
	}
	if berr == nil {
		st.SuperblockCopiesOK++
	} else {
		st.CorruptionsFound++
		s.c.corruptions.Add(1)
	}
}

// scrubMetaAreas verifies the referenced metadata area and, when it holds a
// committed (no newer epoch) snapshot, the alternate one — the copy a
// future fallback would depend on.  The caller holds ckptRun, which keeps
// metaWhich and metaEpoch stable (only a checkpoint body updates them) and
// excludes an in-progress area rewrite.
func (s *Store) scrubMetaAreas(st *ScrubStats) {
	// Referenced area: must verify at the current epoch.
	st.MetaAreasChecked++
	if img, err := s.verifyMetaArea(s.metaWhich); err != nil || img.epoch != s.metaEpoch {
		st.CorruptionsFound++
		s.c.corruptions.Add(1)
	} else {
		st.MetaAreasOK++
		st.BytesVerified += img.length
	}
	// Alternate area: only meaningful once it holds a committed snapshot
	// (epoch no newer than the superblock's).  An unparseable header is
	// indistinguishable from "never written", so it is skipped rather than
	// counted.
	if alt, err := s.verifyMetaArea(1 - s.metaWhich); err == nil && alt.epoch <= s.metaEpoch {
		st.MetaAreasChecked++
		st.MetaAreasOK++
		st.BytesVerified += alt.length
	}
}

// scrubTargets captures every home under mu, so the walk itself reads the
// device with mu free.
func (s *Store) scrubTargets() []homedObject {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.homes)
}

// scrubOneObject verifies one captured home extent; the caller holds ckptMu
// in read mode.
func (s *Store) scrubOneObject(t homedObject, st *ScrubStats) {
	_, err := s.readVerified(t.home)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		st.CorruptionsFound++
		s.c.corruptions.Add(1)
		return
	}
	st.ObjectsChecked++
	st.BytesVerified += t.size
	if err == nil {
		return
	}
	// The extent disagrees with the record captured at walk start — but the
	// checkpoint body may have relocated the object since then, making this
	// target stale rather than damaged.  Only a mismatch the live home table
	// still vouches for is a real verdict.
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.homeOf(t.id); ok && cur == t.home {
		st.CorruptionsFound++
		st.ObjectsQuarantined += s.condemn(t.id)
	}
}
