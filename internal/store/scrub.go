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
	// (superblock copies, metadata areas, the chain, object extents).
	CorruptionsFound int
	// BytesVerified is the volume of data read and checksummed.
	BytesVerified int64
	// Duration is the wall-clock cost of the pass.
	Duration time.Duration
}

// scrubChunk bounds how many object extents are verified per ckptMu read
// hold, so a checkpoint seal waits for at most one chunk, and the syncs
// behind it see bounded latency.
const scrubChunk = 64

// Scrub verifies the store's on-disk state in the background: both
// superblock copies, the base (and the other area's, when no newer), every
// run header and delta of the chain since the base, and every home extent
// against its CRC, quarantining a mismatch as an access would.  The first
// four run under ckptRun, which keeps a checkpoint body from writing them
// meanwhile; the object walk runs in chunks, each under its own ckptMu read
// hold, and re-checks a mismatch against the live home table before any
// verdict, since the body may have moved the object since the walk began.
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
	s.scrubMetadata(&st)
	targets := s.scrubTargets()
	s.ckptMu.RUnlock()
	s.ckptRun.Unlock()

	for len(targets) > 0 {
		if s.scrubGate != nil {
			s.scrubGate()
		}
		n := min(scrubChunk, len(targets))
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

// scrubMetadata verifies both superblock copies, the base, the other area's
// base when it is no newer (the copy a fallback would need; an unparseable
// one may never have been written, and is not counted), and the chain, as
// Open would walk it; the caller holds ckptRun, which keeps them stable.
func (s *Store) scrubMetadata(st *ScrubStats) {
	found := func(ok bool, n int64) bool {
		if !ok {
			st.CorruptionsFound++
			s.c.corruptions.Add(1)
		}
		st.BytesVerified += n
		return ok
	}
	raw := make([]byte, sbBackupOff+sbCopySize)
	if _, err := s.d.ReadAt(raw, superblockOffset); !found(err == nil, 0) {
		return
	}
	for _, off := range []int64{superblockOffset, superblockOffset + sbBackupOff} {
		if _, err := parseSuperblockCopy(raw[off:], off); found(err == nil, sbCopySize) {
			st.SuperblockCopiesOK++
		}
	}
	st.MetaAreasChecked++
	if img, err := s.verifyMetaArea(s.metaWhich); found(err == nil && img.epoch == s.base.epoch, img.length) {
		st.MetaAreasOK++
	}
	if alt, err := s.verifyMetaArea(1 - s.metaWhich); err == nil && alt.epoch <= s.base.epoch {
		st.MetaAreasChecked++
		st.MetaAreasOK++
		st.BytesVerified += alt.length
	}
	n, err := s.walkChain(s.base.run, s.base.chain, s.chainID, s.base.epoch, nil)
	found(err == nil && n == len(s.chain)-1, 0)
}

// scrubTargets captures every home under mu, so the walk itself reads the
// device with mu free.
func (s *Store) scrubTargets() []homedObject {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.homes)
}

// scrubOneObject verifies one captured home extent; the caller holds ckptMu
// in read mode.  Only a mismatch the live home table still vouches for is a
// verdict: the body may have moved the object since the capture.
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.homeOf(t.id); ok && cur == t.home {
		st.CorruptionsFound++
		st.ObjectsQuarantined += s.condemn(t.id)
	}
}
