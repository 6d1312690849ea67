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
	// BasesChecked / BasesOK cover the current base and, while one is
	// pinned, the previous one.
	BasesChecked int
	BasesOK      int
	// ObjectsChecked counts home extents verified against their recorded
	// contents CRC; ObjectsQuarantined counts objects newly quarantined by
	// this pass.
	ObjectsChecked     int
	ObjectsQuarantined int
	// CorruptionsFound is every verification failure this pass detected
	// (superblock copies, bases, the chain, object extents).
	CorruptionsFound int
	// BytesVerified is the volume of data read and checksummed.
	BytesVerified int64
	// Duration is the wall-clock cost of the pass.
	Duration time.Duration
}

// Scrub verifies the store's on-disk state in the background: both
// superblock copies, the base (and the previous one, while pinned), every
// run header and delta of the chain since the base, and every home extent
// against its CRC, quarantining a mismatch as an access would.  The first
// four run under ckptRun, which keeps a checkpoint body from writing them
// meanwhile; the object walk takes no lock but mu: before each object, to
// stop with ErrClosed and what it verified once a Close has overtaken it,
// and for a mismatch, which it re-checks against the live home table before
// any verdict, since a body may have moved the object since the walk began.
func (s *Store) Scrub() (ScrubStats, error) {
	start := time.Now()
	var st ScrubStats

	s.ckptRun.Lock()
	targets, err := s.scrubTargets()
	if err == nil {
		s.scrubMetadata(&st)
	}
	s.ckptRun.Unlock()
	if err != nil {
		return ScrubStats{}, err
	}

	for _, t := range targets {
		if s.scrubGate != nil {
			s.scrubGate()
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			err = ErrClosed
			break
		}
		s.scrubOneObject(t, &st)
	}

	st.Duration = time.Since(start)
	return st, err
}

// scrubMetadata verifies both superblock copies, the base, the previous base
// while it is pinned (the copy a fallback would need), and the chain, as Open
// would walk it; the caller holds ckptRun, which keeps them stable.
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
	for i, at := range []extent{s.base.ext, s.prevBase} {
		if at.size > 0 { // a fallback mount pins no previous base
			st.BasesChecked++
			r, err := s.readBase(at)
			if found(err == nil && (r.epoch == s.base.epoch || i > 0 && r.epoch < s.base.epoch), at.size) {
				st.BasesOK++
			}
		}
	}
	n, err := s.walkChain(s.base.run, s.base.chain, s.chainID, s.base.epoch, nil)
	found(err == nil && n == len(s.chain)-1, 0)
}

// scrubTargets captures every home under mu, so the walk itself reads the
// device with mu free; a closed store has none to give.
func (s *Store) scrubTargets() ([]homedObject, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return slices.Clone(s.homes), nil
}

// scrubOneObject verifies one captured home extent.  Only a mismatch the
// live home table of an open store still vouches for is a verdict: a body
// may have moved the object since the capture, and a Close may have
// overtaken the walk.
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
	if cur, ok := s.homeOf(t.id); ok && cur == t.home && !s.closed {
		st.CorruptionsFound++
		st.ObjectsQuarantined += s.condemn(t.id)
	}
}
