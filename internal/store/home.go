package store

import (
	"cmp"
	"fmt"
	"slices"
)

// home is an object's committed home record: where its contents live in the
// data region, how long they are, and the CRC32C they had when the
// checkpoint wrote them there.  It is the one per-object fact the metadata
// snapshot persists, and the unit every reader of a home extent (Get, scrub,
// the cleaner) verifies against.
type home struct {
	off  int64
	size int64
	crc  uint32
}

// homedObject is one entry of the home table: an object ID, its home, and
// the label its contents were sealed with, encoded (nil: none).
type homedObject struct {
	id uint64
	home
	lbl []byte
}

// The home table is the paper's object map, ascending by ID as its B+-tree
// is: a lookup is a binary search, the image, cleaner, deriveFree and scrub
// walk it in order, a checkpoint merges into it once (mergeHomes) and the
// cleaner moves homes in place.  Callers hold mu, or run single-threaded.

// homeAt returns the index of id's home, or where it would go, and whether it is there.
func (s *Store) homeAt(id uint64) (int, bool) {
	return slices.BinarySearchFunc(s.homes, id, func(h homedObject, id uint64) int { return cmp.Compare(h.id, id) })
}

func (s *Store) homeOf(id uint64) (home, bool) {
	i, ok := s.homeAt(id)
	if !ok {
		return home{}, false
	}
	return s.homes[i].home, true
}

// mergeHomes merges sealed entries, ascending by ID, into the home table's
// other buffer: each vacates the home it replaces and, unless dead, installs
// its own.
func (s *Store) mergeHomes(delta []sealedEntry) {
	out := s.spare[:0]
	i := 0
	for _, se := range delta {
		for ; i < len(s.homes) && s.homes[i].id < se.id; i++ {
			out = append(out, s.homes[i])
		}
		if i < len(s.homes) && s.homes[i].id == se.id {
			s.vacateExtent(s.homes[i].off, s.homes[i].size)
			i++
		}
		if !se.dead {
			out = append(out, homedObject{se.id, se.home, se.lbl})
		}
	}
	s.spare, s.homes = s.homes, append(out, s.homes[i:]...)
}

// readVerified reads the extent h names and checks the contents against
// h.crc; a mismatch comes back as a CorruptError.  It passes no verdict: the
// caller decides whether h is still current (scrub's captured targets may be
// stale) and then calls condemn.
func (s *Store) readVerified(h home) ([]byte, error) {
	buf := make([]byte, h.size)
	if h.size > 0 {
		if _, err := s.d.ReadAt(buf, h.off); err != nil {
			return nil, err
		}
	}
	if got := crc32c(buf); got != h.crc {
		return nil, &CorruptError{Area: "object", Offset: h.off,
			Detail: fmt.Sprintf("contents checksum mismatch: got %#x, want %#x", got, h.crc)}
	}
	return buf, nil
}

// condemn is the one verdict on an object whose home extent failed
// verification, whichever read path found it: the corruption is counted and
// the object quarantined.  An object whose in-memory state is dirty, dead or
// sealed into the running checkpoint is left alone: that state replaces the
// extent at the next relocation, so the damaged bytes are already
// superseded.  The caller holds mu; condemn returns 1 if it newly
// quarantined the object, else 0.
func (s *Store) condemn(id uint64) int {
	s.c.corruptions.Add(1)
	if e := s.entry(id); !e.dirty && !e.dead && !e.ckpt && !e.quar {
		s.quarantine(e)
		return 1
	}
	return 0
}
