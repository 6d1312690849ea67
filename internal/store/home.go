package store

import (
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

// homedObject is one entry of an ordered scan over the home table.
type homedObject struct {
	id uint64
	home
}

// The home table is the paper's object map: object ID to home record.  The
// paper keeps it in a B+-tree to scan it by ID; here a scan sorts the ids,
// since the scans that need the order (the metadata image, the cleaner) run
// once a checkpoint.  homeOf, setHome, dropHome and scanHomes are its only
// accessors; callers hold mu, or run single-threaded (Format, Open).

func (s *Store) homeOf(id uint64) (home, bool) {
	h, ok := s.homes[id]
	return h, ok
}

func (s *Store) setHome(id uint64, h home) { s.homes[id] = h }

func (s *Store) dropHome(id uint64) { delete(s.homes, id) }

// scanHomes visits every home in ascending ID order.
func (s *Store) scanHomes(fn func(id uint64, h home)) {
	ids := make([]uint64, 0, len(s.homes))
	for id := range s.homes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fn(id, s.homes[id])
	}
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
	s.integ.corruptions.Add(1)
	if e := s.entry(id); !e.dirty && !e.dead && !e.ckpt && !e.quar {
		s.quarantine(e)
		return 1
	}
	return 0
}
