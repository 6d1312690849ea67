package store

import (
	"cmp"
	"fmt"
	"slices"
)

// home is an object's committed home record: where its contents live in the
// data region, how long they are, and their CRC32C, which every reader of
// the extent verifies.
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
// is; a checkpoint merges into it once (mergeHomes) and the cleaner moves
// homes in place.  Callers hold mu, or run single-threaded.

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

// mergeHomes merges sealed entries, a copy sorted by ID, into the home
// table's other buffer: each vacates the home it replaces and, unless dead,
// installs its own.  The seal's order stays, for a retry after a failure.
// It returns the rows that changed, ascending: a home that left is one at 0.
func (s *Store) mergeHomes(delta []sealedEntry) (rows []homedObject) {
	delta = slices.Clone(delta)
	slices.SortFunc(delta, func(a, b sealedEntry) int { return cmp.Compare(a.id, b.id) })
	out := s.spare[:0]
	i := 0
	for _, se := range delta {
		for ; i < len(s.homes) && s.homes[i].id < se.id; i++ {
			out = append(out, s.homes[i])
		}
		had := i < len(s.homes) && s.homes[i].id == se.id
		if had {
			s.vacateExtent(s.homes[i].off, s.homes[i].size)
			i++
		}
		if !se.dead {
			out = append(out, homedObject{se.id, se.home, se.lbl})
			rows = append(rows, out[len(out)-1])
		} else if had {
			rows = append(rows, homedObject{id: se.id})
		}
	}
	s.spare, s.homes = s.homes, append(out, s.homes[i:]...)
	return rows
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
		return nil, corrupt("object", h.off, "contents checksum mismatch: got %#x, want %#x", got, h.crc)
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

// diffSegs returns the segment rows that turn table was into now: each
// segment of now new or changed, and one of size 0 for each that left.
func diffSegs(was, now []*segment) (out []*segment) {
	i := 0
	for _, g := range now {
		for ; i < len(was) && was[i].base < g.base; i++ {
			out = append(out, &segment{base: was[i].base})
		}
		if i < len(was) && was[i].base == g.base {
			if i++; was[i-1].size == g.size && was[i-1].used == g.used {
				continue
			}
		}
		out = append(out, g)
	}
	for ; i < len(was); i++ {
		out = append(out, &segment{base: was[i].base})
	}
	return out
}

// mergeRows applies a delta's rows set to the table rows, both ascending by
// key: a row replaces the one of its key or joins, or, isGone, removes it,
// which must be there.  It returns the table and the rows removed.
func mergeRows[T any](rows, set []T, key func(T) uint64, isGone func(T) bool) (out, removed []T, err error) {
	for len(rows) > 0 || len(set) > 0 {
		switch {
		case len(set) == 0 || len(rows) > 0 && key(rows[0]) < key(set[0]):
			out, rows = append(out, rows[0]), rows[1:]
			continue
		case len(rows) == 0 || key(set[0]) < key(rows[0]):
			if isGone(set[0]) {
				return nil, nil, fmt.Errorf("%d leaves a table it is not in", key(set[0]))
			}
			out = append(out, set[0])
		case isGone(set[0]):
			removed, rows = append(removed, rows[0]), rows[1:]
		default:
			out, rows = append(out, set[0]), rows[1:]
		}
		set = set[1:]
	}
	return out, removed, nil
}

func homeKey(h homedObject) uint64 { return h.id }
func segKey(g *segment) uint64     { return uint64(g.base) }
