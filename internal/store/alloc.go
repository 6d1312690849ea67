package store

import (
	"cmp"
	"fmt"
	"slices"
)

// Extent allocation: the free extents of the data region are one slice,
// ascending by offset, guarded by the store's mu.  deriveFree rebuilds it from
// the committed tables at Format, Open and each commit; allocate only takes
// from it in between, so nothing a committed snapshot names is reused, even
// after a failed checkpoint.  (The paper's two B+-trees, by size and by
// location, are here one list of a handful of extents and a best-fit scan.)

type extent struct {
	off  int64
	size int64
}

// allocate takes size bytes (rounded up to a sector) from the best-fitting
// free extent: the smallest one large enough, the lowest-addressed among
// equals.  The caller holds mu.
func (s *Store) allocate(size int64) (extent, error) {
	need := align512(size)
	best := -1
	for i, e := range s.free {
		if e.size >= need && (best < 0 || e.size < s.free[best].size) {
			best = i
		}
	}
	if best < 0 {
		return extent{}, ErrNoSpace
	}
	ext := extent{off: s.free[best].off, size: need}
	if s.free[best].size == need {
		s.free = slices.Delete(s.free, best, best+1)
	} else {
		s.free[best].off += need
		s.free[best].size -= need
	}
	return ext, nil
}

// deriveFree returns the data region less every segment.  With loading (a
// decoded snapshot) it is also the snapshot's structural check: each home
// must lie in a segment, below its used mark, no two homes may overlap, and
// no segment may leave the data region; each violation is a CorruptError (at
// areaOff).  At a commit the store's own appends placed them.  The caller
// holds mu, or runs single-threaded.
func (s *Store) deriveFree(areaOff int64, loading bool) ([]extent, error) {
	corrupt := func(format string, args ...any) error {
		return &CorruptError{Area: "metadata", Offset: areaOff, Detail: fmt.Sprintf(format, args...)}
	}
	if loading {
		homes := make([]extent, 0, len(s.homes))
		for _, h := range s.homes {
			e, seg := extent{h.off, align512(h.size)}, s.segContaining(h.off)
			if seg == nil || h.size < 0 || e.size > seg.base+seg.used-e.off {
				return nil, corrupt("home of object %d at %d (size %d) lies outside every segment's written bytes", h.id, h.off, h.size)
			}
			homes = append(homes, e)
		}
		slices.SortFunc(homes, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
		for i := 1; i < len(homes); i++ {
			if homes[i].off < homes[i-1].off+homes[i-1].size {
				return nil, corrupt("home at %d overlaps the one at %d", homes[i].off, homes[i-1].off)
			}
		}
	}
	// The segments ascend by base, none overlapping (decodeSegsSection);
	// the gaps they leave are the free list.
	var free []extent
	at, end := s.metaAreaOff(2), s.d.Size() // the data region follows area 1
	for _, seg := range s.segs {
		if seg.base < at || seg.size < 0 || seg.size > end-seg.base {
			return nil, corrupt("segment at %d (size %d) leaves the data region", seg.base, seg.size)
		}
		if seg.base > at {
			free = append(free, extent{at, seg.base - at})
		}
		at = seg.base + seg.size
	}
	if end > at {
		free = append(free, extent{at, end - at})
	}
	return free, nil
}
