package store

import (
	"cmp"
	"slices"
)

// Extent allocation: the free extents of the data region are one slice,
// ascending by offset, guarded by mu (the paper's two B+-trees, by size and
// by location).  deriveFree rebuilds it at Format, Open and each commit, and
// allocate only takes from it in between, so nothing a committed snapshot
// names is reused.  A segment a commit drops is held until the next one, so
// nor is anything the snapshot before the last delta names: Open can fall
// back one delta.

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

// allocateTop takes size bytes, in whole sectors, from the end of the last
// free extent large enough; the caller holds mu.  A full store's chain
// records come from the top, so they do not split the room objects free.
func (s *Store) allocateTop(size int64) (extent, error) {
	need := align512(size)
	for i := len(s.free) - 1; i >= 0; i-- {
		if e := s.free[i]; e.size >= need {
			if s.free[i].size -= need; e.size == need {
				s.free = slices.Delete(s.free, i, i+1)
			}
			return extent{e.off + e.size - need, need}, nil
		}
	}
	return extent{}, ErrNoSpace
}

// deriveFree returns the data region less every segment.  With loading (a
// decoded snapshot) it is also the snapshot's structural check: each home
// and each chain record must lie in a segment, below its used mark, no two
// homes may overlap, and no segment may leave the data region or overlap
// another; each violation is a CorruptError (at areaOff).  At a commit the store's own appends placed them.  The caller
// holds mu, or runs single-threaded.
func (s *Store) deriveFree(areaOff int64, loading bool) ([]extent, error) {
	bad := func(format string, args ...any) error { return corrupt("metadata", areaOff, format, args...) }
	if loading {
		homes := make([]extent, 0, len(s.homes))
		for _, h := range s.homes {
			e, seg := extent{h.off, align512(h.size)}, s.segContaining(h.off)
			if seg == nil || h.size < 0 || e.size > seg.base+seg.used-e.off {
				return nil, bad("home of object %d at %d (size %d) lies outside every segment's written bytes", h.id, h.off, h.size)
			}
			homes = append(homes, e)
		}
		for _, e := range append(slices.Clip(s.chain), s.prevChain...) {
			if seg := s.segContaining(e.off); seg == nil || e.size <= 0 || e.size > seg.base+seg.used-e.off {
				return nil, bad("chain record at %d (size %d) lies outside every segment's written bytes", e.off, e.size)
			}
		}
		slices.SortFunc(homes, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
		for i := 1; i < len(homes); i++ {
			if homes[i].off < homes[i-1].off+homes[i-1].size {
				return nil, bad("home at %d overlaps the one at %d", homes[i].off, homes[i-1].off)
			}
		}
	}
	// The segments ascend by base, none overlapping (decodeSegsSection);
	// the gaps they and the held extents leave are the free list.
	var free []extent
	at, end := s.metaAreaOff(2), s.d.Size() // the data region follows area 1
	slices.SortFunc(s.held, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
	held := s.held
	for _, seg := range s.segs {
		if seg.base < at || seg.size <= 0 || seg.size > end-seg.base {
			return nil, bad("segment at %d (size %d) leaves the data region or overlaps another", seg.base, seg.size)
		}
		for ; len(held) > 0 && held[0].off < seg.base; held = held[1:] {
			free, at = gap(free, at, held[0].off), held[0].off+held[0].size
		}
		free, at = gap(free, at, seg.base), seg.base+seg.size
	}
	for _, e := range held {
		free, at = gap(free, at, e.off), e.off+e.size
	}
	return gap(free, at, end), nil
}

// gap appends [at, to) to free unless it is empty.
func gap(free []extent, at, to int64) []extent {
	if to > at {
		free = append(free, extent{at, to - at})
	}
	return free
}
