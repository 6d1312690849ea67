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

func alignUp(n int64) int64 {
	return (n + extentAlign - 1) / extentAlign * extentAlign
}

// allocate takes size bytes (rounded up to extentAlign) from the best-fitting
// free extent: the smallest one large enough, the lowest-addressed among
// equals.  The caller holds mu.
func (s *Store) allocate(size int64) (extent, error) {
	need := alignUp(size)
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

// deriveFree returns the data region less every segment and every home outside
// one, refusing as a CorruptError (at areaOff) an extent outside the region
// or two homes overlapping.  With loading
// (a decoded snapshot) the homes inside segments are checked too, each below
// its used mark; at a commit the store's own appends placed them.  The caller
// holds mu, or runs single-threaded.
func (s *Store) deriveFree(areaOff int64, loading bool) ([]extent, error) {
	start, end := s.metaAreaOff(2), s.d.Size() // the data region follows area 1
	// packed: homes inside segments, and each segment's unwritten tail.
	var packed, taken []extent
	for _, seg := range s.segs {
		packed = append(packed, extent{seg.base + seg.used, seg.size - seg.used})
		taken = append(taken, extent{seg.base, seg.size})
	}
	for _, h := range s.homes {
		if s.segContaining(h.off) == nil {
			taken = append(taken, extent{h.off, alignUp(h.size)})
		} else if loading {
			packed = append(packed, extent{h.off, h.size})
		}
	}
	// Sorted, no extent may start before the last one ends;
	// the gaps taken leaves are the free list.
	var free []extent
	for _, es := range [][]extent{packed, taken} {
		slices.SortFunc(es, func(a, b extent) int { return cmp.Or(cmp.Compare(a.off, b.off), cmp.Compare(a.size, b.size)) })
		free = nil
		at := start
		for _, e := range es {
			if e.off < at || e.size < 0 || e.size > end-e.off {
				return nil, &CorruptError{Area: "metadata", Offset: areaOff, Detail: fmt.Sprintf(
					"extent at %d (size %d) overlaps a home, a segment or a segment's unwritten tail, or leaves the data region", e.off, e.size)}
			}
			if e.off > at {
				free = append(free, extent{at, e.off - at})
			}
			at = e.off + e.size
		}
		if end > at {
			free = append(free, extent{at, end - at})
		}
	}
	return free, nil
}
