package store

import (
	"cmp"
	"slices"
)

// Extent allocation: the free extents of the data region are one slice,
// ascending by offset, with no two touching, guarded by the store's mu.  The
// paper keeps two B+-trees here, by size for allocation and by location for
// coalescing; the list is a handful of extents on every workload, so a scan
// finds the best fit and a binary search finds the neighbours.

type extent struct {
	off  int64
	size int64
}

func alignUp(n int64) int64 {
	if n <= 0 {
		return extentAlign
	}
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

// addFree returns an extent to the free list, merging it with the free
// extents it touches; the caller holds mu.
func (s *Store) addFree(e extent) {
	if e.size <= 0 {
		return
	}
	i, _ := slices.BinarySearchFunc(s.free, e.off, func(f extent, off int64) int { return cmp.Compare(f.off, off) })
	prev := i > 0 && s.free[i-1].off+s.free[i-1].size == e.off
	next := i < len(s.free) && e.off+e.size == s.free[i].off
	switch {
	case prev && next:
		s.free[i-1].size += e.size + s.free[i].size
		s.free = slices.Delete(s.free, i, i+1)
	case prev:
		s.free[i-1].size += e.size
	case next:
		s.free[i].off = e.off
		s.free[i].size += e.size
	default:
		s.free = slices.Insert(s.free, i, e)
	}
}
