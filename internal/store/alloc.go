package store

import "histar/internal/btree"

// Extent allocation: two B+-trees over the free extents of the data region,
// one keyed by (size, offset) for best-fit allocation and one by offset for
// coalescing, both guarded by the store's mu.

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

// allocate finds a free extent of at least size bytes using the
// free-by-size tree, splitting the extent when it is larger than needed;
// the caller holds mu.
func (s *Store) allocate(size int64) (extent, error) {
	need := alignUp(size)
	k, _, ok := s.freeBySize.Ceiling(btree.K2(uint64(need), 0))
	if !ok {
		return extent{}, ErrNoSpace
	}
	ext := extent{off: int64(k[1]), size: int64(k[0])}
	s.removeFree(ext)
	if ext.size > need {
		s.addFree(extent{off: ext.off + need, size: ext.size - need})
		ext.size = need
	}
	return ext, nil
}

// addFree inserts an extent into both free trees, coalescing with adjacent
// extents (the purpose of the offset-indexed tree); the caller holds mu.
func (s *Store) addFree(e extent) {
	if e.size <= 0 {
		return
	}
	// Coalesce with the preceding extent.
	if k, v, ok := s.freeByOff.Floor(btree.K1(uint64(e.off))); ok {
		prev := extent{off: int64(k[0]), size: int64(v)}
		if prev.off+prev.size == e.off {
			s.removeFree(prev)
			e.off = prev.off
			e.size += prev.size
		}
	}
	// Coalesce with the following extent.
	if k, v, ok := s.freeByOff.Ceiling(btree.K1(uint64(e.off + e.size))); ok {
		next := extent{off: int64(k[0]), size: int64(v)}
		if e.off+e.size == next.off {
			s.removeFree(next)
			e.size += next.size
		}
	}
	s.freeBySize.Put(btree.K2(uint64(e.size), uint64(e.off)), 0)
	s.freeByOff.Put(btree.K1(uint64(e.off)), uint64(e.size))
}

func (s *Store) removeFree(e extent) {
	s.freeBySize.Delete(btree.K2(uint64(e.size), uint64(e.off)))
	s.freeByOff.Delete(btree.K1(uint64(e.off)))
}
