package store

import (
	"cmp"
	"errors"
	"slices"
	"sort"
)

// The log-structured data region: checkpoint relocations append sealed
// object contents into fixed-size append-only segments at 512-byte
// granularity, so one checkpoint's home writes are a handful of sequential
// streams instead of one random extent per object.  Every home lies in a
// segment.  An object too large to pack (more than half a segment), or any
// object when no free extent holds a whole segment, gets a segment of its
// own, sized to it, which never takes appends.
//
// A segment's extent is never overwritten in place: appends only ever land
// beyond the committed high-water mark (used), and space behind dead
// objects is reclaimed by dropping the whole segment once it is empty, or by
// the cleaner (cleanSegments) once at least half its written bytes are dead.
// The extent is free only once a snapshot not naming it commits (alloc.go),
// so a segment a snapshot on disk references is never written over.

// segment is one append-only extent in the data region.  used is the append
// high-water mark (512-aligned); live counts the 512-aligned bytes of
// objects the object map still references and drives the cleaner; size is
// the extent length recorded when the segment was created, so images opened
// under a different SegmentSize option keep their old segments' geometry.
// live is derived (recomputed from the object map at open); base, size, and
// used are persisted in the metadata snapshot's segment section.  All
// fields are guarded by the store's mu.
type segment struct {
	base int64
	size int64
	used int64
	live int64
}

// align512 is the data region's granularity: a home or a segment takes whole
// sectors, at least one, so even an empty object's home keeps its segment
// live.
func align512(n int64) int64 { return (max(n, 1) + 511) &^ 511 }

// segsUpTo returns how many segments have their base at or below off; the
// caller holds mu.
func (s *Store) segsUpTo(off int64) int {
	return sort.Search(len(s.segs), func(i int) bool { return s.segs[i].base > off })
}

// segContaining returns the segment whose extent contains off, or nil; the
// caller holds mu.
func (s *Store) segContaining(off int64) *segment {
	i := s.segsUpTo(off) - 1
	if i < 0 || off >= s.segs[i].base+s.segs[i].size {
		return nil
	}
	return s.segs[i]
}

// dropSeg forgets a segment other than the open one, whose extent is free
// from the next commit on; the caller holds mu.
func (s *Store) dropSeg(seg *segment) {
	i := s.segsUpTo(seg.base) - 1
	s.segs = slices.Delete(s.segs, i, i+1)
}

// vacateExtent releases the home extent behind (off, size): it decrements
// its segment's live count, dropping the segment at zero.  Called only by
// the checkpoint body (ckptRun serializes), holding mu.
func (s *Store) vacateExtent(off, size int64) {
	seg := s.segContaining(off)
	if seg.live -= align512(size); seg.live <= 0 {
		seg.live = 0
		if seg != s.openSeg {
			s.dropSeg(seg)
		}
	}
}

// segAppend appends one object's contents to the open segment, rotating to a
// freshly allocated one when it would overflow, or to a segment of the
// object's own (see above), and returns the object's new home offset.  The
// device write is issued with no lock held; segment bookkeeping is under mu.
// Only the checkpoint body calls it (ckptRun serializes), so the open segment
// cannot rotate underneath the write.  The bytes count as live only once the
// write succeeds: a failed write names no home, so nothing would ever vacate
// them.
func (s *Store) segAppend(data []byte) (int64, error) {
	sz := align512(int64(len(data)))
	s.mu.Lock()
	seg := s.openSeg
	if own := sz > s.segSize/2; own || seg == nil || seg.used+sz > seg.size {
		ext, err := extent{}, ErrNoSpace
		if !own {
			ext, err = s.allocate(s.segSize)
		}
		if own = err != nil; own { // too large to pack, or no whole segment free
			ext, err = s.allocate(sz)
		}
		if err != nil {
			s.mu.Unlock()
			return 0, err
		}
		seg = &segment{base: ext.off, size: ext.size}
		s.segs = slices.Insert(s.segs, s.segsUpTo(ext.off), seg)
		if !own {
			s.openSeg = seg
		}
	}
	off := seg.base + seg.used
	seg.used += sz
	s.mu.Unlock()
	if len(data) > 0 {
		if _, err := s.d.WriteAt(data, off); err != nil {
			return 0, err
		}
	}
	s.mu.Lock()
	seg.live += sz
	s.mu.Unlock()
	return off, nil
}

// recomputeSegLive derives each segment's live count from the loaded home
// table (it is not persisted).  It also reopens the most recently allocated
// partially filled segment — provided its geometry matches the current
// SegmentSize — so appends continue where the committed snapshot left off.
// Appending beyond a committed used mark is crash-safe: no referenced
// snapshot addresses those bytes.  Runs during Open, single-threaded.
func (s *Store) recomputeSegLive() {
	for _, seg := range s.segs {
		seg.live = 0
	}
	for _, h := range s.homes {
		s.segContaining(h.off).live += align512(h.size)
	}
	s.openSeg = nil
	for _, seg := range s.segs {
		if seg.size == s.segSize && seg.used < seg.size {
			s.openSeg = seg // ascending bases: the last one wins
		}
	}
}

// cleanSegments is the data region's garbage collector, run by the
// checkpoint body after relocation: fully dead segments are freed without
// copying, and segments with at least half their written bytes dead have
// their live objects appended to the open segment so the whole extent can
// be reclaimed.  A live object that fails its contents CRC on the way out
// is condemned and its segment left in place (moving would destroy the
// only — damaged — copy).
func (s *Store) cleanSegments() error {
	s.mu.Lock()
	// Ascending bases, so the victims come out in the deterministic order
	// cleaning needs; the dead are dropped only after the walk.
	var dead, victims []*segment
	for _, seg := range s.segs {
		if seg == s.openSeg || seg.used == 0 {
			continue
		}
		if seg.live == 0 {
			dead = append(dead, seg)
		} else if seg.live*2 < seg.used {
			victims = append(victims, seg)
		}
	}
	for _, seg := range dead {
		s.dropSeg(seg)
	}
	// One home-table walk collects every victim's live objects.
	byVictim := make(map[int64][]homedObject, len(victims))
	for i := 0; i < len(s.homes) && len(victims) > 0; i++ {
		for _, seg := range victims {
			if h := s.homes[i]; h.off >= seg.base && h.off < seg.base+seg.size {
				byVictim[seg.base] = append(byVictim[seg.base], h)
				break
			}
		}
	}
	s.mu.Unlock()
	for _, seg := range victims {
		// One sweep of the arm reads the victim's live objects in offset
		// order, up to any that is damaged; then one stream appends them.
		live, bufs := byVictim[seg.base], [][]byte(nil)
		slices.SortFunc(live, func(a, b homedObject) int { return cmp.Compare(a.off, b.off) })
		for _, o := range live {
			buf, err := s.readVerified(o.home)
			if err != nil {
				if errors.Is(err, ErrCorrupt) {
					s.mu.Lock()
					s.condemn(o.id)
					s.mu.Unlock()
				}
				break
			}
			bufs = append(bufs, buf)
		}
		for n, buf := range bufs {
			o := live[n]
			newOff, err := s.segAppend(buf)
			if err != nil {
				return err
			}
			s.mu.Lock()
			if i, ok := s.homeAt(o.id); ok && s.homes[i].off == o.off {
				s.homes[i].off = newOff // in place: the ID order holds
				s.vacateExtent(o.off, o.size)
			}
			s.mu.Unlock()
			s.c.bytesCleaned.Add(uint64(o.size))
		}
		if len(bufs) == len(live) {
			// Every live object moved out; the final vacateExtent freed the
			// segment when its live count reached zero.
			s.c.segsCleaned.Add(1)
		}
	}
	return nil
}
