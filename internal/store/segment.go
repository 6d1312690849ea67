package store

import (
	"cmp"
	"errors"
	"slices"
	"sort"
)

// The log-structured data region: a checkpoint appends sealed contents, its
// chain records and the cleaner's moves into append-only segments at
// 512-byte granularity, a few sequential streams.  Every home lies in a
// segment; an object over half a segment, or any object when no free extent
// holds a whole segment, gets one of its own, which never takes appends.  A
// segment is never overwritten in place: appends land past its high-water
// mark, and it is dropped once empty.  Garbage waits until the packed
// segments fall under a third live or free segments run short; then the
// cleaner empties the segments with the least live first (cleanSegments).

// segment is one append-only extent in the data region, guarded by mu: used
// is the append high-water mark; live counts the 512-aligned bytes of the
// homes and chain records in it (derived at Open) and drives the cleaner;
// size keeps the geometry it was created with, whatever SegmentSize is now.
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

// dropSeg forgets a segment other than the open one; its extent is held by
// the commit that drops it, free from the next.  The caller holds mu.
func (s *Store) dropSeg(seg *segment) {
	i := s.segsUpTo(seg.base) - 1
	s.segs = slices.Delete(s.segs, i, i+1)
	s.held = append(s.held, extent{seg.base, seg.size})
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

// place reserves n bytes, in whole sectors, for a body's write and returns
// their offset: at the open segment's high-water mark, in a fresh segment
// when it would overflow, or in one of their own that alloc takes (none when
// alloc is nil).  They count as live at once; a failed body puts the tables
// back.  The caller holds mu and ckptRun.
func (s *Store) place(n int64, alloc func(int64) (extent, error)) (int64, error) {
	sz := align512(n)
	seg := s.openSeg
	if own := sz > s.segSize/2; own || seg == nil || seg.used+sz > seg.size {
		ext, err := extent{}, ErrNoSpace
		if !own {
			ext, err = s.allocate(s.segSize)
		}
		if own = err != nil; own && alloc != nil { // too large to pack, or no whole segment free
			ext, err = alloc(sz)
		}
		if err != nil {
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
	seg.live += sz
	return off, nil
}

// recomputeSegLive derives each segment's live count from the loaded homes
// and chain records, and reopens the last partly filled segment of the
// current SegmentSize for appends.  Runs during Open, single-threaded.
func (s *Store) recomputeSegLive() {
	for _, seg := range s.segs {
		seg.live = 0
	}
	for _, h := range s.homes {
		s.segContaining(h.off).live += align512(h.size)
	}
	for _, e := range append(slices.Clip(s.chain), s.prevChain...) {
		s.segContaining(e.off).live += e.size
	}
	s.openSeg = nil
	for _, seg := range s.segs {
		if seg.size == s.segSize && seg.used < seg.size {
			s.openSeg = seg // ascending bases: the last one wins
		}
	}
}

// The cleaner's marks (Sprite LFS, SOSP '91, §3.4–3.6): it runs once the
// packed segments fall under 1/cleanLow live, or the body's data leaves fewer
// than cleanReserve whole segments free, and stops at 1/cleanHigh with the
// reserve restored.  The reserve is the room the cleaner copies into, less
// the segment it leaves free: the churn of TestCleanerSteadyStateCost ran
// out of it at 81 % occupancy with 4, and first at 87 % with 6.
const cleanLow, cleanHigh, cleanReserve = 3, 2, 6

// freeSegs counts the whole segments the free list holds; the caller holds mu.
func (s *Store) freeSegs() (n int64) {
	for _, e := range s.free {
		n += e.size / s.segSize
	}
	return n
}

// cleanSegments is the data region's garbage collector, run by the body
// after relocation: it drops dead segments and, when the marks call for it,
// places the live objects of the packed segments least live first after the
// body's other writes — in the open segment or a fresh one, never one of
// their own, and never leaving less than a segment's worth free, which the
// delta and the next commit's deletions need — and returns those writes,
// stopping where it finds no room, with the rows of the homes it moved.  A segment holding a chain record is
// neither dead nor cleaned until the chain is released.  A live object that
// fails its CRC on the way out is condemned and its segment left in place.
func (s *Store) cleanSegments() (writes []pending, moved []homedObject) {
	s.mu.Lock()
	pinned := map[*segment]bool{}
	for _, e := range append(slices.Clip(s.chain), s.prevChain...) {
		pinned[s.segContaining(e.off)] = true
	}
	var dead, victims []*segment
	var live, used int64 // of the packed segments but the open one
	for _, seg := range s.segs {
		switch {
		case seg == s.openSeg || seg.used == 0:
			continue
		case pinned[seg]:
		case seg.live == 0:
			dead = append(dead, seg)
			continue
		case seg.live < seg.used:
			victims = append(victims, seg)
		case seg.size != s.segSize:
			continue // one object's own, all live
		}
		live, used = live+seg.live, used+seg.used
	}
	for _, seg := range dead {
		s.dropSeg(seg)
	}
	// Greedy, the least live first, until the high mark and the reserve
	// hold; then the batch is read in ascending base order, one sweep.
	short, n := (cleanReserve-s.freeSegs())*s.segSize, 0
	if short <= 0 && live*cleanLow >= used {
		victims = nil // between the marks
	}
	slices.SortFunc(victims, func(a, b *segment) int {
		return cmp.Or(cmp.Compare(a.live*b.used, b.live*a.used), cmp.Compare(a.base, b.base))
	})
	for ; n < len(victims) && (short > 0 || live*cleanHigh < used); n++ {
		short -= victims[n].size - victims[n].live
		used -= victims[n].used - victims[n].live
	}
	victims = victims[:n]
	slices.SortFunc(victims, func(a, b *segment) int { return cmp.Compare(a.base, b.base) })
	byVictim := make(map[*segment][]homedObject, n)
	for _, seg := range victims {
		byVictim[seg] = nil
	}
	for i := 0; i < len(s.homes) && n > 0; i++ { // one lookup a home
		seg := s.segContaining(s.homes[i].off)
		if objs, ok := byVictim[seg]; ok {
			byVictim[seg] = append(objs, s.homes[i])
		}
	}
	s.mu.Unlock()
	for _, seg := range victims {
		// One sweep of the arm reads the victim's live objects in offset
		// order, up to any that is damaged; then they are placed in one run.
		objs, bufs := byVictim[seg], [][]byte(nil)
		slices.SortFunc(objs, func(a, b homedObject) int { return cmp.Compare(a.off, b.off) })
		for _, o := range objs {
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
		s.mu.Lock()
		for k, buf := range bufs {
			o, sz, newOff, err := objs[k], align512(int64(len(buf))), int64(0), ErrNoSpace
			if free, open := s.freeSegs(), s.openSeg; free > 1 || free == 1 && open != nil && open.used+sz <= open.size {
				newOff, err = s.place(sz, nil)
			}
			if err != nil {
				// No room that leaves a segment's worth free: what moved
				// stays moved, and the rest waits for a checkpoint with room.
				s.mu.Unlock()
				return writes, moved
			}
			i, _ := s.homeAt(o.id)
			s.homes[i].off = newOff // in place: the ID order holds
			s.vacateExtent(o.off, o.size)
			writes, moved = append(writes, pending{newOff, buf}), append(moved, s.homes[i])
			s.c.bytesCleaned.Add(uint64(o.size))
		}
		s.mu.Unlock()
		if len(bufs) == len(objs) {
			// Every live object moved out; the final vacateExtent freed the
			// segment when its live count reached zero.
			s.c.segsCleaned.Add(1)
		}
	}
	return writes, moved
}
