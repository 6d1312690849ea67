package store

import (
	"errors"

	"histar/internal/btree"
)

// The log-structured data region: checkpoint relocations append sealed
// object contents into fixed-size append-only segments at 512-byte
// granularity, so one checkpoint's home writes are a handful of sequential
// streams instead of one random extent per object.  Objects too large to
// pack (more than half a segment) keep the original dedicated-extent path.
//
// A segment's extent is never overwritten in place: appends only ever land
// beyond the committed high-water mark (used), and space behind dead
// objects is reclaimed by freeing the whole segment once it is empty, or by
// the cleaner (cleanSegments) once at least half its written bytes are
// dead.  Both routes go through the deferred-free list, so a snapshot that
// is still referenced on disk never has a segment written over — the same
// copy-on-write discipline dedicated extents always had.

// segment is one append-only extent in the data region.  used is the append
// high-water mark (512-aligned); live counts the 512-aligned bytes of
// objects the object map still references and drives the cleaner; size is
// the extent length recorded when the segment was created, so images opened
// under a different SegmentSize option keep their old segments' geometry.
// live is derived (recomputed from the object map at open); base, size, and
// used are persisted in the metadata snapshot's segment section.  All
// fields are guarded by allocMu.
type segment struct {
	base int64
	size int64
	used int64
	live int64
}

// align512 is the packing granularity inside segments.
func align512(n int64) int64 { return (n + 511) &^ 511 }

// segContainingLocked returns the segment whose extent contains off, or
// nil; the caller holds allocMu.
func (s *Store) segContainingLocked(off int64) *segment {
	k, _, ok := s.segBases.Floor(btree.K1(uint64(off)))
	if !ok {
		return nil
	}
	seg := s.segs[int64(k[0])]
	if seg == nil || off >= seg.base+seg.size {
		return nil
	}
	return seg
}

// dropSegLocked forgets a segment; the caller holds allocMu and has already
// queued (or is about to queue) its extent for release.
func (s *Store) dropSegLocked(base int64) {
	delete(s.segs, base)
	s.segBases.Delete(btree.K1(uint64(base)))
	if s.openSegBase == base {
		s.openSegBase = 0
	}
}

// vacateExtent releases one reference to the home extent behind (off,
// size).  A shared extent (aliases, counted in extRefs) just loses a
// reference — no byte is reclaimable while any referent remains, which is
// what keeps the cleaner and the deferred-free path off data an alias still
// reads.  The sole (or last) referent's release does the real work: space
// inside a segment decrements the segment's live count — the extent itself
// is reclaimed when the segment empties (here) or by the cleaner — while a
// dedicated extent joins the deferred-free list directly.  Called only by
// the checkpoint body (ckptRun serializes); takes allocMu, so it may be
// called with metaMu held (lock order metaMu → allocMu).
func (s *Store) vacateExtent(off, size int64) {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	if n, ok := s.extRefs[off]; ok {
		if n <= 2 {
			delete(s.extRefs, off) // back to a single owner
		} else {
			s.extRefs[off] = n - 1
		}
		return
	}
	if seg := s.segContainingLocked(off); seg != nil {
		seg.live -= align512(size)
		if seg.live <= 0 {
			seg.live = 0
			if seg.base != s.openSegBase {
				s.deferredFree = append(s.deferredFree, extent{off: seg.base, size: seg.size})
				s.dropSegLocked(seg.base)
				s.c.segsFreed.Add(1)
			}
		}
		return
	}
	s.deferredFree = append(s.deferredFree, extent{off: off, size: alignUp(size)})
}

// segAppend appends one object's contents to the open segment (rotating to
// a freshly allocated one when it would overflow) and returns the object's
// new home offset.  The device write is issued with no lock held; segment
// bookkeeping is under allocMu.  Only the checkpoint body calls it (ckptRun
// serializes), so the open segment cannot rotate underneath the write.
func (s *Store) segAppend(data []byte) (int64, error) {
	sz := align512(int64(len(data)))
	s.allocMu.Lock()
	seg := s.segs[s.openSegBase]
	if s.openSegBase == 0 || seg == nil || seg.used+sz > seg.size {
		s.allocMu.Unlock()
		ext, err := s.allocate(s.segSize)
		if err != nil {
			return 0, err
		}
		s.allocMu.Lock()
		seg = &segment{base: ext.off, size: ext.size}
		s.segs[ext.off] = seg
		s.segBases.Put(btree.K1(uint64(ext.off)), 0)
		s.openSegBase = ext.off
		s.c.segsAllocated.Add(1)
	}
	off := seg.base + seg.used
	seg.used += sz
	seg.live += sz
	s.allocMu.Unlock()
	if len(data) > 0 {
		if _, err := s.d.WriteAt(data, off); err != nil {
			return 0, err
		}
	}
	return off, nil
}

// recomputeSegLive derives the loaded image's reference state: the extent
// refcounts (extRefs — how many object-map entries name each extent; not
// persisted) and each segment's live count, with every unique extent
// counted exactly once no matter how many referents share it.  It
// also reopens the most recently allocated partially filled segment —
// provided its geometry matches the current SegmentSize — so appends
// continue where the committed snapshot left off.  Appending beyond a
// committed used mark is crash-safe: no referenced snapshot addresses those
// bytes.  Runs during Open, single-threaded, and is idempotent: Open calls
// it again after WAL replay, which may have added aliases.
func (s *Store) recomputeSegLive() {
	type ref struct {
		n    int64
		size int64
	}
	refs := make(map[int64]ref, s.objMap.Len())
	s.scanHomes(func(_ uint64, h home) bool {
		refs[h.off] = ref{n: refs[h.off].n + 1, size: h.size}
		return true
	})
	s.extRefs = make(map[int64]int64)
	for off, r := range refs {
		if r.n >= 2 {
			s.extRefs[off] = r.n
		}
	}
	if len(s.segs) == 0 {
		return
	}
	for _, seg := range s.segs {
		seg.live = 0
	}
	for off, r := range refs {
		if seg := s.segContainingLocked(off); seg != nil {
			seg.live += align512(r.size)
		}
	}
	s.openSegBase = 0
	for base, seg := range s.segs {
		if seg.size == s.segSize && seg.used < seg.size && base > s.openSegBase {
			s.openSegBase = base
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
//
// A segment holding a shared extent (one in extRefs) is left where it is,
// however dead the rest of it: objects move one at a time, so copying a
// shared extent out would write its bytes once per referent and end the
// sharing.  The rule is exact: an alias is installed only while no body is
// open (see Alias), so during this pass extRefs can only shrink.  A shared
// extent counts toward live, so such a segment never looks empty either;
// when the sharing ends it is an ordinary segment again.
func (s *Store) cleanSegments() error {
	s.allocMu.Lock()
	shared := make(map[int64]bool)
	for off := range s.extRefs {
		if seg := s.segContainingLocked(off); seg != nil {
			shared[seg.base] = true
		}
	}
	var victims []*segment
	for base, seg := range s.segs {
		if base == s.openSegBase || seg.used == 0 || shared[base] {
			continue
		}
		if seg.live == 0 {
			s.deferredFree = append(s.deferredFree, extent{off: seg.base, size: seg.size})
			s.dropSegLocked(base)
			s.c.segsFreed.Add(1)
			continue
		}
		if seg.live*2 < seg.used {
			victims = append(victims, seg)
		}
	}
	s.allocMu.Unlock()
	if len(victims) == 0 {
		return nil
	}
	sortSegs(victims)
	// One home-table scan collects every victim's live objects (ascending
	// id, the deterministic order the segment writer needs).
	byVictim := make(map[int64][]homedObject, len(victims))
	s.metaMu.RLock()
	s.scanHomes(func(id uint64, h home) bool {
		for _, seg := range victims {
			if h.off >= seg.base && h.off < seg.base+seg.size {
				byVictim[seg.base] = append(byVictim[seg.base], homedObject{id, h})
				break
			}
		}
		return true
	})
	s.metaMu.RUnlock()
	for _, seg := range victims {
		damaged := false
		for _, o := range byVictim[seg.base] {
			buf, err := s.readVerified(o.home)
			if err != nil {
				if errors.Is(err, ErrCorrupt) {
					s.condemn(o.off)
				}
				damaged = true
				break
			}
			newOff, err := s.segAppend(buf)
			if err != nil {
				return err
			}
			s.metaMu.Lock()
			if cur, ok := s.homeOf(o.id); ok && cur.off == o.off {
				s.setHome(o.id, home{off: newOff, size: o.size, crc: o.crc})
				s.vacateExtent(o.off, o.size)
			}
			s.metaMu.Unlock()
			s.c.bytesCleaned.Add(uint64(o.size))
		}
		if !damaged {
			// Every live object moved out; the final vacateExtent freed the
			// segment when its live count reached zero.
			s.c.segsCleaned.Add(1)
		}
	}
	return nil
}

// sortSegs orders segments by base offset for deterministic cleaning.
func sortSegs(segs []*segment) {
	for i := 1; i < len(segs); i++ {
		for j := i; j > 0 && segs[j-1].base > segs[j].base; j-- {
			segs[j-1], segs[j] = segs[j], segs[j-1]
		}
	}
}
