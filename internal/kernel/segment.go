package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"histar/internal/label"
)

// segmentSlack is the extra quota granted to a fresh segment beyond its
// initial size, so small writes do not immediately require quota_move.
const segmentSlack = 16 * 1024

// zeros backs every fresh segment of up to 16 KiB, the most a process
// starts with, as a frozen share: nothing ever writes it (reshape).
var zeros [16 * 1024]byte

// freshData returns n zero bytes for a new segment, and whether they are a
// share of zeros, which the segment must hold frozen.
func freshData(n int) ([]byte, bool) {
	if 0 < n && n <= len(zeros) {
		return zeros[:n:n], true
	}
	return make([]byte, n), false
}

// SegmentCreate creates a segment of initial size nbytes in container d.
// The invoking thread must be able to write d and allocate at label l.
func (tc *ThreadCall) SegmentCreate(d ID, l label.Label, descrip string, nbytes int) (ID, error) {
	ctx, err := tc.enter(scSegmentCreate)
	if err != nil {
		return NilID, err
	}
	if nbytes < 0 || !label.ValidObjectLabel(l) {
		return NilID, ErrInvalid
	}
	cont, err := tc.k.admit(&ctx, d, Mask(ObjSegment))
	if err != nil {
		return NilID, err
	}
	if !label.CanAllocate(ctx.lbl, ctx.clearance, l) {
		return NilID, ErrLabel
	}
	s := &segment{header: tc.k.newHeader(ObjSegment, l, uint64(nbytes)+segmentSlack, descrip)}
	s.data, s.frozen = freshData(nbytes)
	return tc.k.create(cont, s)
}

// SegmentCopy creates a copy of the segment named by src in container d with
// a (possibly different) label l.  Copies are how HiStar avoids re-labeling:
// object labels are immutable after creation, but some objects allow
// efficient copies to be made with different labels (Section 3).  The
// invoking thread must be able to observe the source, write d, and allocate
// at l.  The copy moves no bytes: the source is paged in and its array
// shared, frozen, by both segments until either one's first write breaks
// the share (reshape) — the one way two segments share bytes.
func (tc *ThreadCall) SegmentCopy(src CEnt, d ID, l label.Label, descrip string) (ID, error) {
	ctx, err := tc.enter(scSegmentCopy)
	if err != nil {
		return NilID, err
	}
	if !label.ValidObjectLabel(l) {
		return NilID, ErrInvalid
	}
	k := tc.k
	srcCont, seg, err := resolve[*segment](k, &ctx, src, accObserve)
	if err != nil {
		return NilID, err
	}
	cont, err := k.admit(&ctx, d, Mask(ObjSegment))
	if err != nil {
		return NilID, err
	}
	if !label.CanAllocate(ctx.lbl, ctx.clearance, l) {
		return NilID, ErrLabel
	}
	ls := lockOrdered(objLock{srcCont, false}, objLock{seg, true}, objLock{cont, true})
	defer ls.unlock()
	if err := verifyEntryLive(srcCont, seg); err != nil {
		return NilID, err
	}
	if err := seg.fault(k); err != nil {
		return NilID, err
	}
	n := len(seg.data)
	ns := &segment{header: k.newHeader(ObjSegment, l, uint64(n)+segmentSlack, descrip)}
	if n > 0 {
		ns.data, ns.frozen = seg.data, true
	}
	if err := k.publish(cont, ns); err != nil {
		return NilID, err
	}
	if n > 0 {
		seg.frozen, seg.handed = true, false
		if !zeroShare(seg.data) {
			k.snap.clones.Add(1)
			k.snap.sharedBytes.Add(uint64(n))
		}
	}
	return ns.id, nil
}

// zeroShare reports whether b is a share of zeros, which counts in no ledger.
func zeroShare(b []byte) bool { return cap(b) > 0 && &b[:1][0] == &zeros[0] }

// snapCounters is the copy-on-write ledger.
type snapCounters struct {
	clones      atomic.Uint64
	sharedBytes atomic.Uint64
	copiedBytes atomic.Uint64
	cowBreaks   atomic.Uint64
}

// SnapshotStats is the kernel-wide copy-on-write ledger.
type SnapshotStats struct {
	// Clones counts the segment copies that shared their source's bytes;
	// SharedBytes is what they shared.
	Clones      uint64
	SharedBytes uint64
	// CopiedBytes is the data first writes duplicated out of a share;
	// CowBreaks counts those events.  A share of zeros (freshData) counts
	// in neither half.
	CopiedBytes uint64
	CowBreaks   uint64
}

// SnapshotStats returns the copy-on-write ledger.
func (k *Kernel) SnapshotStats() SnapshotStats {
	return SnapshotStats{
		Clones:      k.snap.clones.Load(),
		SharedBytes: k.snap.sharedBytes.Load(),
		CopiedBytes: k.snap.copiedBytes.Load(),
		CowBreaks:   k.snap.cowBreaks.Load(),
	}
}

// ---------------------------------------------------------------------------
// Segment bytes.  Everything below runs with the segment's lock held (write
// mode for anything that mutates) and is the only code that indexes or
// replaces segment.data: the direct syscalls, compare-and-swap, the futex
// word read, loads and stores through a mapping, and the thread-local
// segment calls all come through here, so a bounds, quota, immutability,
// copy-on-write or page-in rule cannot be missing from one of them.  (Evict, in pager.go, is the rest.)  A fresh segment gets bytes of
// its own at its first write, from the copy-on-write break.
// ---------------------------------------------------------------------------

// fault pages an evicted segment back in, whole (Section 7.1); the caller
// holds its lock in either mode.  Bytes the store cannot produce, or produces
// at another length, are ErrCorrupt, and the segment stays paged out.
func (s *segment) fault(k *Kernel) error {
	if !s.paged.Load() {
		return nil
	}
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if !s.paged.Load() {
		return nil
	}
	data, err := k.pager.PageIn(uint64(s.id))
	if err == nil && len(data) != s.plen {
		err = fmt.Errorf("%d bytes, want %d", len(data), s.plen)
	}
	if err != nil {
		return fmt.Errorf("%w: paging in object %d: %w", ErrCorrupt, s.id, err)
	}
	s.data = data
	s.paged.Store(false)
	return nil
}

// clamp pages the segment in and bounds the n bytes at off to it: off must
// lie inside it (or at its end) and the range is cut at the end, without ever
// computing off+n, which could overflow int.
func (s *segment) clamp(k *Kernel, off, n int) (end int, err error) {
	if err := s.fault(k); err != nil {
		return 0, err
	}
	if off < 0 || n < 0 || off > len(s.data) {
		return 0, ErrInvalid
	}
	end = len(s.data)
	if n < end-off {
		end = off + n
	}
	return end, nil
}

// read copies out up to n bytes at off.
func (s *segment) read(k *Kernel, off, n int) ([]byte, error) {
	end, err := s.clamp(k, off, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, end-off)
	copy(out, s.data[off:end])
	return out, nil
}

// word loads the 8-byte little-endian word at off (futex and compare-and-swap
// addresses), which must lie wholly inside the segment.
func (s *segment) word(k *Kernel, off uint64) (uint64, error) {
	if off > math.MaxInt {
		return 0, ErrInvalid
	}
	if end, err := s.clamp(k, int(off), 8); err != nil || end-int(off) != 8 {
		return 0, ErrInvalid
	}
	return binary.LittleEndian.Uint64(s.data[off:]), nil
}

// reshape is the gate every mutation passes: it refuses an immutable segment
// and a length the quota does not cover, makes the array private if it is
// shared with a copy and bytes [lo, hi) below the current length are about
// to change, leaves the segment n bytes long, and accounts the
// change — and marks a persistent segment dirty, widening its changed range
// by [lo, hi), or to the whole segment when the length changes, so no path to
// a segment's bytes can change them behind the pager's back.  This is the
// only place shared bytes are duplicated, so the kernel-wide COW counters
// live here (a break of a share of zeros, or of an array only the pager
// holds, is not one).  A frozen array grows into a fresh one (breaking COW
// with that one copy), a private one by appending zeros, amortized, over
// whatever a truncation left in its capacity; truncation keeps sharing a
// frozen array, since shrinking changes no byte.
func (s *segment) reshape(k *Kernel, n, lo, hi int) error {
	if s.immutable {
		return ErrImmutable
	}
	if n < 0 {
		return ErrInvalid
	}
	if err := s.fault(k); err != nil {
		return err
	}
	grow := n > len(s.data)
	if grow && uint64(n)+128 > s.quota {
		return ErrQuota
	}
	if k.setDirty(s, s.persistent); s.dirty && n != len(s.data) {
		s.lo, s.hi = 0, math.MaxInt
	} else if s.dirty && lo < hi {
		if s.lo >= s.hi {
			s.lo, s.hi = lo, hi
		}
		s.lo, s.hi = min(s.lo, lo), max(s.hi, hi)
	}
	if s.frozen && (grow || lo < hi) {
		s.frozen = false
		if !s.handed && !zeroShare(s.data) {
			k.snap.cowBreaks.Add(1)
			k.snap.copiedBytes.Add(uint64(len(s.data)))
		}
		data := make([]byte, max(n, len(s.data)))
		copy(data, s.data)
		s.data = data
	}
	if n > len(s.data) {
		s.data = append(s.data, make([]byte, n-len(s.data))...)
	}
	s.data = s.data[:n]
	s.usage = s.footprint()
	return nil
}

// persist marks the segment persistent and every byte of it changed.
func (s *segment) persist() { s.persistent, s.lo, s.hi = true, 0, math.MaxInt }

// write stores data at off, extending the segment if necessary.
func (s *segment) write(k *Kernel, off int, data []byte) error {
	end := off + len(data)
	switch {
	case s.immutable:
		return ErrImmutable // ahead of the argument errors, as resize orders them
	case off < 0:
		return ErrInvalid
	case end < off: // int overflow; no quota could ever cover it
		return ErrQuota
	}
	if err := s.fault(k); err != nil {
		return err
	}
	if err := s.reshape(k, max(end, len(s.data)), off, end); err != nil {
		return err
	}
	copy(s.data[off:], data)
	return nil
}

// compareSwap replaces the word at off with next if it equals old.  A failed
// comparison writes nothing, so it does not break copy-on-write either.
func (s *segment) compareSwap(k *Kernel, off, old, next uint64) (bool, error) {
	if s.immutable {
		return false, ErrImmutable
	}
	cur, err := s.word(k, off)
	if err != nil || cur != old {
		return false, err
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], next)
	return true, s.write(k, int(off), b[:])
}

// ---------------------------------------------------------------------------
// The single-segment calls.  Each one opens its segment through openSegment
// under the label rule its access needs — observe for the two reads, modify
// for the rest — and runs its body from the section above under that lock.
// ---------------------------------------------------------------------------

// openSegment enters call sc and opens the segment ce names under acc,
// locked for writing when acc is accModify.
func (tc *ThreadCall) openSegment(sc syscallID, ce CEnt, acc access) (*segment, lockSet, error) {
	ctx, err := tc.enter(sc)
	if err != nil {
		return nil, lockSet{}, err
	}
	return open[*segment](tc.k, &ctx, ce, acc, acc == accModify)
}

// SegmentRead reads n bytes at offset off from the segment named by ce.
func (tc *ThreadCall) SegmentRead(ce CEnt, off, n int) ([]byte, error) {
	seg, ls, err := tc.openSegment(scSegmentRead, ce, accObserve)
	if err != nil {
		return nil, err
	}
	defer ls.unlock()
	return seg.read(tc.k, off, n)
}

// SegmentWrite writes data at offset off in the segment named by ce,
// extending the segment if necessary (subject to its quota).
func (tc *ThreadCall) SegmentWrite(ce CEnt, off int, data []byte) error {
	seg, ls, err := tc.openSegment(scSegmentWrite, ce, accModify)
	if err != nil {
		return err
	}
	defer ls.unlock()
	return seg.write(tc.k, off, data)
}

// SegmentResize sets the segment's length to n bytes.  A file's length is
// defined to be its segment's length (Section 5.1).
func (tc *ThreadCall) SegmentResize(ce CEnt, n int) error {
	seg, ls, err := tc.openSegment(scSegmentResize, ce, accModify)
	if err != nil {
		return err
	}
	defer ls.unlock()
	return seg.reshape(tc.k, n, 0, 0)
}

// SegmentLen returns the length of the segment named by ce.
func (tc *ThreadCall) SegmentLen(ce CEnt) (int, error) {
	seg, ls, err := tc.openSegment(scSegmentLen, ce, accObserve)
	if err != nil {
		return 0, err
	}
	defer ls.unlock()
	if err := seg.fault(tc.k); err != nil {
		return 0, err
	}
	return len(seg.data), nil
}

// SegmentCompareSwap atomically replaces the 8-byte word at offset off with
// next if it currently equals old, reporting whether the swap happened.  It
// models a user-level compare-exchange instruction executed on a mapped
// segment, so it requires the same permissions as a write; the user-level
// library builds its directory and pipe mutexes on it together with the
// futex.
func (tc *ThreadCall) SegmentCompareSwap(ce CEnt, off uint64, old, next uint64) (bool, error) {
	seg, ls, err := tc.openSegment(scSegmentCAS, ce, accModify)
	if err != nil {
		return false, err
	}
	defer ls.unlock()
	return seg.compareSwap(tc.k, off, old, next)
}
