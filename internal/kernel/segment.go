package kernel

import (
	"encoding/binary"
	"fmt"
	"math"

	"histar/internal/label"
)

// segmentSlack is the extra quota granted to a fresh segment beyond its
// initial size, so small writes do not immediately require quota_move.
const segmentSlack = 16 * 1024

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
	return tc.k.create(cont, &segment{
		header: tc.k.newHeader(ObjSegment, l, uint64(nbytes)+segmentSlack, descrip),
		data:   make([]byte, nbytes),
	})
}

// SegmentCopy creates a copy of the segment named by src in container d with
// a (possibly different) label l.  Copies are how HiStar avoids re-labeling:
// object labels are immutable after creation, but some objects allow
// efficient copies to be made with different labels (Section 3).  The
// invoking thread must be able to observe the source, write d, and allocate
// at l.
func (tc *ThreadCall) SegmentCopy(src CEnt, d ID, l label.Label, descrip string) (ID, error) {
	ctx, err := tc.enter(scSegmentCopy)
	if err != nil {
		return NilID, err
	}
	if !label.ValidObjectLabel(l) {
		return NilID, ErrInvalid
	}
	srcCont, seg, err := resolve[*segment](tc.k, &ctx, src, accObserve)
	if err != nil {
		return NilID, err
	}
	cont, err := tc.k.admit(&ctx, d, Mask(ObjSegment))
	if err != nil {
		return NilID, err
	}
	if !label.CanAllocate(ctx.lbl, ctx.clearance, l) {
		return NilID, ErrLabel
	}
	ls := lockOrdered(objLock{srcCont, false}, objLock{seg, false}, objLock{cont, true})
	defer ls.unlock()
	if err := verifyEntryLive(srcCont, seg); err != nil {
		return NilID, err
	}
	data, err := seg.read(tc.k, 0, math.MaxInt)
	if err != nil {
		return NilID, err
	}
	ns := &segment{
		header: tc.k.newHeader(ObjSegment, l, uint64(len(data))+segmentSlack, descrip),
		data:   data,
	}
	if err := tc.k.publish(cont, ns); err != nil {
		return NilID, err
	}
	return ns.id, nil
}

// ---------------------------------------------------------------------------
// Segment bytes.  Everything below runs with the segment's lock held (write
// mode for anything that mutates) and is the only code that indexes or
// replaces segment.data: the direct syscalls, ring entries, compare-and-swap,
// the futex word read, loads and stores through a mapping, and the
// thread-local segment calls all come through here, so a bounds, quota,
// immutability or copy-on-write rule cannot be missing from one of them.
// ---------------------------------------------------------------------------

// clamp bounds the n bytes at off to the segment: off must lie inside it (or
// at its end) and the range is cut at the end, without ever computing off+n,
// which could overflow int.
func (s *segment) clamp(off, n int) (end int, err error) {
	if off < 0 || n < 0 || off > len(s.data) {
		return 0, ErrInvalid
	}
	end = len(s.data)
	if n < end-off {
		end = off + n
	}
	return end, nil
}

// read copies out up to n bytes at off.  A clean persistent segment is paged
// in first, whole (Section 7.1); a dirty one's only copy is the kernel's.
func (s *segment) read(k *Kernel, off, n int) ([]byte, error) {
	end, err := s.clamp(off, n)
	if err != nil {
		return nil, err
	}
	if s.persistent && !s.dirty {
		if err := k.pager.PageIn(uint64(s.id)); err != nil {
			return nil, fmt.Errorf("%w: paging in object %d: %v", ErrCorrupt, s.id, err)
		}
	}
	out := make([]byte, end-off)
	copy(out, s.data[off:end])
	return out, nil
}

// word loads the 8-byte little-endian word at off (futex and compare-and-swap
// addresses), which must lie wholly inside the segment.
func (s *segment) word(off uint64) (uint64, error) {
	if off > math.MaxInt {
		return 0, ErrInvalid
	}
	if end, err := s.clamp(int(off), 8); err != nil || end-int(off) != 8 {
		return 0, ErrInvalid
	}
	return binary.LittleEndian.Uint64(s.data[off:]), nil
}

// reshape is the gate every mutation passes: it refuses an immutable segment
// and a length the quota does not cover, makes the array private if it is
// shared with a snapshot or clone and touch says bytes below the current
// length are about to change, leaves the segment n bytes long, and accounts
// the change — and marks a persistent segment dirty, so no path to a
// segment's bytes can change them behind the pager's back.  This is the only
// place snapshot-shared bytes are duplicated, so the kernel-wide COW counters
// live here.  Growth always moves to a fresh zeroed array (and so breaks COW
// with that one copy); truncation keeps sharing a frozen array, since
// shrinking changes no byte.
func (s *segment) reshape(k *Kernel, n int, touch bool) error {
	if s.immutable {
		return ErrImmutable
	}
	if n < 0 {
		return ErrInvalid
	}
	fresh := n > len(s.data)
	if fresh && uint64(n)+128 > s.quota {
		return ErrQuota
	}
	s.dirty = s.persistent
	if s.frozen && (fresh || touch) {
		s.frozen = false
		k.snap.cowBreaks.Add(1)
		k.snap.copiedBytes.Add(uint64(len(s.data)))
		fresh = true
	}
	if fresh {
		data := make([]byte, max(n, len(s.data)))
		copy(data, s.data)
		s.data = data
	}
	s.data = s.data[:n]
	s.usage = s.footprint()
	s.bump()
	return nil
}

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
	if err := s.reshape(k, max(end, len(s.data)), true); err != nil {
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
	cur, err := s.word(off)
	if err != nil || cur != old {
		return false, err
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], next)
	return true, s.write(k, int(off), b[:])
}

// ---------------------------------------------------------------------------
// The coalescable calls: segment read, write, resize and length, and object
// stat.  Each is one RingEntry whether it arrives alone (the methods below)
// or in a ring batch (Ring.execRun): both open the entry and hand it to
// execOp, the only statement of these calls' label rules and bodies.
// ---------------------------------------------------------------------------

// opWrites reports whether the op mutates its target (and so needs the
// object's write lock).
func opWrites(op RingOp) bool {
	return op == OpSegmentWrite || op == OpSegmentResize
}

// execOp executes one coalescable entry against its opened target (locked in
// the mode opWrites asks for, link and liveness verified), filling c.  The
// label rule is applied here, per entry, against the segment's immutable
// label: observe for the two reads, modify for the two writes; stat checks
// only what objectStatLocked does.
func (k *Kernel) execOp(ctx *tctx, obj object, e *RingEntry, c *RingCompletion) (err error) {
	if e.Op == OpObjectStat {
		return k.objectStatLocked(ctx, obj, &c.Stat)
	}
	seg, ok := obj.(*segment)
	if !ok {
		return ErrWrongType
	}
	if opWrites(e.Op) && !k.leq(ctx.lbl, seg.lbl) || !k.canObserveT(ctx.t, ctx.lbl, seg.lbl) {
		return ErrLabel
	}
	switch e.Op {
	case OpSegmentRead:
		c.Val, err = seg.read(k, e.Off, e.Len)
		c.N = len(c.Val)
	case OpSegmentLen:
		c.N = len(seg.data)
	case OpSegmentWrite:
		if err = seg.write(k, e.Off, e.Data); err == nil {
			c.N = len(e.Data)
		}
	case OpSegmentResize:
		err = seg.reshape(k, e.Len, false)
	default:
		err = ErrInvalid
	}
	return err
}

// call executes one coalescable entry as a direct system call.  Entry and
// completion are the caller's locals, passed by pointer so that a call moves
// neither.
func (tc *ThreadCall) call(e *RingEntry, c *RingCompletion) error {
	ctx, err := tc.enter(scFor(e.Op))
	if err != nil {
		return err
	}
	obj, ls, err := open[object](tc.k, &ctx, e.Seg, accNone, opWrites(e.Op))
	if err != nil {
		return err
	}
	defer ls.unlock()
	return tc.k.execOp(&ctx, obj, e, c)
}

// SegmentRead reads n bytes at offset off from the segment named by ce.
func (tc *ThreadCall) SegmentRead(ce CEnt, off, n int) ([]byte, error) {
	e, c := RingEntry{Op: OpSegmentRead, Seg: ce, Off: off, Len: n}, RingCompletion{}
	err := tc.call(&e, &c)
	return c.Val, err
}

// SegmentWrite writes data at offset off in the segment named by ce,
// extending the segment if necessary (subject to its quota).
func (tc *ThreadCall) SegmentWrite(ce CEnt, off int, data []byte) error {
	e, c := RingEntry{Op: OpSegmentWrite, Seg: ce, Off: off, Data: data}, RingCompletion{}
	return tc.call(&e, &c)
}

// SegmentResize sets the segment's length to n bytes.  A file's length is
// defined to be its segment's length (Section 5.1).
func (tc *ThreadCall) SegmentResize(ce CEnt, n int) error {
	e, c := RingEntry{Op: OpSegmentResize, Seg: ce, Len: n}, RingCompletion{}
	return tc.call(&e, &c)
}

// SegmentLen returns the length of the segment named by ce.
func (tc *ThreadCall) SegmentLen(ce CEnt) (int, error) {
	e, c := RingEntry{Op: OpSegmentLen, Seg: ce}, RingCompletion{}
	err := tc.call(&e, &c)
	return c.N, err
}

// SegmentCompareSwap atomically replaces the 8-byte word at offset off with
// next if it currently equals old, reporting whether the swap happened.  It
// models a user-level compare-exchange instruction executed on a mapped
// segment, so it requires the same permissions as a write; the user-level
// library builds its directory and pipe mutexes on it together with the
// futex.
func (tc *ThreadCall) SegmentCompareSwap(ce CEnt, off uint64, old, next uint64) (bool, error) {
	ctx, err := tc.enter(scSegmentCAS)
	if err != nil {
		return false, err
	}
	seg, ls, err := open[*segment](tc.k, &ctx, ce, accModify, true)
	if err != nil {
		return false, err
	}
	defer ls.unlock()
	return seg.compareSwap(tc.k, off, old, next)
}
