package kernel

import (
	"cmp"
	"slices"

	"histar/internal/label"
)

// Pager is the kernel's one seam to the single-level store (Sections 3 and
// 4: the store is the kernel's own, and a sync is a system call).  Only the
// kernel calls it: behind resolve's label rule where a thread asked
// (SegmentPersist, SyncSegments, an access's page-in, a copy's), on
// objects of its own choosing otherwise (Delete at deallocation, Sync's
// drain).  One function, push, hands bytes to it, and the range of them that
// changed; one, fault, takes them back.  unixlib hands it a *store.Store;
// tests substitute a fake.  The lock rule is number 6 of the package
// comment; the store never calls back.
type Pager interface {
	// PutLabeled replaces the object's contents and label in the store's
	// memory; every byte outside [lo, hi) is what the object's last push
	// held there.  When [lo, hi) covers data, or data is at most PageSize
	// bytes, the push hands data over: the kernel has frozen it, the pager
	// may keep it, and nobody writes it again.  Otherwise data stays the
	// kernel's, and the pager copies what it keeps before returning.
	// SyncObjects makes the pushed states of a group durable (one error
	// slot per id), Checkpoint every pushed state and deletion.
	PutLabeled(id uint64, lbl label.Label, data []byte, lo, hi int) error
	SyncObjects(ids []uint64) []error
	Checkpoint() error
	// PageIn returns a private copy of what the object's last push held.
	PageIn(id uint64) ([]byte, error)
	Delete(id uint64) error
}

// SetPager attaches the store; call once, before the kernel is shared.
// Without one SegmentPersist, SyncSegments and Sync fail with ErrInvalid.
func (k *Kernel) SetPager(p Pager) { k.pager = p }

// SegmentPersist marks the segment named by ce, which the invoking thread
// must be able to modify, persistent: its bytes are a store object from now
// on — pushed by SyncSegments and Sync, paged in after Evict, deleted when the
// segment dies.  It starts out wholly dirty; the mark itself moves no byte,
// and marking a persistent segment again changes nothing (an evicted one has
// no bytes to mark).
func (tc *ThreadCall) SegmentPersist(ce CEnt) error {
	ctx, err := tc.enter(scSegmentPersist)
	if err != nil {
		return err
	}
	if tc.k.pager == nil {
		return ErrInvalid
	}
	seg, ls, err := open[*segment](tc.k, &ctx, ce, accModify, true)
	if err != nil {
		return err
	}
	if !seg.persistent {
		seg.persist()
		tc.k.setDirty(seg, true)
	}
	ls.unlock()
	return nil
}

// setDirty sets a segment's dirty bit, and keeps the dirty list, stamped in
// order, to the segments that have it on; the caller holds its write lock.
func (k *Kernel) setDirty(s *segment, on bool) {
	if s.dirty != on {
		s.dirty = on
		k.dirtyMu.Lock()
		if on {
			k.dirtyStamp++
			k.dirty[s] = k.dirtyStamp
		} else {
			delete(k.dirty, s)
		}
		k.dirtyMu.Unlock()
	}
}

// push hands a dirty segment's bytes, changed range and label to the pager;
// the caller holds the segment's write lock, so no store slips between the
// push and the bit.  A push that hands the array over freezes it first; a
// larger segment pushed by range keeps its array, which its next write would
// otherwise copy whole.  Only a persistent segment is dirty.
func (k *Kernel) push(s *segment) error {
	if !s.dirty {
		return nil
	}
	n := len(s.data)
	lo, hi := min(s.lo, n), min(s.hi, n)
	if (lo <= 0 && hi >= n || n <= PageSize) && !s.frozen {
		s.frozen, s.handed = true, true
	}
	if err := k.pager.PutLabeled(uint64(s.id), s.lbl, s.data, lo, hi); err != nil {
		return err
	}
	k.setDirty(s, false)
	s.lo, s.hi = 0, 0
	return nil
}

// SyncSegments is fsync (Sections 4 and 7.1): one kernel entry that makes
// the segments named by ces durable as one group.  Each is opened like any
// call's target — the thread must be able to modify it — and its dirty bytes
// pushed to the pager; one that fails to open is never pushed, so a thread
// can neither have an object it cannot name or modify synced nor learn from
// the pager's answer what state it is in.  The segments that pushed are
// committed, with no kernel lock held, as one SyncObjects group, which the
// store turns into dense write-ahead-log batches: one flush per batch instead
// of one per segment.  It returns the first error in argument order.
func (tc *ThreadCall) SyncSegments(ces ...CEnt) error {
	ctx, err := tc.enter(scSyncSegments)
	if err != nil {
		return err
	}
	k := tc.k
	if k.pager == nil {
		return ErrInvalid
	}
	errs := make([]error, len(ces))
	var ids []uint64
	var at []int // the argument position of each id
	for i, ce := range ces {
		seg, ls, err := open[*segment](k, &ctx, ce, accModify, true)
		if err == nil {
			err = k.push(seg)
			ls.unlock()
		}
		if errs[i] = err; err == nil {
			ids, at = append(ids, uint64(ce.Object)), append(at, i)
		}
	}
	if len(ids) > 0 {
		for j, err := range k.pager.SyncObjects(ids) {
			errs[at[j]] = err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Sync makes the whole system durable (the paper's group sync, and what
// fsync of a directory means): every segment on the dirty list is pushed,
// one at a time under its own lock and in the order they were dirtied (the
// store homes them so), and the pager checkpoints.  The kernel chooses the
// objects, so no label is consulted; a segment dirtied after the list is
// read waits for the next sync, and one that dies leaves the list.
func (tc *ThreadCall) Sync() error {
	if _, err := tc.enter(scSync); err != nil {
		return err
	}
	k := tc.k
	if k.pager == nil {
		return ErrInvalid
	}
	k.dirtyMu.Lock()
	dirty := make([]*segment, 0, len(k.dirty))
	for s := range k.dirty {
		dirty = append(dirty, s)
	}
	slices.SortFunc(dirty, func(a, b *segment) int { return cmp.Compare(k.dirty[a], k.dirty[b]) })
	k.dirtyMu.Unlock()
	for _, s := range dirty {
		s.mu.Lock()
		err := k.push(s)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return k.pager.Checkpoint()
}

// Evict drops the bytes, not the length, of every clean persistent segment:
// the store holds them, and the segment's next access pages them back in,
// private (fault).  Kernel memory is a cache of the store (Section 4).
func (k *Kernel) Evict() {
	var segs []*segment
	k.each(func(o object) {
		if s, ok := o.(*segment); ok {
			segs = append(segs, s)
		}
	})
	for _, s := range segs {
		s.mu.Lock()
		if s.persistent && !s.dirty && !s.paged.Load() {
			s.plen, s.data, s.frozen = len(s.data), nil, false
			s.paged.Store(true)
		}
		s.mu.Unlock()
	}
}
