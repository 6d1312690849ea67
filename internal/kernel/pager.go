package kernel

import "histar/internal/label"

// Pager is the kernel's one seam to the single-level store (Sections 3 and
// 4: the store is the kernel's own, and a sync is a system call).  Only the
// kernel calls it: behind resolve's label rule where a thread asked
// (SegmentPersist, OpSync, a read's page-in, snapshot and clone), on objects
// of its own choosing otherwise (Delete at deallocation, Sync's drain).  One
// function, push, hands bytes to it.
// *store.Store satisfies it as it stands; tests substitute a fake.  The lock
// rule is number 6 of the package comment; the store never calls back.
type Pager interface {
	// PutLabeled replaces the object's contents and label in the store's
	// memory; SyncObjects makes the pushed states of a group durable (one
	// error slot per id), Checkpoint every pushed state and deletion.
	PutLabeled(id uint64, lbl label.Label, data []byte) error
	SyncObjects(ids []uint64) []error
	Checkpoint() error
	// PageIn makes the object's contents resident; it fails only for damage.
	PageIn(id uint64) error
	Delete(id uint64) error
	// Alias makes dst, an id nothing holds yet, an object sharing src's
	// checkpointed bytes under lbl, durably and without copying; either is
	// then rewritten or deleted without the other noticing.  It fails typed
	// once the bytes have rotted.  Snapshots and clones use it (snapshot.go).
	Alias(src, dst uint64, lbl label.Label) error
}

// SetPager attaches the store; call once, before the kernel is shared.
// Without one SegmentPersist, OpSync and Sync fail with ErrInvalid.
func (k *Kernel) SetPager(p Pager) { k.pager = p }

// SegmentPersist marks the segment named by ce, which the invoking thread
// must be able to modify, persistent: its bytes are a store object from now
// on — pushed by OpSync and Sync, paged in before a read, deleted when the
// segment dies.  It starts out dirty; the mark itself moves no byte.
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
	seg.persistent, seg.dirty = true, true
	ls.unlock()
	return nil
}

// push hands a dirty segment's bytes and label to the pager, which copies
// them; the caller holds the segment's write lock, so no store slips between
// the copy and the bit.  Only a persistent segment is ever dirty.
func (k *Kernel) push(s *segment) error {
	if !s.dirty {
		return nil
	}
	if err := k.pager.PutLabeled(uint64(s.id), s.lbl, s.data); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// Sync makes the whole system durable (the paper's group sync, and what
// fsync of a directory means): every dirty segment is pushed, one at a time
// under its own lock, and the pager checkpoints.  The kernel chooses the
// objects, so no label is consulted; a segment dirtied behind the walk waits
// for the next sync.
func (tc *ThreadCall) Sync() error {
	if _, err := tc.enter(scSync); err != nil {
		return err
	}
	k := tc.k
	if k.pager == nil {
		return ErrInvalid
	}
	var segs []*segment
	k.each(func(o object) {
		if s, ok := o.(*segment); ok {
			segs = append(segs, s)
		}
	})
	for _, s := range segs {
		s.mu.Lock()
		err := k.push(s)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return k.pager.Checkpoint()
}
