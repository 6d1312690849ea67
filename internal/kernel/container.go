package kernel

import (
	"histar/internal/label"
)

// ContainerCreate creates a new container inside container d
// (id_t container_create).  The invoking thread must be able to write d
// (LT ⊑ LD ⊑ LTᴶ) and to allocate an object with label l (LT ⊑ l ⊑ CT).
// avoidTypes restricts which object types may be created in the new
// container or any of its descendants; quota bounds the storage usage
// charged to d.
func (tc *ThreadCall) ContainerCreate(d ID, l label.Label, descrip string, avoidTypes TypeMask, quota uint64) (ID, error) {
	ctx, err := tc.enter(scContainerCreate)
	if err != nil {
		return NilID, err
	}
	if !label.ValidObjectLabel(l) {
		return NilID, ErrInvalid
	}
	parent, err := tc.k.admit(&ctx, d, Mask(ObjContainer))
	if err != nil {
		return NilID, err
	}
	// A container less tainted than its parent pre-authorizes a small
	// information flow (Section 3.2); the allocation rules already require
	// the creating thread to own every category where LD(c) < LD'(c), which
	// CanAllocate and admit's can-modify enforce, so no extra check is
	// needed here.
	if !label.CanAllocate(ctx.lbl, ctx.clearance, l) {
		return NilID, ErrLabel
	}
	if quota == 0 {
		quota = 1 << 20
	}
	return tc.k.create(parent, &container{
		header:     tc.k.newHeader(ObjContainer, l, quota, descrip),
		parent:     d,
		entries:    make(map[ID]bool),
		avoidTypes: parent.avoidTypes | avoidTypes,
	})
}

// ContainerGetParent returns the parent container of the container named by
// ce (container_get_parent).  The root container has no parent.
func (tc *ThreadCall) ContainerGetParent(ce CEnt) (ID, error) {
	ctx, err := tc.enter(scContainerGetParent)
	if err != nil {
		return NilID, err
	}
	_, c, err := resolve[*container](tc.k, &ctx, ce, accNone)
	if err != nil {
		return NilID, err
	}
	// parent is immutable after creation; no lock on c needed.
	if c.parent == NilID {
		return NilID, ErrNotFound
	}
	return c.parent, nil
}

// ContainerList returns the object IDs hard-linked into the container named
// by ce.  The invoking thread must be able to observe the container.
func (tc *ThreadCall) ContainerList(ce CEnt) ([]ID, error) {
	ctx, err := tc.enter(scContainerList)
	if err != nil {
		return nil, err
	}
	c, ls, err := open[*container](tc.k, &ctx, ce, accObserve, false)
	if err != nil {
		return nil, err
	}
	defer ls.unlock()
	return c.list(), nil
}

// Link adds a hard link to the object named by src into container d.  The
// invoking thread must be able to write d and its clearance must be high
// enough to allocate objects at the target's label (Lsrc ⊑ CT).  The target
// object's quota must be fixed, since an object whose quota may change
// cannot be multiply linked (Section 3.3).
func (tc *ThreadCall) Link(d ID, src CEnt) error {
	ctx, err := tc.enter(scContainerLink)
	if err != nil {
		return err
	}
	dest, err := tc.k.admit(&ctx, d, 0) // the type is known only once src resolves
	if err != nil {
		return err
	}
	srcCont, obj, err := resolve[object](tc.k, &ctx, src, accNone)
	if err != nil {
		return err
	}
	h := obj.hdr()
	if h.objType == ObjContainer {
		// Containers have a single parent; only their creator links them.
		return ErrInvalid
	}
	if dest.avoidTypes.Has(h.objType) {
		return ErrAvoidType
	}
	ls := lockOrdered(objLock{srcCont, false}, objLock{dest, true}, objLock{obj, true})
	defer ls.unlock()
	if !liveLocked(dest) {
		return ErrNoSuchObject
	}
	if dest.immutable {
		return ErrImmutable
	}
	if err := verifyEntryLive(srcCont, obj); err != nil {
		return err
	}
	// Non-thread labels are immutable, but thread labels are not; read under
	// the object's lock either way.
	if !h.lbl.Leq(ctx.clearance) {
		return ErrClearance
	}
	if !h.fixedQuota {
		return ErrFixedQuota
	}
	if dest.entries[h.id] {
		return ErrExists
	}
	// Conservatively double-charge: the full quota is charged to every
	// container holding a link.
	if err := tc.k.charge(dest, h.quota); err != nil {
		return err
	}
	dest.link(h.id)
	h.refs++
	return nil
}

// Unref removes the hard link to object o from container d.  The invoking
// thread must be able to write d, and d must not be immutable: its entry list
// is exactly what that flag freezes.  When the last reference to an object is
// removed the object is deallocated; unreferencing a container recursively
// deallocates the subtree rooted at it.
func (tc *ThreadCall) Unref(d ID, o ID) error {
	ctx, err := tc.enter(scContainerUnref)
	if err != nil {
		return err
	}
	cont, err := tc.k.admit(&ctx, d, 0)
	if err != nil {
		return err
	}
	if o == tc.k.rootID {
		return ErrRootContainer
	}
	// If the target is already gone only the stale link, if any, is cleared,
	// and cont is the only object to lock.
	obj, _ := tc.k.lookup(o)
	locks := [2]objLock{{cont, true}, {obj, true}}
	n := 2
	if obj == nil {
		n = 1
	}
	var orphans []ID
	ls := lockOrdered(locks[:n]...)
	switch {
	case !liveLocked(cont) || !cont.entries[o]:
		err = ErrNoSuchObject
	case cont.immutable:
		err = ErrImmutable
	case obj == nil || !liveLocked(obj):
		cont.unlink(o)
	default:
		orphans = tc.k.unlinkLocked(cont, obj)
	}
	ls.unlock()
	// Tear the subtree down with no locks held; releaseRefs locks one
	// object at a time.
	tc.k.releaseRefs(orphans)
	return err
}

// QuotaMove moves n bytes of quota from container d to object o contained in
// it (int quota_move): o's quota and d's usage both grow by n.  The invoking
// thread must be able to write d (LT ⊑ LD ⊑ LTᴶ) and allocate at o's label
// (LT ⊑ LO ⊑ CT).  When n is negative the call can fail if o has fewer than
// |n| spare bytes, which conveys information about o, so the thread must
// additionally be able to observe o (LO ⊑ LTᴶ).
//
// An immutable d may still move quota.  The flag freezes what d's observers
// can see of d itself — its entry list and metadata, which is why Link, Unref
// and every creator refuse it — while quota is d's private ledger with the
// objects it holds, and those stay as mutable as their own flags say: a file
// in a sealed directory must still be able to grow, and refusing the move
// would turn a per-object flag into a recursive freeze the paper does not
// give it.
func (tc *ThreadCall) QuotaMove(d ID, o ID, n int64) error {
	ctx, err := tc.enter(scQuotaMove)
	if err != nil {
		return err
	}
	cont, err := tc.k.lookupContainer(d)
	if err != nil {
		return err
	}
	obj, err := tc.k.lookup(o)
	if err != nil {
		return err
	}
	if !label.CanModify(ctx.lbl, cont.lbl) {
		return ErrLabel
	}
	ls := lockOrdered(objLock{cont, true}, objLock{obj, true})
	defer ls.unlock()
	if !liveLocked(cont) || !liveLocked(obj) {
		return ErrNoSuchObject
	}
	if !cont.entries[o] {
		return ErrNoSuchObject
	}
	h := obj.hdr()
	if !ctx.lbl.Leq(h.lbl) || !h.lbl.Leq(ctx.clearance) {
		return ErrLabel
	}
	if h.fixedQuota {
		return ErrFixedQuota
	}
	if n >= 0 {
		if err := tc.k.charge(cont, uint64(n)); err != nil {
			return err
		}
		h.quota += uint64(n)
		return nil
	}
	// Shrinking: returns an error when o has fewer than |n| spare bytes,
	// thereby conveying information about o to the caller.
	if !label.CanObserve(ctx.lbl, h.lbl) {
		return ErrLabel
	}
	take := uint64(-n)
	spare := h.quota - obj.footprint()
	if h.quota < obj.footprint() || spare < take {
		return ErrQuota
	}
	h.quota -= take
	tc.k.refund(cont, take)
	return nil
}

// ObjectStat returns the externally visible state of the object named by ce.
// The invoking thread must be able to read the containing container; in that
// case it may read the object's descriptive string and, unless the object is
// a thread, its label.  Thread labels are mutable, so reading another
// thread's label additionally requires LT′ᴶ ⊑ LTᴶ.
func (tc *ThreadCall) ObjectStat(ce CEnt) (Stat, error) {
	ctx, err := tc.enter(scObjectStat)
	if err != nil {
		return Stat{}, err
	}
	obj, ls, err := open[object](tc.k, &ctx, ce, accNone, false)
	if err != nil {
		return Stat{}, err
	}
	defer ls.unlock()
	h := obj.hdr()
	// Thread labels are not immutable; expose them only when LT'ᴶ ⊑ LTᴶ.
	if h.objType == ObjThread && !label.LeqRaised(h.lbl, ctx.lbl) {
		return Stat{}, ErrLabel
	}
	return Stat{
		ID:         h.id,
		Type:       h.objType,
		Label:      h.lbl,
		Quota:      h.quota,
		Usage:      obj.footprint(),
		FixedQuota: h.fixedQuota,
		Immutable:  h.immutable,
		Descrip:    h.descrip,
		Metadata:   h.metadata,
	}, nil
}

// openHeader is the shared front of the three header-flag calls below: enter,
// open the entry for writing, and check under its lock (a thread's label is
// mutable) that the invoking thread may modify it.  It returns the header
// with the lock set still held.
func (tc *ThreadCall) openHeader(sc syscallID, ce CEnt, refuseImmutable bool) (*header, lockSet, error) {
	ctx, err := tc.enter(sc)
	if err != nil {
		return nil, lockSet{}, err
	}
	obj, ls, err := open[object](tc.k, &ctx, ce, accNone, true)
	if err != nil {
		return nil, lockSet{}, err
	}
	h := obj.hdr()
	if refuseImmutable && h.immutable {
		err = ErrImmutable
	} else if !label.CanModify(ctx.lbl, effectiveLabel(obj)) {
		err = ErrLabel
	}
	if err != nil {
		ls.unlock()
		return nil, lockSet{}, err
	}
	return h, ls, nil
}

// ObjectSetMetadata overwrites the 64 bytes of user-defined metadata on an
// object the thread can modify.
func (tc *ThreadCall) ObjectSetMetadata(ce CEnt, md [MetadataSize]byte) error {
	h, ls, err := tc.openHeader(scObjectSetMetadata, ce, true)
	if err != nil {
		return err
	}
	h.metadata = md
	ls.unlock()
	return nil
}

// ObjectSetImmutable irrevocably marks the object read-only.
func (tc *ThreadCall) ObjectSetImmutable(ce CEnt) error {
	h, ls, err := tc.openHeader(scObjectSetImmutable, ce, false)
	if err != nil {
		return err
	}
	h.immutable = true
	ls.unlock()
	return nil
}

// ObjectSetFixedQuota sets the fixed-quota flag on an object, which must be
// set before the object can be hard linked into additional containers and
// can never be cleared.
func (tc *ThreadCall) ObjectSetFixedQuota(ce CEnt) error {
	h, ls, err := tc.openHeader(scObjectSetFixedQuota, ce, false)
	if err != nil {
		return err
	}
	h.fixedQuota = true
	ls.unlock()
	return nil
}

// effectiveLabel is the label used for modify checks: gates use their gate
// label with ownership stripped to its storable form, threads their own
// label, everything else the object label.  The caller holds the object's
// lock when the object may be a thread.
func effectiveLabel(o object) label.Label {
	switch v := o.(type) {
	case *gate:
		return v.gateLabel.LowerStar()
	default:
		return o.hdr().lbl
	}
}
