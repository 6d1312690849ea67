package kernel

import (
	"histar/internal/label"
)

// CategoryCreate allocates a fresh category (cat_t create_category).  The
// invoking thread becomes the only owner: its label gains c ⋆ and its
// clearance gains c 3.  Labels are egalitarian — any thread may allocate
// arbitrarily many categories.
func (tc *ThreadCall) CategoryCreate() (label.Category, error) {
	if _, err := tc.enter(scCategoryCreate); err != nil {
		return 0, err
	}
	c := tc.k.cats.Alloc()
	t := tc.t
	t.mu.Lock()
	t.lbl = t.lbl.With(c, label.Star)
	t.clearance = t.clearance.With(c, label.L3)
	t.mu.Unlock()
	return c, nil
}

// SelfLabel returns the invoking thread's current label.
func (tc *ThreadCall) SelfLabel() (label.Label, error) {
	ctx, err := tc.enter(scSelfGetLabel)
	if err != nil {
		return label.Label{}, err
	}
	return ctx.lbl, nil
}

// SelfClearance returns the invoking thread's current clearance.
func (tc *ThreadCall) SelfClearance() (label.Label, error) {
	ctx, err := tc.enter(scSelfGetClearance)
	if err != nil {
		return label.Label{}, err
	}
	return ctx.clearance, nil
}

// SelfSetLabel changes the invoking thread's label to l, permitted only when
// LT ⊑ l ⊑ CT (int self_set_label).  A thread can therefore taint itself to
// read more tainted objects, but can never shed taint it does not own.
func (tc *ThreadCall) SelfSetLabel(l label.Label) error {
	if _, err := tc.enter(scSelfSetLabel); err != nil {
		return err
	}
	if !label.ValidThreadLabel(l) {
		return ErrInvalid
	}
	t := tc.t
	// The thread-local segment follows the thread's taint so the thread can
	// always write its own scratch space.
	ls := lockOrdered(objLock{t, true}, objLock{t.localSegment, true})
	defer ls.unlock()
	// Validate against the thread's label as it is now, under the lock.
	if !t.lbl.Leq(l) || !l.Leq(t.clearance) {
		return ErrLabel
	}
	t.lbl = l
	t.localSegment.lbl = l.LowerStar()
	return nil
}

// SelfSetClearance changes the invoking thread's clearance to c, permitted
// only when LT ⊑ c ⊑ (CT ⊔ LTᴶ) (int self_set_clearance).  A thread may
// lower its clearance in any category (not below its label) and may raise
// clearance only in categories it owns.
func (tc *ThreadCall) SelfSetClearance(c label.Label) error {
	if _, err := tc.enter(scSelfSetClearance); err != nil {
		return err
	}
	if !label.ValidClearance(c) {
		return ErrInvalid
	}
	t := tc.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.lbl.Leq(c) || !c.Leq(t.clearance.Join(t.lbl.RaiseJ())) {
		return ErrLabel
	}
	t.clearance = c
	return nil
}

// SelfAddressSpace returns the container entry of the invoking thread's
// current address space.
func (tc *ThreadCall) SelfAddressSpace() (CEnt, error) {
	ctx, err := tc.enter(scSelfGetAS)
	if err != nil {
		return CEnt{}, err
	}
	return ctx.as, nil
}

// SelfSetAddressSpace switches the invoking thread to a different address
// space (self_set_as).  The thread must be able to observe the address
// space: LA ⊑ LTᴶ.
func (tc *ThreadCall) SelfSetAddressSpace(as CEnt) error {
	ctx, err := tc.enter(scSelfSetAS)
	if err != nil {
		return err
	}
	if _, _, err := resolve[*addressSpace](tc.k, &ctx, as, accObserve); err != nil {
		return err
	}
	t := tc.t
	t.mu.Lock()
	t.addressSpace = as
	t.mu.Unlock()
	return nil
}

// ThreadSpec describes a thread to be created.
type ThreadSpec struct {
	// Label and Clearance for the new thread; must satisfy
	// LT ⊑ Label ⊑ Clearance ⊑ CT for the creating thread.
	Label     label.Label
	Clearance label.Label
	// AddressSpace the new thread starts with (may be the zero CEnt when the
	// creator will set it later through its own ThreadCall).
	AddressSpace CEnt
	// Descrip is the 32-byte descriptive string.
	Descrip string
	// Quota is the storage charged to the containing container (0 picks a
	// small default).
	Quota uint64
}

// ThreadCreate creates a new thread in container d.  The creating thread
// must be able to write d, and the new thread's label and clearance must
// satisfy LT ⊑ LT′ ⊑ CT′ ⊑ CT.  The new thread does not run by itself in
// this simulation; the caller obtains its syscall context from
// Kernel.ThreadCall and drives it (typically from a new goroutine).
func (tc *ThreadCall) ThreadCreate(d ID, spec ThreadSpec) (ID, error) {
	ctx, err := tc.enter(scThreadCreate)
	if err != nil {
		return NilID, err
	}
	if !label.ValidThreadLabel(spec.Label) || !label.ValidClearance(spec.Clearance) {
		return NilID, ErrInvalid
	}
	cont, err := tc.k.admit(&ctx, d, Mask(ObjThread))
	if err != nil {
		return NilID, err
	}
	// LT ⊑ LT' ⊑ CT' ⊑ CT.
	if !ctx.lbl.Leq(spec.Label) || !spec.Label.Leq(spec.Clearance) || !spec.Clearance.Leq(ctx.clearance) {
		return NilID, ErrLabel
	}
	return tc.k.create(cont, tc.k.newThread(spec.Label, spec.Clearance, spec.AddressSpace, spec.Quota, spec.Descrip))
}

// ThreadHalt halts the invoking thread.  Further system calls through its
// context return ErrHalted.
func (tc *ThreadCall) ThreadHalt() error {
	if _, err := tc.enter(scThreadHalt); err != nil {
		return err
	}
	tc.t.mu.Lock()
	tc.t.halt()
	tc.t.mu.Unlock()
	return nil
}

// halt marks t halted and wakes an AlertWait, which then returns ErrHalted;
// the caller holds t's write lock.
func (t *thread) halt() {
	t.halted = true
	select {
	case t.alertCh <- struct{}{}:
	default:
	}
}

// ThreadAlert sends an alert (HiStar's low-level signal) to the thread named
// by target.  The invoking thread must be able to write the target thread's
// address space (LT ⊑ LA ⊑ LTᴶ) and to observe the target (Ltarget ⊑ LTᴶ).
// The alert code is queued and the target's alert handler (or AlertWait)
// consumes it.
func (tc *ThreadCall) ThreadAlert(target CEnt, code uint64) error {
	ctx, err := tc.enter(scThreadAlert)
	if err != nil {
		return err
	}
	victim, ls, err := open[*thread](tc.k, &ctx, target, accNone, true)
	if err != nil {
		return err
	}
	if err = tc.alertLocked(ctx, victim); err == nil {
		victim.alertQueue = append(victim.alertQueue, code)
	}
	ls.unlock()
	if err != nil {
		return err
	}
	// Non-blocking notify.
	select {
	case victim.alertCh <- struct{}{}:
	default:
	}
	return nil
}

// alertLocked applies ThreadAlert's label rule with the target's lock held,
// which is what makes its label and address space readable.
func (tc *ThreadCall) alertLocked(ctx tctx, victim *thread) error {
	if !label.CanObserve(ctx.lbl, victim.lbl) {
		return ErrLabel
	}
	if victim.addressSpace.Object == NilID {
		// No address space: fall back to requiring write permission on the
		// thread object itself.
		if !label.CanModify(ctx.lbl, victim.lbl) {
			return ErrLabel
		}
		return nil
	}
	// Address-space labels are immutable; no lock on it needed.
	as, err := lookupAs[*addressSpace](tc.k, victim.addressSpace.Object)
	if err != nil {
		return err
	}
	if !label.CanModify(ctx.lbl, as.lbl) {
		return ErrLabel
	}
	return nil
}

// AlertPoll removes and returns a pending alert, if any.
func (tc *ThreadCall) AlertPoll() (uint64, bool, error) {
	if _, err := tc.enter(scAlertPoll); err != nil {
		return 0, false, err
	}
	t := tc.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.alertQueue) == 0 {
		return 0, false, nil
	}
	code := t.alertQueue[0]
	t.alertQueue = t.alertQueue[1:]
	return code, true, nil
}

// AlertWait blocks until an alert is delivered to the invoking thread, then
// returns its code, or ErrHalted once the thread is halted or deallocated.
func (tc *ThreadCall) AlertWait() (uint64, error) {
	if _, err := tc.enter(scAlertWait); err != nil {
		return 0, err
	}
	t := tc.t
	for {
		t.mu.Lock()
		if t.halted {
			t.mu.Unlock()
			return 0, ErrHalted
		}
		if len(t.alertQueue) > 0 {
			code := t.alertQueue[0]
			t.alertQueue = t.alertQueue[1:]
			t.mu.Unlock()
			return code, nil
		}
		t.mu.Unlock()
		<-t.alertCh
	}
}

// LocalSegmentWrite writes into the invoking thread's one-page thread-local
// segment, which is always writable by the current thread regardless of its
// label.  The page never grows: the range must lie wholly inside it.
func (tc *ThreadCall) LocalSegmentWrite(off int, data []byte) error {
	if _, err := tc.enter(scLocalSegmentWrite); err != nil {
		return err
	}
	seg := tc.t.localSegment
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if end, err := seg.clamp(tc.k, off, len(data)); err != nil || end-off != len(data) {
		return ErrInvalid
	}
	return seg.write(tc.k, off, data)
}

// LocalSegmentRead reads from the invoking thread's thread-local segment; the
// range must lie wholly inside it.
func (tc *ThreadCall) LocalSegmentRead(off, n int) ([]byte, error) {
	if _, err := tc.enter(scLocalSegmentRead); err != nil {
		return nil, err
	}
	seg := tc.t.localSegment
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	if end, err := seg.clamp(tc.k, off, n); err != nil || end-off != n {
		return nil, ErrInvalid
	}
	return seg.read(tc.k, off, n)
}
