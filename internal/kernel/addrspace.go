package kernel

import (
	"histar/internal/label"
)

// PageSize is the simulated page size.
const PageSize = 4096

// Mapping is one entry of an address space:
// VA → 〈segment container entry, offset, npages, flags〉.
type Mapping struct {
	VA     uint64
	Seg    CEnt
	Offset uint64
	NPages uint64
	Flags  MapFlags
}

// AddressSpaceCreate creates an address space object with label l in
// container d.
func (tc *ThreadCall) AddressSpaceCreate(d ID, l label.Label, descrip string) (ID, error) {
	ctx, err := tc.enter(scASCreate)
	if err != nil {
		return NilID, err
	}
	if !label.ValidObjectLabel(l) {
		return NilID, ErrInvalid
	}
	cont, err := tc.k.admit(&ctx, d, Mask(ObjAddressSpace))
	if err != nil {
		return NilID, err
	}
	if !label.CanAllocate(ctx.lbl, ctx.clearance, l) {
		return NilID, ErrLabel
	}
	return tc.k.create(cont, &addressSpace{header: tc.k.newHeader(ObjAddressSpace, l, 64*1024, descrip)})
}

// openAS is the shared front of the calls that change an address space: the
// invoking thread must be able to modify it (LT ⊑ LA ⊑ LTᴶ) and it must not
// be immutable.  It returns with the lock set held.
func (tc *ThreadCall) openAS(sc syscallID, ce CEnt) (*addressSpace, lockSet, error) {
	ctx, err := tc.enter(sc)
	if err != nil {
		return nil, lockSet{}, err
	}
	a, ls, err := open[*addressSpace](tc.k, &ctx, ce, accModify, true)
	if err != nil {
		return nil, lockSet{}, err
	}
	if a.immutable {
		ls.unlock()
		return nil, lockSet{}, ErrImmutable
	}
	return a, ls, nil
}

// AddressSpaceSet replaces the mappings of the address space named by ce.
// It is the only call that changes them, and a refused set changes nothing.
func (tc *ThreadCall) AddressSpaceSet(ce CEnt, maps []Mapping) error {
	a, ls, err := tc.openAS(scASSet, ce)
	if err != nil {
		return err
	}
	defer ls.unlock()
	for _, m := range maps {
		if m.VA%PageSize != 0 {
			return ErrInvalid
		}
	}
	a.mappings = append(a.mappings[:0], maps...)
	return nil
}

// AddressSpaceGet returns the current mappings of the address space named by
// ce.  The invoking thread must be able to observe it (LA ⊑ LTᴶ).
func (tc *ThreadCall) AddressSpaceGet(ce CEnt) ([]Mapping, error) {
	ctx, err := tc.enter(scASGet)
	if err != nil {
		return nil, err
	}
	a, ls, err := open[*addressSpace](tc.k, &ctx, ce, accObserve, false)
	if err != nil {
		return nil, err
	}
	defer ls.unlock()
	return append(make([]Mapping, 0, len(a.mappings)), a.mappings...), nil
}

// SetFaultHandler registers a user-mode page-fault handler on the address
// space, invoked when a memory access fails its checks.  By default a fault
// kills the process (the user-level library's choice).
func (tc *ThreadCall) SetFaultHandler(ce CEnt, h func(va uint64, write bool, err error)) error {
	a, ls, err := tc.openAS(scASSetFaultHandler, ce)
	if err != nil {
		return err
	}
	a.faultHandler = h
	ls.unlock()
	return nil
}

// MemRead simulates a load through the invoking thread's address space.
// The kernel looks up the faulting address, finds the backing segment, and
// performs the page-fault label checks: the thread must be able to read the
// mapping's container and segment (LD ⊑ LTᴶ and LO ⊑ LTᴶ).
func (tc *ThreadCall) MemRead(va uint64, n int) ([]byte, error) {
	ctx, err := tc.enter(scMemRead)
	if err != nil {
		return nil, err
	}
	seg, off, err := tc.pageFault(ctx, va, false)
	if err != nil {
		return nil, err
	}
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	if !liveLocked(seg) {
		return nil, ErrNoSuchObject
	}
	return seg.read(tc.k, off, n)
}

// MemWrite simulates a store through the invoking thread's address space;
// the mapping must include write permission and the thread must additionally
// be able to modify the segment (LT ⊑ LO).
func (tc *ThreadCall) MemWrite(va uint64, data []byte) error {
	ctx, err := tc.enter(scMemWrite)
	if err != nil {
		return err
	}
	seg, off, err := tc.pageFault(ctx, va, true)
	if err != nil {
		return err
	}
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if !liveLocked(seg) {
		return ErrNoSuchObject
	}
	return seg.write(tc.k, off, data)
}

// pageFault resolves a virtual address through the thread's address space,
// applying the label checks of Section 3.4.  It returns the backing segment
// and the byte offset within it (negative if a huge mapping offset overflows
// int, which the segment's bounds check then refuses); the caller locks the
// segment to touch its data.  On failure the address space's user-mode fault
// handler, if any, is notified (outside the error return so callers still
// see the error); the handler runs with no kernel locks held, so it may issue
// system calls.
func (tc *ThreadCall) pageFault(ctx tctx, va uint64, write bool) (*segment, int, error) {
	as, seg, off, err := tc.pageFaultInner(ctx, va, write)
	if err != nil && as != nil {
		as.mu.RLock()
		h := as.faultHandler
		as.mu.RUnlock()
		if h != nil {
			h(va, write, err)
		}
	}
	return seg, off, err
}

// pageFaultInner is pageFault's resolution; it returns the thread's address
// space once it is found, so that a failure after that point reaches the
// space's fault handler.
func (tc *ThreadCall) pageFaultInner(ctx tctx, va uint64, write bool) (*addressSpace, *segment, int, error) {
	if ctx.as.Object == NilID {
		return nil, nil, 0, ErrNoMapping
	}
	as, err := lookupAs[*addressSpace](tc.k, ctx.as.Object)
	if err != nil {
		return nil, nil, 0, err
	}
	// The thread must be able to use its address space at all.
	if !label.CanObserve(ctx.lbl, as.lbl) {
		return as, nil, 0, ErrLabel
	}
	// Find the covering mapping and copy it out; the syscall linearizes at
	// this point, so a concurrent remapping simply lands before or after it.
	var m Mapping
	found := false
	as.mu.RLock()
	for _, cand := range as.mappings {
		if va >= cand.VA && va < cand.VA+cand.NPages*PageSize {
			m = cand
			found = true
			break
		}
	}
	as.mu.RUnlock()
	if !found {
		return as, nil, 0, ErrNoMapping
	}
	need, acc := MapRead, accObserve
	if write {
		need, acc = MapWrite, accModify
	}
	if m.Flags&need == 0 {
		return as, nil, 0, ErrAccess
	}
	// Thread-local segment mapping: always accessible to its owner.
	if m.Flags&MapThreadLocal != 0 {
		return as, tc.t.localSegment, int(va - m.VA), nil
	}
	// Page-fault label checks: read the mapping's container and segment, plus
	// modify the segment for a store — the same resolve a direct call makes.
	_, seg, err := resolve[*segment](tc.k, &ctx, m.Seg, acc)
	if err != nil {
		return as, nil, 0, err
	}
	if write {
		// Reported here so the fault handler hears of it; the store itself
		// re-checks under the segment's write lock.
		seg.mu.RLock()
		immutable := seg.immutable
		seg.mu.RUnlock()
		if immutable {
			return as, nil, 0, ErrImmutable
		}
	}
	return as, seg, int(va - m.VA + m.Offset), nil
}
