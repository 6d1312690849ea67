package kernel

import (
	"errors"
	"fmt"
	"testing"

	"histar/internal/label"
)

// Deny tests: one per label check that no other test refuses, each naming the
// paper's rule it pins.  Every test first shows the owner of category c (the
// boot thread, which made c) passing the same check, so the refusal is the
// rule's and not some other failure on the path.

// denyEnv boots a kernel whose boot thread owns a fresh category c, plus an
// outsider thread labeled {1} with clearance {2} in the root container.
func denyEnv(t *testing.T) (k *Kernel, owner, outsider *ThreadCall, c label.Category) {
	t.Helper()
	k, owner = boot(t)
	c, err := owner.CategoryCreate()
	if err != nil {
		t.Fatal(err)
	}
	return k, owner, spawnWorker(t, k, owner, "outsider"), c
}

// newThread creates a thread with the given label and clearance in the root
// container and returns its entry and its syscall context.
func newThread(t *testing.T, k *Kernel, creator *ThreadCall, lbl, clr label.Label) (CEnt, *ThreadCall) {
	t.Helper()
	id, err := creator.ThreadCreate(k.RootContainer(), ThreadSpec{Label: lbl, Clearance: clr, Descrip: "deny target"})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := k.ThreadCall(id)
	if err != nil {
		t.Fatal(err)
	}
	return CEnt{k.RootContainer(), id}, tc
}

func wantLabelErr(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, ErrLabel) {
		t.Errorf("%s: err = %v, want ErrLabel", what, err)
	}
}

// quota_move: the thread must be able to write the container,
// LT ⊑ LD ⊑ LTᴶ.  D is {c0, 1}: only an owner of c may write it.
func TestDenyQuotaMoveUnwritableContainer(t *testing.T) {
	k, owner, outsider, c := denyEnv(t)
	d, err := owner.ContainerCreate(k.RootContainer(), label.New(label.L1, label.P(c, label.L0)), "c-protected", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	o, err := owner.SegmentCreate(d, label.New(label.L1), "o", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.QuotaMove(d, o, 4096); err != nil {
		t.Fatalf("owner's quota_move: %v", err)
	}
	wantLabelErr(t, "quota_move into a container the thread cannot write", outsider.QuotaMove(d, o, 4096))
}

// quota_move: the thread must be able to allocate at the
// object's label, LT ⊑ LO ⊑ CT — in both halves of the rule.
func TestDenyQuotaMoveObjectOutsideAllocationRange(t *testing.T) {
	k, owner, outsider, c := denyEnv(t)
	d, err := owner.ContainerCreate(k.RootContainer(), label.New(label.L1), "d", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name string
		lbl  label.Label
	}{
		{"LT ⊑ LO fails: {c0, 1}", label.New(label.L1, label.P(c, label.L0))},
		{"LO ⊑ CT fails: {c3, 1} above clearance {2}", label.New(label.L1, label.P(c, label.L3))},
	} {
		t.Run(tt.name, func(t *testing.T) {
			o, err := owner.SegmentCreate(d, tt.lbl, "o", 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := owner.QuotaMove(d, o, 4096); err != nil {
				t.Fatalf("owner's quota_move: %v", err)
			}
			wantLabelErr(t, "quota_move to an object the thread cannot allocate at", outsider.QuotaMove(d, o, 4096))
		})
	}
}

// quota_move: a shrink can fail for lack of spare bytes, which
// conveys information about the object, so it additionally requires
// LO ⊑ LTᴶ.  The reader holds clearance c3 but not c: it may grow an object
// labeled {c3, 1} (LT ⊑ LO ⊑ CT holds) but not shrink it.
func TestDenyQuotaMoveShrinkUnobservable(t *testing.T) {
	k, owner, _, c := denyEnv(t)
	d, err := owner.ContainerCreate(k.RootContainer(), label.New(label.L1), "d", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	o, err := owner.SegmentCreate(d, label.New(label.L1, label.P(c, label.L3)), "secret", 8)
	if err != nil {
		t.Fatal(err)
	}
	_, cleared := newThread(t, k, owner, label.New(label.L1), label.New(label.L2, label.P(c, label.L3)))
	if err := cleared.QuotaMove(d, o, 4096); err != nil {
		t.Fatalf("growing needs no observation: %v", err)
	}
	if err := owner.QuotaMove(d, o, -1024); err != nil {
		t.Fatalf("owner's shrink: %v", err)
	}
	wantLabelErr(t, "shrinking an object the thread cannot observe", cleared.QuotaMove(d, o, -1024))
}

// obj_get_label on a thread: thread labels are mutable, so
// reading another thread's requires LT′ᴶ ⊑ LTᴶ.  A thread owning c reads as
// cᴶ, above the outsider's c1 — though {c⋆, 1} ⊑ {1} unraised.
func TestDenyObjectStatOwnerThread(t *testing.T) {
	k, owner, outsider, c := denyEnv(t)
	target, _ := newThread(t, k, owner, label.New(label.L1, label.P(c, label.Star)), label.New(label.L2, label.P(c, label.L3)))
	if st, err := owner.ObjectStat(target); err != nil || st.Type != ObjThread {
		t.Fatalf("owner's stat of the thread = %+v, %v", st, err)
	}
	_, err := outsider.ObjectStat(target)
	wantLabelErr(t, "stat of a thread owning a category the caller does not", err)
}

// The header-flag calls (obj_set_meta, obj_set_fixedquota,
// obj_set_immutable) modify the object: LT ⊑ LO ⊑ LTᴶ.  The segment is
// {c0, 1}.
func TestDenyObjectSetMetadataUnwritable(t *testing.T) {
	k, owner, outsider, c := denyEnv(t)
	seg, err := owner.SegmentCreate(k.RootContainer(), label.New(label.L1, label.P(c, label.L0)), "c-protected", 8)
	if err != nil {
		t.Fatal(err)
	}
	ce := CEnt{k.RootContainer(), seg}
	md := [MetadataSize]byte{1}
	if err := owner.ObjectSetMetadata(ce, md); err != nil {
		t.Fatalf("owner's set-metadata: %v", err)
	}
	wantLabelErr(t, "set-metadata on an object the thread cannot write", outsider.ObjectSetMetadata(ce, md))
}

// Page faults (Section 3.4): every access through an address space requires
// LA ⊑ LTᴶ, checked at the fault, not only at self_set_as.  The thread
// switches to a {c3, 1} address space while it owns c, then gives c up.
func TestDenyPageFaultUnobservableAddressSpace(t *testing.T) {
	k, owner, _, c := denyEnv(t)
	root := k.RootContainer()
	seg, err := owner.SegmentCreate(root, label.New(label.L1), "mapped", PageSize)
	if err != nil {
		t.Fatal(err)
	}
	as, err := owner.AddressSpaceCreate(root, label.New(label.L1, label.P(c, label.L3)), "c-secret as")
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.AddressSpaceSet(CEnt{root, as}, []Mapping{{VA: 0x10000, Seg: CEnt{root, seg}, NPages: 1, Flags: MapRead}}); err != nil {
		t.Fatal(err)
	}
	if err := owner.SelfSetAddressSpace(CEnt{root, as}); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.MemRead(0x10000, 4); err != nil {
		t.Fatalf("read while owning c: %v", err)
	}
	if err := owner.SelfSetLabel(label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	_, err = owner.MemRead(0x10000, 4)
	wantLabelErr(t, "fault through an address space the thread cannot observe", err)
}

// thread_alert (Section 3.4): the sender must observe the target,
// Ltarget ⊑ LTᴶ.  The target is tainted {c2, 1} and runs in a {1} address
// space the outsider may write, so observation is the only rule it fails.
func TestDenyThreadAlertUnobservableTarget(t *testing.T) {
	k, owner, outsider, c := denyEnv(t)
	root := k.RootContainer()
	as, err := owner.AddressSpaceCreate(root, label.New(label.L1), "writable as")
	if err != nil {
		t.Fatal(err)
	}
	target, tainted := newThread(t, k, owner, label.New(label.L1, label.P(c, label.L2)), label.New(label.L2, label.P(c, label.L3)))
	if err := tainted.SelfSetAddressSpace(CEnt{root, as}); err != nil {
		t.Fatal(err)
	}
	if err := owner.ThreadAlert(target, 1); err != nil {
		t.Fatalf("owner's alert: %v", err)
	}
	wantLabelErr(t, "alert to a thread the sender cannot observe", outsider.ThreadAlert(target, 1))
}

// thread_alert (Section 3.4): with no address space to write, the sender must
// be able to write the target thread itself, LT ⊑ Ltarget ⊑ LTᴶ.  The target
// owns c: the outsider observes it (⋆ ≤ 1) but cannot write it (1 ≰ ⋆).
func TestDenyThreadAlertUnwritableTarget(t *testing.T) {
	k, owner, outsider, c := denyEnv(t)
	target, _ := newThread(t, k, owner, label.New(label.L1, label.P(c, label.Star)), label.New(label.L2, label.P(c, label.L3)))
	if err := owner.ThreadAlert(target, 1); err != nil {
		t.Fatalf("owner's alert: %v", err)
	}
	wantLabelErr(t, "alert to a thread the sender cannot write", outsider.ThreadAlert(target, 1))
}

// segment_copy (Section 3: copies are how HiStar avoids re-labeling): the
// thread must observe the source, LS ⊑ LTᴶ, whatever label it asks for the
// copy.  The thief is {y⋆, 1}, cleared to y3 and owning nothing of c; it asks
// for a {y3, 1} copy of a {c3, 1} segment — a label it may allocate, and one
// it could read — which is the relabeling a clone's category remap {c→y}
// once performed unchecked.  Its owner of c makes the same copy.
func TestDenySegmentCopyUnobservableSource(t *testing.T) {
	k, owner, _, c := denyEnv(t)
	root := k.RootContainer()
	y, err := owner.CategoryCreate()
	if err != nil {
		t.Fatal(err)
	}
	src, err := owner.SegmentCreate(root, label.New(label.L1, label.P(c, label.L3)), "secret", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SegmentWrite(CEnt{root, src}, 0, []byte{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	asked := label.New(label.L1, label.P(y, label.L3))
	if _, err := owner.SegmentCopy(CEnt{root, src}, root, asked, "owner's copy"); err != nil {
		t.Fatalf("owner's copy: %v", err)
	}
	_, thief := newThread(t, k, owner, label.New(label.L1, label.P(y, label.Star)), label.New(label.L2, label.P(y, label.L3)))
	objects := k.ObjectCount()
	_, err = thief.SegmentCopy(CEnt{root, src}, root, asked, "stolen copy")
	wantLabelErr(t, "copy of a segment the thread cannot observe", err)
	if n := k.ObjectCount(); n != objects {
		t.Errorf("the refused copy left %d objects", n-objects)
	}
}

// The immutable flag (Section 3: obj_set_immutable irrevocably makes an object
// read-only) refuses every modification, whatever the caller's labels
// permit.  Each test below makes the same call succeed on the mutable object
// first, so the refusal is the flag's.

// immutableSegment creates a {1} segment of one page in the root container,
// runs mutate on it while it is still mutable, then freezes it.
func immutableSegment(t *testing.T, k *Kernel, tc *ThreadCall, mutate func(CEnt) error) CEnt {
	t.Helper()
	seg, err := tc.SegmentCreate(k.RootContainer(), label.New(label.L1), "frozen", PageSize)
	if err != nil {
		t.Fatal(err)
	}
	ce := CEnt{k.RootContainer(), seg}
	if err := mutate(ce); err != nil {
		t.Fatalf("the same call on the mutable object: %v", err)
	}
	if err := tc.ObjectSetImmutable(ce); err != nil {
		t.Fatal(err)
	}
	return ce
}

func wantImmutableErr(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, ErrImmutable) {
		t.Errorf("%s: err = %v, want ErrImmutable", what, err)
	}
}

// as_set on an immutable address space.
func TestDenyAddressSpaceSetImmutable(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	seg := immutableSegment(t, k, tc, func(CEnt) error { return nil })
	as, err := tc.AddressSpaceCreate(root, label.New(label.L1), "frozen as")
	if err != nil {
		t.Fatal(err)
	}
	ce := CEnt{root, as}
	maps := []Mapping{{VA: 0x10000, Seg: seg, NPages: 1, Flags: MapRead}}
	if err := tc.AddressSpaceSet(ce, maps); err != nil {
		t.Fatalf("as_set on the mutable address space: %v", err)
	}
	if err := tc.ObjectSetImmutable(ce); err != nil {
		t.Fatal(err)
	}
	wantImmutableErr(t, "as_set on an immutable address space", tc.AddressSpaceSet(ce, nil))
}

// A store through a writable mapping faults on an immutable segment: the
// mapping's flags grant the write, the segment refuses it, and the refusal is
// a page fault the address space's fault handler hears of.
func TestDenyMappedStoreImmutable(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	seg := immutableSegment(t, k, tc, func(CEnt) error { return nil })
	as, err := tc.AddressSpaceCreate(root, label.New(label.L1), "writable as")
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.AddressSpaceSet(CEnt{root, as}, []Mapping{{VA: 0x10000, Seg: seg, NPages: 1, Flags: MapRead | MapWrite}}); err != nil {
		t.Fatal(err)
	}
	var faults []error
	if err := tc.SetFaultHandler(CEnt{root, as}, func(_ uint64, _ bool, err error) { faults = append(faults, err) }); err != nil {
		t.Fatal(err)
	}
	if err := tc.SelfSetAddressSpace(CEnt{root, as}); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.MemRead(0x10000, 4); err != nil {
		t.Fatalf("load through the mapping: %v", err)
	}
	wantImmutableErr(t, "store through a mapping into an immutable segment", tc.MemWrite(0x10000, []byte("x")))
	if len(faults) != 1 || !errors.Is(faults[0], ErrImmutable) {
		t.Errorf("fault handler heard %v, want one ErrImmutable", faults)
	}
}

// futex_wake conveys information to the sleepers, so it is a modification
// of the segment.
func TestDenyFutexWakeImmutable(t *testing.T) {
	k, tc := boot(t)
	seg := immutableSegment(t, k, tc, func(ce CEnt) error {
		_, err := tc.FutexWake(ce, 0, 1)
		return err
	})
	_, err := tc.FutexWake(seg, 0, 1)
	wantImmutableErr(t, "futex_wake on an immutable segment", err)
}

// Compare-and-swap is a store, even one whose comparison would fail: the word
// is 1, and both a matching and a failing comparison are refused.
func TestDenySegmentCompareSwapImmutable(t *testing.T) {
	k, tc := boot(t)
	seg := immutableSegment(t, k, tc, func(ce CEnt) error {
		_, err := tc.SegmentCompareSwap(ce, 0, 0, 1)
		return err
	})
	for _, old := range []uint64{1, 2} {
		_, err := tc.SegmentCompareSwap(seg, 0, old, 3)
		wantImmutableErr(t, fmt.Sprintf("compare-and-swap of %d on an immutable segment", old), err)
	}
}

// obj_set_meta edits the object's header.
func TestDenyObjectSetMetadataImmutable(t *testing.T) {
	k, tc := boot(t)
	md := [MetadataSize]byte{1}
	seg := immutableSegment(t, k, tc, func(ce CEnt) error { return tc.ObjectSetMetadata(ce, md) })
	md[0] = 2
	wantImmutableErr(t, "set-metadata on an immutable object", tc.ObjectSetMetadata(seg, md))
}
