package kernel

import (
	"errors"
	"strings"
	"testing"

	"histar/internal/label"
)

// boot creates a kernel and a root thread with full default privileges.
func boot(t testing.TB) (*Kernel, *ThreadCall) {
	t.Helper()
	k := New(Config{Seed: 1})
	tc, err := k.BootThread(label.New(label.L1), label.New(label.L2), "boot thread")
	if err != nil {
		t.Fatalf("BootThread: %v", err)
	}
	return k, tc
}

func TestBoot(t *testing.T) {
	k, tc := boot(t)
	if k.RootContainer() == NilID {
		t.Fatal("no root container")
	}
	lbl, err := tc.SelfLabel()
	if err != nil {
		t.Fatal(err)
	}
	if !lbl.Equal(label.New(label.L1)) {
		t.Errorf("boot thread label = %v", lbl)
	}
	clr, err := tc.SelfClearance()
	if err != nil {
		t.Fatal(err)
	}
	if !clr.Equal(label.New(label.L2)) {
		t.Errorf("boot thread clearance = %v", clr)
	}
	if k.ObjectCount() < 2 {
		t.Errorf("expected at least root container + thread, got %d", k.ObjectCount())
	}
}

func TestBootThreadRejectsBadLabels(t *testing.T) {
	k := New(Config{Seed: 1})
	// Label above clearance.
	if _, err := k.BootThread(label.New(label.L3), label.New(label.L2), "bad"); err == nil {
		t.Error("label above clearance should be rejected")
	}
	if _, err := k.BootThread(label.New(label.L1), label.New(label.L2), "ok"); err != nil {
		t.Errorf("valid boot thread rejected: %v", err)
	}
}

func TestCategoryCreateGrantsOwnership(t *testing.T) {
	_, tc := boot(t)
	c, err := tc.CategoryCreate()
	if err != nil {
		t.Fatal(err)
	}
	lbl, _ := tc.SelfLabel()
	if !lbl.Owns(c) {
		t.Error("creating thread must own the new category")
	}
	clr, _ := tc.SelfClearance()
	if clr.Get(c) != label.L3 {
		t.Errorf("clearance in new category = %v, want 3", clr.Get(c))
	}
}

func TestSelfSetLabelTaintAndRefuseUntaint(t *testing.T) {
	_, tc := boot(t)
	c, _ := tc.CategoryCreate()
	other, _ := tc.CategoryCreate()
	_ = other

	// Taint self in a category we do not own: allocate via a different
	// thread? Simpler: drop ownership by raising to c3 is allowed since we
	// own c. Use a brand new category from the allocator that nobody owns.
	lbl, _ := tc.SelfLabel()
	// Raise taint in an arbitrary (unowned) category up to clearance.
	unowned := label.Category(999999)
	if err := tc.SelfSetLabel(lbl.With(unowned, label.L2)); err != nil {
		t.Fatalf("tainting to level 2 should be allowed: %v", err)
	}
	// Going back down is not.
	lbl2, _ := tc.SelfLabel()
	if err := tc.SelfSetLabel(lbl2.With(unowned, label.L1)); err == nil {
		t.Error("untainting without ownership must fail")
	}
	// Raising beyond clearance (level 3 in an unowned category) must fail.
	if err := tc.SelfSetLabel(lbl2.With(unowned, label.L3)); err == nil {
		t.Error("tainting above clearance must fail")
	}
	// But in a category we own, any level is reachable because clearance was
	// raised to 3 at creation.
	if err := tc.SelfSetLabel(lbl2.With(c, label.L3)); err != nil {
		t.Errorf("owner should be able to taint itself to 3 in its category: %v", err)
	}
}

func TestSelfSetClearance(t *testing.T) {
	_, tc := boot(t)
	c, _ := tc.CategoryCreate()
	clr, _ := tc.SelfClearance()

	// Lowering clearance is allowed.
	if err := tc.SelfSetClearance(clr.With(c, label.L2)); err != nil {
		t.Fatalf("lowering clearance: %v", err)
	}
	// Raising it again in an owned category is allowed (CT ⊔ LTᴶ includes J).
	clr2, _ := tc.SelfClearance()
	if err := tc.SelfSetClearance(clr2.With(c, label.L3)); err != nil {
		t.Fatalf("owner raising clearance: %v", err)
	}
	// Raising clearance in an unowned category must fail.
	if err := tc.SelfSetClearance(clr2.With(label.Category(424242), label.L3)); err == nil {
		t.Error("raising clearance in unowned category must fail")
	}
	// Clearance below the label must fail.
	lbl, _ := tc.SelfLabel()
	if err := tc.SelfSetLabel(lbl.With(label.Category(7777), label.L2)); err != nil {
		t.Fatal(err)
	}
	bad := label.New(label.L2).With(label.Category(7777), label.L1)
	if err := tc.SelfSetClearance(bad); err == nil {
		t.Error("clearance below label must fail")
	}
}

// TestSelfSetLabelRules holds the two self_set calls to the paper's rules,
// case by case: LT ⊑ l ⊑ CT for the label, LT ⊑ c ⊑ CT ⊔ LTᴶ for the
// clearance.  Each case boots a thread at (lbl, clr) and asks for next.
func TestSelfSetLabelRules(t *testing.T) {
	c := label.Category(11)
	plain, two := label.New(label.L1), label.New(label.L2)
	owner := label.New(label.L1, label.P(c, label.Star))
	at := func(lv label.Level, def label.Level) label.Label { return label.New(def, label.P(c, lv)) }
	for _, tc := range []struct {
		what           string
		clearance      bool // the call is SelfSetClearance
		lbl, clr, next label.Label
		want           error
	}{
		{"raise to c2, within clearance", false, plain, two, at(label.L2, label.L1), nil},
		{"raise to c3 exceeds the default clearance {2}", false, plain, two, at(label.L3, label.L1), ErrLabel},
		{"lowering a label without ownership", false, at(label.L2, label.L1), two, plain, ErrLabel},
		{"an owner raises clearance in its category", true, owner, two, at(label.L3, label.L2), nil},
		{"a non-owner may not raise clearance beyond CT ⊔ LTᴶ", true, plain, two, at(label.L3, label.L2), ErrLabel},
		{"lowering clearance to the label", true, plain, two, plain, nil},
		{"clearance below the label", true, at(label.L2, label.L1), two, plain, ErrLabel},
	} {
		th, err := New(Config{Seed: 1}).BootThread(tc.lbl, tc.clr, tc.what)
		if err != nil {
			t.Fatalf("%s: boot: %v", tc.what, err)
		}
		call, get := th.SelfSetLabel, th.SelfLabel
		if tc.clearance {
			call, get = th.SelfSetClearance, th.SelfClearance
		}
		before, _ := get()
		if err := call(tc.next); !errors.Is(err, tc.want) {
			t.Errorf("%s: err=%v, want %v", tc.what, err, tc.want)
		}
		want := before
		if tc.want == nil {
			want = tc.next
		}
		if after, _ := get(); !after.Equal(want) {
			t.Errorf("%s: ended at %v, want %v", tc.what, after, want)
		}
	}
}

func TestContainerCreateAndList(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	id, err := tc.ContainerCreate(root, label.New(label.L1), "homes", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := tc.ContainerList(Self(root))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, x := range ids {
		if x == id {
			found = true
		}
	}
	if !found {
		t.Error("new container not listed in root")
	}
	// Parent lookup.
	parent, err := tc.ContainerGetParent(CEnt{Container: root, Object: id})
	if err != nil {
		t.Fatal(err)
	}
	if parent != root {
		t.Errorf("parent = %v, want root %v", parent, root)
	}
	// The root container has no parent.
	if _, err := tc.ContainerGetParent(Self(root)); !errors.Is(err, ErrNotFound) {
		t.Errorf("root parent err = %v, want ErrNotFound", err)
	}
}

func TestContainerCreateDeniedAboveClearance(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	c, _ := tc.CategoryCreate()
	// Label {c3,1} is within the creator's clearance (owner has clearance 3
	// in c), so allowed.
	if _, err := tc.ContainerCreate(root, label.New(label.L1, label.P(c, label.L3)), "tmp", 0, 1<<20); err != nil {
		t.Fatalf("owner creating c3 container: %v", err)
	}
	// A label at level 3 in an unowned category exceeds clearance {2}.
	if _, err := tc.ContainerCreate(root, label.New(label.L1, label.P(label.Category(31337), label.L3)), "tmp2", 0, 1<<20); err == nil {
		t.Error("creating object above clearance must fail")
	}
}

func TestAvoidTypes(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	noThreads, err := tc.ContainerCreate(root, label.New(label.L1), "no-threads", Mask(ObjThread), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tc.ThreadCreate(noThreads, ThreadSpec{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2),
		Descrip:   "forbidden",
	})
	if !errors.Is(err, ErrAvoidType) {
		t.Errorf("thread creation in avoid-types container: err=%v, want ErrAvoidType", err)
	}
	// The restriction is inherited by descendants.
	child, err := tc.ContainerCreate(noThreads, label.New(label.L1), "child", 0, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tc.ThreadCreate(child, ThreadSpec{Label: label.New(label.L1), Clearance: label.New(label.L2)})
	if !errors.Is(err, ErrAvoidType) {
		t.Errorf("avoid-types must be inherited: err=%v", err)
	}
	// Segments are still allowed.
	if _, err := tc.SegmentCreate(child, label.New(label.L1), "ok", 10); err != nil {
		t.Errorf("segment creation should still work: %v", err)
	}
}

func TestSegmentReadWriteResize(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	seg, err := tc.SegmentCreate(root, label.New(label.L1), "file", 8)
	if err != nil {
		t.Fatal(err)
	}
	ce := CEnt{Container: root, Object: seg}
	if err := tc.SegmentWrite(ce, 0, []byte("hello!!!")); err != nil {
		t.Fatal(err)
	}
	got, err := tc.SegmentRead(ce, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello!!!" {
		t.Errorf("read back %q", got)
	}
	// Extend by writing past the end (within slack quota).
	if err := tc.SegmentWrite(ce, 8, []byte(" world")); err != nil {
		t.Fatal(err)
	}
	n, _ := tc.SegmentLen(ce)
	if n != 14 {
		t.Errorf("len = %d, want 14", n)
	}
	if err := tc.SegmentResize(ce, 5); err != nil {
		t.Fatal(err)
	}
	n, _ = tc.SegmentLen(ce)
	if n != 5 {
		t.Errorf("after resize len = %d", n)
	}
	// Reading past the end truncates.
	got, err = tc.SegmentRead(ce, 0, 100)
	if err != nil || len(got) != 5 {
		t.Errorf("read past end: %q, %v", got, err)
	}
	// Quota bounds growth.
	if err := tc.SegmentResize(ce, 10*1024*1024); !errors.Is(err, ErrQuota) {
		t.Errorf("resize beyond quota: err=%v, want ErrQuota", err)
	}
}

func TestSegmentLabelEnforcement(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	c, _ := tc.CategoryCreate()

	// A secret segment {c3, 1} and an integrity-protected one {c0, 1},
	// created by the owner of c.
	secret, err := tc.SegmentCreate(root, label.New(label.L1, label.P(c, label.L3)), "secret", 4)
	if err != nil {
		t.Fatal(err)
	}
	protected, err := tc.SegmentCreate(root, label.New(label.L1, label.P(c, label.L0)), "protected", 4)
	if err != nil {
		t.Fatal(err)
	}

	// A second thread without ownership of c.
	tid, err := tc.ThreadCreate(root, ThreadSpec{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2),
		Descrip:   "unprivileged",
	})
	if err != nil {
		t.Fatal(err)
	}
	tc2, err := k.ThreadCall(tid)
	if err != nil {
		t.Fatal(err)
	}

	secretCE := CEnt{Container: root, Object: secret}
	protectedCE := CEnt{Container: root, Object: protected}

	// The unprivileged thread cannot read the secret.
	if _, err := tc2.SegmentRead(secretCE, 0, 4); !errors.Is(err, ErrLabel) {
		t.Errorf("read secret: err=%v, want ErrLabel", err)
	}
	// Nor learn its length, which a write can change.
	if _, err := tc2.SegmentLen(secretCE); !errors.Is(err, ErrLabel) {
		t.Errorf("length of secret: err=%v, want ErrLabel", err)
	}
	// Nor write or resize the protected segment.
	if err := tc2.SegmentWrite(protectedCE, 0, []byte("x")); !errors.Is(err, ErrLabel) {
		t.Errorf("write protected: err=%v, want ErrLabel", err)
	}
	if err := tc2.SegmentResize(protectedCE, 0); !errors.Is(err, ErrLabel) {
		t.Errorf("resize protected: err=%v, want ErrLabel", err)
	}
	// But it can read the protected segment (c0 only restricts writes).
	if _, err := tc2.SegmentRead(protectedCE, 0, 4); err != nil {
		t.Errorf("read protected: %v", err)
	}
	// The owner can do everything.
	if err := tc.SegmentWrite(secretCE, 0, []byte("ssh!")); err != nil {
		t.Errorf("owner write secret: %v", err)
	}
	if err := tc.SegmentWrite(protectedCE, 0, []byte("ok")); err != nil {
		t.Errorf("owner write protected: %v", err)
	}
	// Tainted readers can observe the secret but then cannot write untainted
	// objects — enforced via SelfSetLabel plus the modify check.
	lbl2, _ := tc2.SelfLabel()
	if err := tc2.SelfSetLabel(lbl2.With(c, label.L2)); err != nil {
		t.Fatalf("tainting to 2: %v", err)
	}
	// Level 2 is still below the secret's 3; clearance {2} blocks 3.
	if _, err := tc2.SegmentRead(secretCE, 0, 4); err == nil {
		t.Error("level-2 taint must not read a level-3 secret")
	}
}

func TestSegmentCopyAcrossLabels(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	c, _ := tc.CategoryCreate()
	src, err := tc.SegmentCreate(root, label.New(label.L1), "plain", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.SegmentWrite(CEnt{root, src}, 0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	// Copy it to a tainted label (the copy becomes secret).
	cp, err := tc.SegmentCopy(CEnt{root, src}, root, label.New(label.L1, label.P(c, label.L3)), "tainted copy")
	if err != nil {
		t.Fatal(err)
	}
	got, err := tc.SegmentRead(CEnt{root, cp}, 0, 4)
	if err != nil || string(got) != "data" {
		t.Errorf("copy contents = %q, %v", got, err)
	}
}

func TestImmutableObjects(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	seg, _ := tc.SegmentCreate(root, label.New(label.L1), "ro", 4)
	ce := CEnt{root, seg}
	if err := tc.SegmentWrite(ce, 0, []byte("once")); err != nil {
		t.Fatal(err)
	}
	if err := tc.ObjectSetImmutable(ce); err != nil {
		t.Fatal(err)
	}
	if err := tc.SegmentWrite(ce, 0, []byte("more")); !errors.Is(err, ErrImmutable) {
		t.Errorf("write to immutable: err=%v", err)
	}
	if err := tc.SegmentResize(ce, 0); !errors.Is(err, ErrImmutable) {
		t.Errorf("resize immutable: err=%v", err)
	}
	// Reads still work.
	if got, err := tc.SegmentRead(ce, 0, 4); err != nil || string(got) != "once" {
		t.Errorf("read immutable: %q %v", got, err)
	}
}

func TestObjectStatAndMetadata(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	seg, _ := tc.SegmentCreate(root, label.New(label.L1), "meta-test", 4)
	ce := CEnt{root, seg}
	st, err := tc.ObjectStat(ce)
	if err != nil {
		t.Fatal(err)
	}
	if st.Type != ObjSegment || st.Descrip != "meta-test" {
		t.Errorf("stat = %+v", st)
	}
	var md [MetadataSize]byte
	copy(md[:], "mtime=12345")
	if err := tc.ObjectSetMetadata(ce, md); err != nil {
		t.Fatal(err)
	}
	st, _ = tc.ObjectStat(ce)
	if string(st.Metadata[:11]) != "mtime=12345" {
		t.Errorf("metadata = %q", st.Metadata[:11])
	}
	// Descriptive strings are truncated to 32 bytes.
	long := "this descriptive string is much longer than thirty-two bytes"
	seg2, _ := tc.SegmentCreate(root, label.New(label.L1), long, 1)
	st2, _ := tc.ObjectStat(CEnt{root, seg2})
	if len(st2.Descrip) != DescripSize {
		t.Errorf("descrip length = %d, want %d", len(st2.Descrip), DescripSize)
	}
}

func TestUnrefAndRecursiveDealloc(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	dir, _ := tc.ContainerCreate(root, label.New(label.L1), "dir", 0, 1<<20)
	seg, _ := tc.SegmentCreate(dir, label.New(label.L1), "f", 4)
	sub, _ := tc.ContainerCreate(dir, label.New(label.L1), "sub", 0, 1<<19)
	seg2, _ := tc.SegmentCreate(sub, label.New(label.L1), "g", 4)

	before := k.ObjectCount()
	if err := tc.Unref(root, dir); err != nil {
		t.Fatal(err)
	}
	after := k.ObjectCount()
	if after != before-4 {
		t.Errorf("expected 4 objects reclaimed, got %d -> %d", before, after)
	}
	// All are gone.
	for _, id := range []ID{dir, seg, sub, seg2} {
		if _, err := k.lookup(id); !errors.Is(err, ErrNoSuchObject) {
			t.Errorf("object %v should be deallocated, err=%v", id, err)
		}
	}
	// The root container can never be unreferenced.
	if err := tc.Unref(root, root); !errors.Is(err, ErrRootContainer) {
		t.Errorf("unref root: err=%v", err)
	}
}

func TestHardLinkKeepsObjectAlive(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	dirA, _ := tc.ContainerCreate(root, label.New(label.L1), "a", 0, 1<<20)
	dirB, _ := tc.ContainerCreate(root, label.New(label.L1), "b", 0, 1<<20)
	seg, _ := tc.SegmentCreate(dirA, label.New(label.L1), "shared", 4)

	// Linking requires the fixed-quota flag.
	err := tc.Link(dirB, CEnt{dirA, seg})
	if !errors.Is(err, ErrFixedQuota) {
		t.Fatalf("link without fixed quota: err=%v", err)
	}
	if err := tc.ObjectSetFixedQuota(CEnt{dirA, seg}); err != nil {
		t.Fatal(err)
	}
	if err := tc.Link(dirB, CEnt{dirA, seg}); err != nil {
		t.Fatal(err)
	}
	// Remove from A; still reachable through B.
	if err := tc.Unref(dirA, seg); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.SegmentRead(CEnt{dirB, seg}, 0, 4); err != nil {
		t.Errorf("segment should survive via second link: %v", err)
	}
	// Remove from B; now it is deallocated.
	if err := tc.Unref(dirB, seg); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.SegmentRead(CEnt{dirB, seg}, 0, 4); err == nil {
		t.Error("segment should be gone after last unref")
	}
}

func TestQuotaEnforcement(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	small, err := tc.ContainerCreate(root, label.New(label.L1), "small", 0, 40*1024)
	if err != nil {
		t.Fatal(err)
	}
	// One segment fits.
	if _, err := tc.SegmentCreate(small, label.New(label.L1), "a", 1024); err != nil {
		t.Fatal(err)
	}
	// A second one of the same size exceeds the container's quota
	// (each segment is charged size+slack).
	if _, err := tc.SegmentCreate(small, label.New(label.L1), "b", 20*1024); !errors.Is(err, ErrQuota) {
		t.Errorf("expected quota failure, got %v", err)
	}
	// No finite container can hold an object of infinite quota, whatever
	// room it has left: a golden spawn's containers need an infinite parent.
	if _, err := tc.ContainerCreate(small, label.New(label.L1), "unbounded", 0, QuotaInfinite); !errors.Is(err, ErrQuota) {
		t.Errorf("infinite quota in a finite container: got %v, want ErrQuota", err)
	}
}

func TestQuotaMove(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	dir, _ := tc.ContainerCreate(root, label.New(label.L1), "dir", 0, 1<<20)
	seg, _ := tc.SegmentCreate(dir, label.New(label.L1), "grow", 8)
	ce := CEnt{dir, seg}

	// Growing past the initial quota fails until quota_move adds room.
	big := make([]byte, 64*1024)
	if err := tc.SegmentWrite(ce, 0, big); !errors.Is(err, ErrQuota) {
		t.Fatalf("expected quota error, got %v", err)
	}
	if err := tc.QuotaMove(dir, seg, 128*1024); err != nil {
		t.Fatal(err)
	}
	if err := tc.SegmentWrite(ce, 0, big); err != nil {
		t.Fatalf("write after quota_move: %v", err)
	}
	// Shrinking below current usage fails and reports ErrQuota.
	if err := tc.QuotaMove(dir, seg, -(128*1024 + segmentSlack)); !errors.Is(err, ErrQuota) {
		t.Errorf("shrinking below usage: err=%v", err)
	}
	// A modest shrink succeeds.
	if err := tc.QuotaMove(dir, seg, -1024); err != nil {
		t.Errorf("modest shrink: %v", err)
	}
	// quota_move on an object with the fixed-quota flag fails.
	seg2, _ := tc.SegmentCreate(dir, label.New(label.L1), "fixed", 8)
	if err := tc.ObjectSetFixedQuota(CEnt{dir, seg2}); err != nil {
		t.Fatal(err)
	}
	if err := tc.QuotaMove(dir, seg2, 4096); !errors.Is(err, ErrFixedQuota) {
		t.Errorf("quota_move on fixed-quota object: err=%v", err)
	}
}

func TestBoundsOverflowRejected(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	seg, err := tc.SegmentCreate(root, label.New(label.L1), "bounds", 16)
	if err != nil {
		t.Fatal(err)
	}
	ce := CEnt{Container: root, Object: seg}
	const maxInt = int(^uint(0) >> 1)
	// Offsets near the top of the range must fail cleanly, not wrap around
	// the bounds checks and panic.
	if err := tc.FutexWait(ce, ^uint64(0), 0); !errors.Is(err, ErrInvalid) {
		t.Errorf("FutexWait(max offset): err=%v, want ErrInvalid", err)
	}
	if _, err := tc.SegmentCompareSwap(ce, ^uint64(0), 0, 1); !errors.Is(err, ErrInvalid) {
		t.Errorf("SegmentCompareSwap(max offset): err=%v, want ErrInvalid", err)
	}
	if got, err := tc.SegmentRead(ce, 1, maxInt); err != nil || len(got) != 15 {
		t.Errorf("SegmentRead(1, maxInt) = %d bytes, %v; want 15, nil", len(got), err)
	}
	if err := tc.SegmentWrite(ce, maxInt-4, []byte("overflow")); !errors.Is(err, ErrQuota) {
		t.Errorf("SegmentWrite(maxInt-4): err=%v, want ErrQuota", err)
	}
	// The thread-local page never grows, so there the same offsets are
	// simply out of range.
	if err := tc.LocalSegmentWrite(maxInt, []byte("x")); !errors.Is(err, ErrInvalid) {
		t.Errorf("LocalSegmentWrite(maxInt): err=%v, want ErrInvalid", err)
	}
	if _, err := tc.LocalSegmentRead(maxInt, 1); !errors.Is(err, ErrInvalid) {
		t.Errorf("LocalSegmentRead(maxInt, 1): err=%v, want ErrInvalid", err)
	}
	if _, err := tc.LocalSegmentRead(1, maxInt); !errors.Is(err, ErrInvalid) {
		t.Errorf("LocalSegmentRead(1, maxInt): err=%v, want ErrInvalid", err)
	}
	// Loads and stores through mappings whose segment offset is huge: one
	// that overflows int outright, one that overflows only once the access
	// length is added.
	as, err := tc.AddressSpaceCreate(root, label.New(label.L1), "huge offsets")
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.AddressSpaceSet(CEnt{root, as}, []Mapping{
		{VA: 0x10000, Seg: ce, Offset: 1 << 63, NPages: 1, Flags: MapRead | MapWrite},
		{VA: 0x20000, Seg: ce, Offset: uint64(maxInt - 4), NPages: 1, Flags: MapRead | MapWrite},
	}); err != nil {
		t.Fatal(err)
	}
	if err := tc.SelfSetAddressSpace(CEnt{root, as}); err != nil {
		t.Fatal(err)
	}
	for _, va := range []uint64{0x10000, 0x20000} {
		if _, err := tc.MemRead(va, 8); !errors.Is(err, ErrInvalid) {
			t.Errorf("MemRead(%#x) through a huge mapping offset: err=%v, want ErrInvalid", va, err)
		}
	}
	if err := tc.MemWrite(0x10000, []byte("overflow")); !errors.Is(err, ErrInvalid) {
		t.Errorf("MemWrite through mapping offset 1<<63: err=%v, want ErrInvalid", err)
	}
	if err := tc.MemWrite(0x20000, []byte("overflow")); !errors.Is(err, ErrQuota) {
		t.Errorf("MemWrite through mapping offset maxInt-4: err=%v, want ErrQuota", err)
	}
}

func TestSyscallCounting(t *testing.T) {
	k, tc := boot(t)
	k.ResetSyscallCounts()
	root := k.RootContainer()
	if _, err := tc.SegmentCreate(root, label.New(label.L1), "x", 1); err != nil {
		t.Fatal(err)
	}
	tc.SegmentLen(CEnt{root, 0}) // error path still counts
	if k.SyscallTotal() < 2 {
		t.Errorf("expected at least 2 syscalls counted, got %d", k.SyscallTotal())
	}
	counts := k.SyscallCounts()
	if counts["segment_create"] != 1 {
		t.Errorf("segment_create count = %d", counts["segment_create"])
	}
	if tc.SyscallsIssued() < 2 {
		t.Errorf("per-thread syscall count = %d", tc.SyscallsIssued())
	}
}

// TestAdmissionSameVerdictEveryCreator puts one container in each state that
// must refuse a new link and checks that every call that links into it — the
// seven creators and Link — and Unref, which edits the same entry list, give
// the same answer.  Cells that cannot arise for a row are skipped: bootstrap
// DeviceCreate runs as no thread, and Unref adds nothing that a type mask,
// a quota or a clearance could refuse.  Link reports its Lsrc ⊑ CT rule as
// ErrClearance where the creators' allocation rule says ErrLabel.
func TestAdmissionSameVerdictEveryCreator(t *testing.T) {
	const allTypes = TypeMask(1<<numObjectTypes - 1)
	cols := []struct {
		name string
		want error
	}{
		{"immutable container", ErrImmutable},
		{"avoid-type set", ErrAvoidType},
		{"dead container", ErrNoSuchObject},
		{"quota exhausted", ErrQuota},
		{"thread cannot write the container", ErrLabel},
		{"label above clearance", ErrLabel},
	}
	type cell struct {
		k       *Kernel
		root, d ID
		l       label.Label // label for whatever the call creates
		obj     ID          // what prep made, if anything
	}
	mkSeg := func(boot *ThreadCall, c *cell, in ID) ID {
		id, err := boot.SegmentCreate(in, c.l, "existing", 8)
		if err != nil {
			t.Fatalf("prep SegmentCreate: %v", err)
		}
		if err := boot.ObjectSetFixedQuota(CEnt{in, id}); err != nil {
			t.Fatal(err)
		}
		return id
	}
	rows := []struct {
		name string
		prep func(boot *ThreadCall, c *cell) ID // as the boot thread, before the container changes state
		call func(tc *ThreadCall, c *cell) error
		skip string // space-separated column names that do not apply
		want map[string]error
	}{
		{name: "ContainerCreate", call: func(tc *ThreadCall, c *cell) error {
			_, err := tc.ContainerCreate(c.d, c.l, "new", 0, 4096)
			return err
		}},
		{name: "SegmentCreate", call: func(tc *ThreadCall, c *cell) error {
			_, err := tc.SegmentCreate(c.d, c.l, "new", 8)
			return err
		}},
		{name: "SegmentCopy",
			prep: func(boot *ThreadCall, c *cell) ID {
				id, err := boot.SegmentCreate(c.root, label.New(label.L1), "source", 8)
				if err != nil {
					t.Fatal(err)
				}
				return id
			},
			call: func(tc *ThreadCall, c *cell) error {
				_, err := tc.SegmentCopy(CEnt{c.root, c.obj}, c.d, c.l, "new")
				return err
			}},
		{name: "ThreadCreate", call: func(tc *ThreadCall, c *cell) error {
			_, err := tc.ThreadCreate(c.d, ThreadSpec{Label: c.l, Clearance: c.l.Join(label.New(label.L2)), Quota: 4096})
			return err
		}},
		{name: "GateCreate", call: func(tc *ThreadCall, c *cell) error {
			_, err := tc.GateCreate(c.d, GateSpec{Label: c.l, Clearance: label.New(label.L2),
				Entry: func(*GateCallCtx) []byte { return nil }})
			return err
		}},
		{name: "AddressSpaceCreate", call: func(tc *ThreadCall, c *cell) error {
			_, err := tc.AddressSpaceCreate(c.d, c.l, "new")
			return err
		}},
		{name: "DeviceCreate", skip: "thread cannot write the container, label above clearance",
			call: func(_ *ThreadCall, c *cell) error {
				_, err := c.k.DeviceCreate(c.d, c.l, [6]byte{2}, "new")
				return err
			}},
		{name: "Link", want: map[string]error{"label above clearance": ErrClearance},
			prep: func(boot *ThreadCall, c *cell) ID { return mkSeg(boot, c, c.root) },
			call: func(tc *ThreadCall, c *cell) error { return tc.Link(c.d, CEnt{c.root, c.obj}) }},
		{name: "Unref", skip: "avoid-type set, quota exhausted, label above clearance",
			prep: func(boot *ThreadCall, c *cell) ID { return mkSeg(boot, c, c.d) },
			call: func(tc *ThreadCall, c *cell) error { return tc.Unref(c.d, c.obj) }},
		{name: "Unref (stale link)", skip: "avoid-type set, quota exhausted, label above clearance",
			prep: func(_ *ThreadCall, c *cell) ID {
				d, err := c.k.lookupContainer(c.d)
				if err != nil {
					t.Fatal(err)
				}
				d.mu.Lock()
				d.link(ID(0xdead)) // a link whose object is already gone
				d.mu.Unlock()
				return ID(0xdead)
			},
			call: func(tc *ThreadCall, c *cell) error { return tc.Unref(c.d, c.obj) }},
	}
	for _, col := range cols {
		for _, row := range rows {
			if strings.Contains(row.skip, col.name) {
				continue
			}
			t.Run(row.name+"/"+col.name, func(t *testing.T) {
				k, boot := boot(t)
				c := &cell{k: k, root: k.RootContainer(), l: label.New(label.L1)}
				cat, err := boot.CategoryCreate()
				if err != nil {
					t.Fatal(err)
				}
				actor := boot
				dLabel, quota, avoid := label.New(label.L1), uint64(1<<22), TypeMask(0)
				switch col.name {
				case "avoid-type set":
					avoid = allTypes
				case "quota exhausted":
					quota = 1024
				case "thread cannot write the container":
					dLabel = label.New(label.L1, label.P(cat, label.L0))
					actor = spawnWorker(t, k, boot, "outsider")
				case "label above clearance":
					c.l = label.New(label.L1, label.P(cat, label.L3))
					actor = spawnWorker(t, k, boot, "outsider")
				}
				if c.d, err = boot.ContainerCreate(c.root, dLabel, "target", avoid, quota); err != nil {
					t.Fatal(err)
				}
				if row.prep != nil {
					c.obj = row.prep(boot, c)
				}
				switch col.name {
				case "immutable container":
					err = boot.ObjectSetImmutable(CEnt{c.root, c.d})
				case "dead container":
					err = boot.Unref(c.root, c.d)
				}
				if err != nil {
					t.Fatal(err)
				}
				want := col.want
				if w, ok := row.want[col.name]; ok {
					want = w
				}
				if err := row.call(actor, c); !errors.Is(err, want) {
					t.Errorf("err = %v, want %v", err, want)
				}
			})
		}
	}

	// The decision recorded on QuotaMove: an immutable container's quota
	// ledger still moves, both ways, while its entry list is frozen.
	t.Run("QuotaMove/immutable container", func(t *testing.T) {
		k, tc := boot(t)
		root := k.RootContainer()
		d, _ := tc.ContainerCreate(root, label.New(label.L1), "sealed", 0, 1<<20)
		seg, _ := tc.SegmentCreate(d, label.New(label.L1), "grows", 8)
		if err := tc.ObjectSetImmutable(CEnt{root, d}); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int64{64 << 10, -(32 << 10)} {
			if err := tc.QuotaMove(d, seg, n); err != nil {
				t.Errorf("QuotaMove(%d) in an immutable container: %v", n, err)
			}
		}
		if err := tc.SegmentWrite(CEnt{d, seg}, 0, make([]byte, 40<<10)); err != nil {
			t.Errorf("file in a sealed directory could not grow into moved quota: %v", err)
		}
	})
}
