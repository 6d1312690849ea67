package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"histar/internal/label"
)

// Snapshot/clone tests: structural fidelity and ID remapping, COW sharing
// semantics and accounting, category remap on clone, label enforcement on
// both capture and materialization, sink validation (rot refuses to clone,
// typed), sink-failure rollback, and the golden-image acceptance test (≥64 MiB
// shared, clone ≥50× faster than a from-scratch build, bytes copied ≤1% of
// bytes shared).

// buildSandbox creates a container under parent holding nSegs segments of
// segSize deterministic bytes each plus one sub-container with one more
// segment, returning the sandbox root and the segment IDs.
func buildSandbox(t testing.TB, tc *ThreadCall, parent ID, lbl label.Label, nSegs, segSize int) (ID, []ID) {
	t.Helper()
	sandbox, err := tc.ContainerCreate(parent, lbl, "sandbox", 0, QuotaInfinite)
	if err != nil {
		t.Fatalf("ContainerCreate sandbox: %v", err)
	}
	var segs []ID
	for i := 0; i < nSegs; i++ {
		sid, err := tc.SegmentCreate(sandbox, lbl, fmt.Sprintf("data %d", i), segSize)
		if err != nil {
			t.Fatalf("SegmentCreate: %v", err)
		}
		data := make([]byte, segSize)
		for j := range data {
			data[j] = byte(i + j)
		}
		if err := tc.SegmentWrite(CEnt{sandbox, sid}, 0, data); err != nil {
			t.Fatalf("SegmentWrite: %v", err)
		}
		segs = append(segs, sid)
	}
	sub, err := tc.ContainerCreate(sandbox, lbl, "subdir", 0, uint64(segSize)+128<<10)
	if err != nil {
		t.Fatalf("ContainerCreate subdir: %v", err)
	}
	sid, err := tc.SegmentCreate(sub, lbl, "nested", segSize)
	if err != nil {
		t.Fatalf("SegmentCreate nested: %v", err)
	}
	if err := tc.SegmentWrite(CEnt{sub, sid}, 0, bytes.Repeat([]byte{0xAB}, segSize)); err != nil {
		t.Fatalf("SegmentWrite nested: %v", err)
	}
	segs = append(segs, sid)
	return sandbox, segs
}

func TestSnapshotCloneBasic(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	pub := label.New(label.L1)
	sandbox, segs := buildSandbox(t, tc, root, pub, 3, 512)

	info, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "basic")
	if err != nil {
		t.Fatalf("ContainerSnapshot: %v", err)
	}
	// 2 containers + 4 segments.
	if info.Objects != 6 {
		t.Errorf("snapshot objects = %d, want 6", info.Objects)
	}
	if info.Bytes != 4*512 {
		t.Errorf("snapshot bytes = %d, want %d", info.Bytes, 4*512)
	}
	if info.Root != sandbox {
		t.Errorf("snapshot root = %v, want %v", info.Root, sandbox)
	}

	res, err := tc.ContainerClone(info.Lineage, root, nil)
	if err != nil {
		t.Fatalf("ContainerClone: %v", err)
	}
	if res.Objects != 6 {
		t.Errorf("clone objects = %d, want 6", res.Objects)
	}
	if res.SharedBytes != 4*512 {
		t.Errorf("clone shared bytes = %d, want %d", res.SharedBytes, 4*512)
	}
	if res.CopiedBytes != 0 {
		t.Errorf("clone copied bytes = %d, want 0", res.CopiedBytes)
	}
	if res.Root == sandbox {
		t.Error("clone root has the source's ID; want a fresh one")
	}
	for old, nw := range res.IDMap {
		if old == nw {
			t.Errorf("object %v cloned without a fresh ID", old)
		}
	}

	// Cloned data matches the source byte for byte.
	cseg := res.IDMap[segs[0]]
	got, err := tc.SegmentRead(CEnt{res.Root, cseg}, 0, 512)
	if err != nil {
		t.Fatalf("SegmentRead clone: %v", err)
	}
	want, _ := tc.SegmentRead(CEnt{sandbox, segs[0]}, 0, 512)
	if !bytes.Equal(got, want) {
		t.Error("clone segment contents differ from source")
	}

	// COW isolation: writing the clone must not change the source, and the
	// copy must be accounted.
	st0 := k.SnapshotStats()
	if err := tc.SegmentWrite(CEnt{res.Root, cseg}, 0, []byte("clone-write")); err != nil {
		t.Fatalf("SegmentWrite clone: %v", err)
	}
	after, _ := tc.SegmentRead(CEnt{sandbox, segs[0]}, 0, 512)
	if !bytes.Equal(after, want) {
		t.Error("write to clone mutated the source segment")
	}
	st1 := k.SnapshotStats()
	if st1.CowBreaks != st0.CowBreaks+1 {
		t.Errorf("cow breaks = %d, want %d", st1.CowBreaks, st0.CowBreaks+1)
	}
	if st1.CopiedBytes != st0.CopiedBytes+512 {
		t.Errorf("copied bytes = %d, want %d", st1.CopiedBytes, st0.CopiedBytes+512)
	}

	// And the other direction: writing the source must not change a clone.
	if err := tc.SegmentWrite(CEnt{sandbox, segs[1]}, 0, []byte("src-write")); err != nil {
		t.Fatalf("SegmentWrite source: %v", err)
	}
	cdata, _ := tc.SegmentRead(CEnt{res.Root, res.IDMap[segs[1]]}, 0, 9)
	if bytes.Equal(cdata, []byte("src-write")) {
		t.Error("write to source mutated the clone segment")
	}

	if st := k.SnapshotStats(); st.Snapshots < 1 || st.Clones < 1 || st.Registered < 1 {
		t.Errorf("stats = %+v, want >=1 snapshot/clone/registered", st)
	}
}

// TestMemWriteBreaksCOW stores through a mapping of one clone's segment: the
// store must land in that clone's private copy, never in the frozen array it
// shares with the golden master and its sibling clones.
func TestMemWriteBreaksCOW(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	sandbox, segs := buildSandbox(t, tc, root, label.New(label.L1), 1, PageSize)
	info, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "mapped")
	if err != nil {
		t.Fatalf("ContainerSnapshot: %v", err)
	}
	var clones [2]CEnt
	for i := range clones {
		res, err := tc.ContainerClone(info.Lineage, root, nil)
		if err != nil {
			t.Fatalf("ContainerClone %d: %v", i, err)
		}
		clones[i] = CEnt{res.Root, res.IDMap[segs[0]]}
	}
	golden, err := tc.SegmentRead(CEnt{sandbox, segs[0]}, 0, PageSize)
	if err != nil {
		t.Fatal(err)
	}

	as, err := tc.AddressSpaceCreate(root, label.New(label.L1), "clone A's view")
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.AddressSpaceSet(CEnt{root, as}, []Mapping{
		{VA: 0x10000, Seg: clones[0], NPages: 2, Flags: MapRead | MapWrite},
	}); err != nil {
		t.Fatal(err)
	}
	if err := tc.SelfSetAddressSpace(CEnt{root, as}); err != nil {
		t.Fatal(err)
	}

	// An in-place store, then one that grows the segment past its frozen end.
	for i, store := range []struct {
		va   uint64
		data string
	}{{0x10000 + 8, "LEAKED bytes"}, {0x10000 + PageSize - 4, "grown past the end"}} {
		before := k.SnapshotStats()
		if err := tc.MemWrite(store.va, []byte(store.data)); err != nil {
			t.Fatalf("MemWrite %d: %v", i, err)
		}
		got, err := tc.MemRead(store.va, len(store.data))
		if err != nil || string(got) != store.data {
			t.Fatalf("MemRead %d back = %q, %v", i, got, err)
		}
		for name, ce := range map[string]CEnt{"master": {sandbox, segs[0]}, "clone B": clones[1]} {
			if got, err := tc.SegmentRead(ce, 0, 2*PageSize); err != nil || !bytes.Equal(got, golden) {
				t.Errorf("store %d through clone A's mapping reached %s (%d bytes, err %v)", i, name, len(got), err)
			}
		}
		after := k.SnapshotStats()
		// Only the first store copies: it leaves clone A with a private array.
		wantBreaks, wantCopied := before.CowBreaks, before.CopiedBytes
		if i == 0 {
			wantBreaks, wantCopied = wantBreaks+1, wantCopied+PageSize
		}
		if after.CowBreaks != wantBreaks || after.CopiedBytes != wantCopied {
			t.Errorf("store %d: CowBreaks %d → %d, CopiedBytes %d → %d; want %d and %d",
				i, before.CowBreaks, after.CowBreaks, before.CopiedBytes, after.CopiedBytes, wantBreaks, wantCopied)
		}
	}

	// The growth path alone must break COW too: a fresh clone, first store
	// past the end.
	if err := tc.AddressSpaceSet(CEnt{root, as}, []Mapping{
		{VA: 0x10000, Seg: clones[1], NPages: 2, Flags: MapRead | MapWrite},
	}); err != nil {
		t.Fatal(err)
	}
	before := k.SnapshotStats()
	if err := tc.MemWrite(0x10000+PageSize, []byte("tail")); err != nil {
		t.Fatalf("growing MemWrite: %v", err)
	}
	if after := k.SnapshotStats(); after.CowBreaks != before.CowBreaks+1 || after.CopiedBytes != before.CopiedBytes+PageSize {
		t.Errorf("growing store: CowBreaks %d → %d, CopiedBytes %d → %d; want +1 and +%d",
			before.CowBreaks, after.CowBreaks, before.CopiedBytes, after.CopiedBytes, PageSize)
	}
	if err := tc.SegmentWrite(clones[1], 0, []byte("private now")); err != nil {
		t.Fatal(err)
	}
	if got, _ := tc.SegmentRead(CEnt{sandbox, segs[0]}, 0, PageSize); !bytes.Equal(got, golden) {
		t.Error("a write after the growing store reached the master: frozen flag not cleared with a private array")
	}
}

func TestSnapshotCategoryRemapAndThreadSkip(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	cOld, err := tc.CategoryCreateNamed("tmpl")
	if err != nil {
		t.Fatalf("CategoryCreate: %v", err)
	}
	cNew, err := tc.CategoryCreateNamed("user")
	if err != nil {
		t.Fatalf("CategoryCreate: %v", err)
	}
	priv := label.New(label.L1, label.P(cOld, label.L3))
	sandbox, segs := buildSandbox(t, tc, root, priv, 1, 256)

	// A thread inside the subtree must be skipped by the capture.
	if _, err := tc.ThreadCreate(sandbox, ThreadSpec{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2),
		Descrip:   "resident",
	}); err != nil {
		t.Fatalf("ThreadCreate: %v", err)
	}

	info, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "remap")
	if err != nil {
		t.Fatalf("ContainerSnapshot: %v", err)
	}
	if info.Objects != 4 { // 2 containers + 2 segments, no thread
		t.Errorf("snapshot objects = %d, want 4 (thread must be skipped)", info.Objects)
	}

	res, err := tc.ContainerClone(info.Lineage, root,
		map[label.Category]label.Category{cOld: cNew})
	if err != nil {
		t.Fatalf("ContainerClone: %v", err)
	}
	stat, err := tc.ObjectStat(CEnt{res.Root, res.IDMap[segs[0]]})
	if err != nil {
		t.Fatalf("ObjectStat: %v", err)
	}
	if got := stat.Label.Get(cNew); got != label.L3 {
		t.Errorf("clone label level(cNew) = %v, want L3", got)
	}
	if got := stat.Label.Get(cOld); got != label.L1 {
		t.Errorf("clone label level(cOld) = %v, want default L1 (remapped away)", got)
	}
}

func TestSnapshotCloneLabelEnforcement(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	c, err := tc.CategoryCreate()
	if err != nil {
		t.Fatalf("CategoryCreate: %v", err)
	}
	secret := label.New(label.L1, label.P(c, label.L3))
	sandbox, _ := buildSandbox(t, tc, root, secret, 1, 128)

	info, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "secret")
	if err != nil {
		t.Fatalf("owner ContainerSnapshot: %v", err)
	}

	// A thread without c's privilege can neither observe the subtree well
	// enough to snapshot it nor allocate objects at {c3}.
	other, err := k.BootThread(label.New(label.L1), label.New(label.L2), "outsider")
	if err != nil {
		t.Fatalf("BootThread: %v", err)
	}
	if _, err := other.ContainerSnapshot(CEnt{root, sandbox}, "steal"); !errors.Is(err, ErrLabel) {
		t.Errorf("outsider snapshot: err=%v, want ErrLabel", err)
	}
	if _, err := other.ContainerClone(info.Lineage, root, nil); !errors.Is(err, ErrLabel) {
		t.Errorf("outsider clone: err=%v, want ErrLabel", err)
	}
	if _, err := other.ContainerClone(info.Lineage+1, root, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("clone of unknown lineage: err=%v, want ErrNotFound", err)
	}
}

// TestPagerValidationAndRollback drives snapshot and clone through the fake
// pager (pager_test.go): what a snapshot holds, what a clone aliases, the
// refusal to share rotted bytes, and what a failed clone leaves behind.
func TestPagerValidationAndRollback(t *testing.T) {
	k, tc := boot(t)
	sink := newFakePager()
	k.SetPager(sink)
	root := k.RootContainer()
	sandbox, segs := buildSandbox(t, tc, root, label.New(label.L1), 2, 128)

	info, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "sinked")
	if err != nil {
		t.Fatalf("ContainerSnapshot: %v", err)
	}
	// The snapshot's hold: one checkpoint, then an alias of each master
	// segment under an id that is no kernel object's.
	if len(sink.aliasSrcs) != 3 || sink.puts != 3 || sink.checkpoints != 1 {
		t.Fatalf("the snapshot took %d aliases after %d pushes and %d checkpoints, want 3, 3 and 1", len(sink.aliasSrcs), sink.puts, sink.checkpoints)
	}
	master := map[uint64]bool{}
	for _, id := range segs {
		master[uint64(id)] = true
	}
	for _, src := range sink.aliasSrcs {
		if !master[src] {
			t.Errorf("the snapshot aliased %d, not one of the master's segments %v", src, segs)
		}
	}
	if len(sink.data) != 6 {
		t.Errorf("the pager holds %d objects, want the master's 3 and the snapshot's 3", len(sink.data))
	}

	res, err := tc.ContainerClone(info.Lineage, root, nil)
	if err != nil {
		t.Fatalf("clone with healthy pager: %v", err)
	}
	// A clone aliases the snapshot's objects, never the master's: the master
	// may have been rewritten since.
	if len(sink.aliasSrcs) != 6 {
		t.Fatalf("%d aliases after the clone, want 6", len(sink.aliasSrcs))
	}
	for _, src := range sink.aliasSrcs[3:] {
		if master[src] {
			t.Errorf("the clone aliased the master's segment %d", src)
		}
	}
	for _, id := range segs {
		if _, ok := sink.data[uint64(res.IDMap[id])]; !ok {
			t.Errorf("the clone of segment %d has no store object under its id %d", id, res.IDMap[id])
		}
	}

	// Rotted bytes must refuse to clone with a typed error — never silently
	// shared — and nothing is published or left in the store.
	before, held := len(tc.mustList(t, root)), len(sink.data)
	sink.aliasErr = errors.New("extent crc mismatch")
	if _, err := tc.ContainerClone(info.Lineage, root, nil); !errors.Is(err, ErrCorrupt) || !errors.Is(err, sink.aliasErr) {
		t.Errorf("clone of rotted bytes: err=%v, want ErrCorrupt wrapping the pager's error", err)
	}
	// A failure part way deletes the aliases already made.
	sink.aliasOK = 2
	gone := len(sink.gone)
	if _, err := tc.ContainerClone(info.Lineage, root, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("clone failing at its third alias: %v", err)
	}
	if after := len(tc.mustList(t, root)); after != before || len(sink.data) != held {
		t.Errorf("after two failed clones root has %d entries and the pager %d objects, want %d and %d", after, len(sink.data), before, held)
	}
	if len(sink.gone)-gone != 3 {
		t.Errorf("the failed clone deleted %d store objects, want the 3 it asked for", len(sink.gone)-gone)
	}
	sink.aliasErr = nil

	// So does a publish that fails after every alias was made.
	tiny, err := tc.ContainerCreate(root, label.New(label.L1), "tiny", 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	aliases := len(sink.aliasSrcs)
	if _, err := tc.ContainerClone(info.Lineage, tiny, nil); !errors.Is(err, ErrQuota) {
		t.Fatalf("clone into a container too small for it: %v, want ErrQuota", err)
	}
	if len(sink.aliasSrcs) != aliases+3 || len(sink.data) != held {
		t.Errorf("the unpublished clone made %d aliases and left %d objects, want 3 and %d", len(sink.aliasSrcs)-aliases, len(sink.data), held)
	}

	// The master's segments became persistent at capture, so their store
	// objects die with them like anyone else's; an unchanged recapture pushes
	// and aliases nothing more.
	aliases = len(sink.aliasSrcs)
	if _, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "sinked"); err != nil || sink.puts != 3 || len(sink.aliasSrcs) != aliases {
		t.Errorf("recapture: %v, %d pushes and %d aliases in all, want 3 and %d", err, sink.puts, len(sink.aliasSrcs), aliases)
	}
	if err := tc.Unref(root, sandbox); err != nil {
		t.Fatal(err)
	}
	if len(sink.data) != held-3 {
		t.Errorf("the pager holds %d objects once the master is gone, want %d", len(sink.data), held-3)
	}
	// The snapshot's hold outlives the master and goes with the snapshot.
	if err := k.DropSnapshot(info.Lineage); err != nil {
		t.Fatal(err)
	}
	if len(sink.data) != held-6 {
		t.Errorf("the pager holds %d objects once the snapshot is dropped, want the live clone's %d", len(sink.data), held-6)
	}
}

// TestCloneAliasesBeforeItPublishes: while the pager is being asked for a
// clone's aliases nobody can reach the clone.  Published first, a thread
// listing dst could write a cloned segment and sync it, and the alias, arriving
// late at an id that now holds an object, would tear down a sandbox in use.
func TestCloneAliasesBeforeItPublishes(t *testing.T) {
	k, tc := boot(t)
	sink := newFakePager()
	k.SetPager(sink)
	root := k.RootContainer()
	sandbox, _ := buildSandbox(t, tc, root, label.New(label.L1), 2, 128)
	info, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "ordered")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := tc.ContainerCreate(root, label.New(label.L1), "dst", 0, QuotaInfinite)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	sink.onAlias = func() {
		calls++
		if ents := tc.mustList(t, dst); len(ents) != 0 {
			t.Errorf("alias %d: dst already lists %v", calls, ents)
		}
	}
	res, err := tc.ContainerClone(info.Lineage, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ents := tc.mustList(t, dst); calls != 3 || len(ents) != 1 || ents[0] != res.Root {
		t.Errorf("%d aliases, dst lists %v; want 3 and the clone root %d", calls, ents, res.Root)
	}
}

// TestSnapshotHoldFailuresAndRaces: a capture that cannot finish its hold
// leaves no alias behind, and identical captures racing each other leave one
// snapshot holding one set.
func TestSnapshotHoldFailuresAndRaces(t *testing.T) {
	k, tc := boot(t)
	sink := newFakePager()
	k.SetPager(sink)
	root := k.RootContainer()
	sandbox, _ := buildSandbox(t, tc, root, label.New(label.L1), 2, 128)

	// The store refuses the second alias (a writer dirtied the segment after
	// the checkpoint, say): no snapshot, and the first alias is deleted.
	sink.aliasErr, sink.aliasOK = errors.New("object has uncommitted state"), 1
	if _, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "raced"); !errors.Is(err, sink.aliasErr) {
		t.Fatalf("capture whose hold fails: %v", err)
	}
	if st := k.SnapshotStats(); st.Registered != 0 || len(sink.data) != 3 {
		t.Fatalf("%d snapshots registered, %d store objects; want 0 and the master's 3", st.Registered, len(sink.data))
	}
	sink.aliasErr = nil
	// A capture refused for its label never reaches the pager.
	other, err := k.BootThread(label.New(label.L1), label.New(label.L2), "outsider")
	if err != nil {
		t.Fatal(err)
	}
	c, err := tc.CategoryCreate()
	if err != nil {
		t.Fatal(err)
	}
	secret, _ := buildSandbox(t, tc, root, label.New(label.L1, label.P(c, label.L3)), 1, 64)
	aliases := len(sink.aliasSrcs)
	if _, err := other.ContainerSnapshot(CEnt{root, secret}, "steal"); !errors.Is(err, ErrLabel) || len(sink.aliasSrcs) != aliases {
		t.Fatalf("outsider capture: %v, %d aliases", err, len(sink.aliasSrcs)-aliases)
	}

	const racers = 6
	objects := len(sink.data)
	var wg sync.WaitGroup
	lineages := make([]uint64, racers)
	for i := range lineages {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "raced")
			if err != nil {
				t.Errorf("racer %d: %v", i, err)
			}
			lineages[i] = info.Lineage
		}(i)
	}
	wg.Wait()
	for _, l := range lineages {
		if l != lineages[0] {
			t.Fatalf("racing identical captures disagree on the lineage: %#x", lineages)
		}
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if st := k.SnapshotStats(); st.Registered != 1 || len(sink.data) != objects+3 {
		t.Errorf("%d snapshots hold %d store objects, want 1 holding 3", st.Registered, len(sink.data)-objects)
	}
}

// mustList returns the container's entries via ContainerList.
func (tc *ThreadCall) mustList(t *testing.T, ct ID) []ID {
	t.Helper()
	ents, err := tc.ContainerList(Self(ct))
	if err != nil {
		t.Fatalf("ContainerList: %v", err)
	}
	return ents
}

// TestGoldenImageAcceptance is the issue's acceptance criterion: cloning a
// sandbox with >= 64 MiB of read-only shared data must be O(metadata) —
// at least 50x faster than building the sandbox from scratch — and must
// copy at most 1% of the bytes it shares.
func TestGoldenImageAcceptance(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	pub := label.New(label.L1)

	const (
		segSize  = 8 << 20
		nSegs    = 8 // 64 MiB total
		imgBytes = segSize * nSegs
	)
	build := func() (ID, time.Duration) {
		start := time.Now()
		sandbox, err := tc.ContainerCreate(root, pub, "golden", 0, QuotaInfinite)
		if err != nil {
			t.Fatalf("ContainerCreate: %v", err)
		}
		data := make([]byte, segSize)
		for i := 0; i < nSegs; i++ {
			for j := range data {
				data[j] = byte(i + j)
			}
			sid, err := tc.SegmentCreate(sandbox, pub, fmt.Sprintf("blob %d", i), segSize)
			if err != nil {
				t.Fatalf("SegmentCreate: %v", err)
			}
			if err := tc.SegmentWrite(CEnt{sandbox, sid}, 0, data); err != nil {
				t.Fatalf("SegmentWrite: %v", err)
			}
		}
		return sandbox, time.Since(start)
	}

	// From-scratch baseline: build the sandbox twice, keep the faster run.
	_, scratch1 := build()
	golden, scratch2 := build()
	scratch := scratch1
	if scratch2 < scratch {
		scratch = scratch2
	}

	info, err := tc.ContainerSnapshot(CEnt{root, golden}, "acceptance")
	if err != nil {
		t.Fatalf("ContainerSnapshot: %v", err)
	}
	if info.Bytes < 64<<20 {
		t.Fatalf("golden image holds %d bytes, want >= 64 MiB", info.Bytes)
	}

	// Golden spawn: clone a few times, keep the fastest (the comparison is
	// about the mechanism's cost, not scheduler noise).
	var clone time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		res, err := tc.ContainerClone(info.Lineage, root, nil)
		d := time.Since(start)
		if err != nil {
			t.Fatalf("ContainerClone: %v", err)
		}
		if res.SharedBytes != imgBytes {
			t.Fatalf("clone shared %d bytes, want %d", res.SharedBytes, imgBytes)
		}
		if i == 0 || d < clone {
			clone = d
		}
	}

	if clone*50 > scratch {
		t.Errorf("golden clone took %v vs scratch build %v; want >= 50x speedup (got %.1fx)",
			clone, scratch, float64(scratch)/float64(clone))
	}

	st := k.SnapshotStats()
	if st.SharedBytes == 0 {
		t.Fatal("no bytes recorded as shared")
	}
	if st.CopiedBytes*100 > st.SharedBytes {
		t.Errorf("copied %d bytes vs %d shared; want <= 1%%", st.CopiedBytes, st.SharedBytes)
	}
	t.Logf("scratch build %v, golden clone %v (%.0fx), shared %d MiB, copied %d B",
		scratch, clone, float64(scratch)/float64(clone), st.SharedBytes>>20, st.CopiedBytes)
}

func TestSnapshotIdempotentRecapture(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	sandbox, _ := buildSandbox(t, tc, root, label.New(label.L1), 1, 64)
	a, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "same")
	if err != nil {
		t.Fatalf("snapshot 1: %v", err)
	}
	b, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "same")
	if err != nil {
		t.Fatalf("snapshot 2: %v", err)
	}
	if a.Lineage != b.Lineage {
		t.Errorf("re-capture changed lineage: %#x vs %#x", a.Lineage, b.Lineage)
	}
	if st := k.SnapshotStats(); st.Registered != 1 {
		t.Errorf("registered = %d, want 1 (idempotent re-capture)", st.Registered)
	}
	if err := k.DropSnapshot(a.Lineage); err != nil {
		t.Fatalf("DropSnapshot: %v", err)
	}
	if err := k.DropSnapshot(a.Lineage); !errors.Is(err, ErrNotFound) {
		t.Errorf("double drop: err=%v, want ErrNotFound", err)
	}
}

// TestSnapshotRecaptureSeesRewrite: a write that leaves every length as it was
// is still a different snapshot, and a clone of the recapture reads the new
// bytes, not the first capture's.
func TestSnapshotRecaptureSeesRewrite(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	sandbox, segs := buildSandbox(t, tc, root, label.New(label.L1), 1, 64)
	a, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "same")
	if err != nil {
		t.Fatalf("snapshot 1: %v", err)
	}
	rewrite := bytes.Repeat([]byte{0x5a}, 64)
	if err := tc.SegmentWrite(CEnt{sandbox, segs[0]}, 0, rewrite); err != nil {
		t.Fatal(err)
	}
	b, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "same")
	if err != nil {
		t.Fatalf("snapshot 2: %v", err)
	}
	if a.Lineage == b.Lineage {
		t.Errorf("a same-length rewrite kept the lineage %#x", a.Lineage)
	}
	if st := k.SnapshotStats(); st.Registered != 2 {
		t.Errorf("registered = %d, want 2", st.Registered)
	}
	res, err := tc.ContainerClone(b.Lineage, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tc.SegmentRead(CEnt{res.IDMap[sandbox], res.IDMap[segs[0]]}, 0, 64)
	if err != nil || !bytes.Equal(got, rewrite) {
		t.Errorf("clone of the recapture reads % x, %v; want the rewritten bytes", got[:4], err)
	}
}

// TestSnapshotCloneConcurrentStress is the -race target: concurrent golden
// spawns, COW-breaking writers on earlier clones, and fresh snapshots all
// racing.  Every clone must come out byte-exact against the frozen image no
// matter what the writers do to their own private copies.
func TestSnapshotCloneConcurrentStress(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	const (
		nSegs    = 3
		segSize  = 2048
		nWorkers = 8
		nRounds  = 6
	)
	sandbox, _ := buildSandbox(t, tc, root, label.New(label.L1), nSegs, segSize)
	info, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "stress")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	wantSeg := func(i int) []byte {
		data := make([]byte, segSize)
		for j := range data {
			data[j] = byte(i + j)
		}
		return data
	}

	var wg sync.WaitGroup
	errCh := make(chan error, nWorkers*nRounds)
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < nRounds; round++ {
				dest, err := tc.ContainerCreate(root, label.New(label.L1),
					fmt.Sprintf("stress dest %d-%d", w, round), 0, QuotaInfinite)
				if err != nil {
					errCh <- err
					return
				}
				res, err := tc.ContainerClone(info.Lineage, dest, nil)
				if err != nil {
					errCh <- err
					return
				}
				// Verify every cloned segment against the frozen content,
				// then scribble on one (a COW break racing other clones).
				kids, err := tc.ContainerList(Self(res.Root))
				if err != nil {
					errCh <- err
					return
				}
				seg := 0
				for _, kid := range kids {
					st, err := tc.ObjectStat(CEnt{res.Root, kid})
					if err != nil || st.Type != ObjSegment {
						continue
					}
					got, err := tc.SegmentRead(CEnt{res.Root, kid}, 0, segSize)
					if err != nil {
						errCh <- err
						return
					}
					if !bytes.Equal(got, wantSeg(seg)) {
						errCh <- fmt.Errorf("worker %d round %d: clone segment %d diverged", w, round, seg)
						return
					}
					if seg == w%nSegs {
						if err := tc.SegmentWrite(CEnt{res.Root, kid}, 0,
							bytes.Repeat([]byte{byte(w)}, 64)); err != nil {
							errCh <- err
							return
						}
					}
					seg++
				}
				// Concurrent re-capture of the (immutable) master image.
				if _, err := tc.ContainerSnapshot(CEnt{root, sandbox},
					fmt.Sprintf("stress-re-%d-%d", w, round)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := k.SnapshotStats()
	if st.Clones != nWorkers*nRounds {
		t.Errorf("clones = %d, want %d", st.Clones, nWorkers*nRounds)
	}
	if st.CowBreaks == 0 || st.CopiedBytes == 0 {
		t.Errorf("stress produced no COW breaks (breaks=%d copied=%d)", st.CowBreaks, st.CopiedBytes)
	}
	// The master image itself must still be pristine.
	for i, id := range func() []ID {
		kids, _ := tc.ContainerList(Self(sandbox))
		var segs []ID
		for _, kid := range kids {
			if s, err := tc.ObjectStat(CEnt{sandbox, kid}); err == nil && s.Type == ObjSegment {
				segs = append(segs, kid)
			}
		}
		return segs
	}() {
		got, err := tc.SegmentRead(CEnt{sandbox, id}, 0, segSize)
		if err != nil || !bytes.Equal(got, wantSeg(i)) {
			t.Fatalf("master segment %d damaged by clone writers: %v", i, err)
		}
	}
}
