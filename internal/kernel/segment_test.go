package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"histar/internal/label"
)

// Segment growth: a private array grows by appending zeros, reusing the
// capacity a truncation left behind; a frozen one still moves to a fresh
// array and is counted as a copy-on-write break.

// TestSegmentGrowZeroesRegrownBytes: after a truncation, the bytes beyond the
// new end stay in the array's capacity.  Growing back over them — by resize,
// or by a write past the end that leaves a gap — must read zeros there through
// every path to the bytes: a direct read, a ring read and a mapped load.
func TestSegmentGrowZeroesRegrownBytes(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	lbl := label.New(label.L1)
	id, err := tc.SegmentCreate(root, lbl, "regrow", 0)
	if err != nil {
		t.Fatal(err)
	}
	ce := CEnt{root, id}
	as, err := tc.AddressSpaceCreate(root, lbl, "view")
	if err != nil {
		t.Fatal(err)
	}
	const va = 0x10000
	if err := tc.AddressSpaceSet(CEnt{root, as}, []Mapping{{VA: va, Seg: ce, NPages: 1, Flags: MapRead}}); err != nil {
		t.Fatal(err)
	}
	if err := tc.SelfSetAddressSpace(CEnt{root, as}); err != nil {
		t.Fatal(err)
	}
	const keep = 100
	for _, grow := range []struct {
		name string
		do   func() error
	}{
		{"resize", func() error { return tc.SegmentResize(ce, PageSize) }},
		{"write past the end", func() error { return tc.SegmentWrite(ce, PageSize-1, []byte{0}) }},
	} {
		if err := tc.SegmentWrite(ce, 0, bytes.Repeat([]byte{0xEE}, PageSize)); err != nil {
			t.Fatal(err)
		}
		if err := tc.SegmentResize(ce, keep); err != nil {
			t.Fatal(err)
		}
		seg, err := lookupAs[*segment](k, id)
		if err != nil {
			t.Fatal(err)
		}
		if c := cap(seg.data); c < PageSize {
			t.Fatalf("%s: the truncated array kept capacity %d; the test needs %d", grow.name, c, PageSize)
		}
		if err := grow.do(); err != nil {
			t.Fatalf("%s: %v", grow.name, err)
		}
		want := append(bytes.Repeat([]byte{0xEE}, keep), make([]byte, PageSize-keep)...)
		direct, err := tc.SegmentRead(ce, 0, PageSize)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := tc.MemRead(va, PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for path, got := range map[string][]byte{"SegmentRead": direct, "mapped load": mapped} {
			if !bytes.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Errorf("%s, then %s: %d bytes, first difference at byte %d; want %d old bytes and zeros", grow.name, path, len(got), i, keep)
			}
		}
	}
}

// TestSegmentGrowFrozenCopiesAsBefore: growing a segment a copy shares —
// after a truncation too, which leaves the shared bytes in the array's
// capacity, where appending would overwrite them — moves it to a fresh array,
// counts one break and the bytes it held, and leaves the copy's bytes as
// they were; the now private array then grows without counting.
func TestSegmentGrowFrozenCopiesAsBefore(t *testing.T) {
	for _, truncate := range []bool{false, true} {
		k, tc := boot(t)
		root := k.RootContainer()
		lbl := label.New(label.L1)
		id, err := tc.SegmentCreate(root, lbl, "master", 0)
		if err != nil {
			t.Fatal(err)
		}
		ce := CEnt{root, id}
		golden := bytes.Repeat([]byte("golden.."), 64)
		if err := tc.SegmentWrite(ce, 0, golden); err != nil {
			t.Fatal(err)
		}
		cp, err := tc.SegmentCopy(ce, root, lbl, "frozen")
		if err != nil {
			t.Fatal(err)
		}
		held := len(golden)
		if truncate {
			held = 16
			before := k.SnapshotStats()
			if err := tc.SegmentResize(ce, held); err != nil {
				t.Fatal(err)
			}
			if after := k.SnapshotStats(); after.CowBreaks != before.CowBreaks || after.CopiedBytes != before.CopiedBytes {
				t.Errorf("truncating a frozen segment copied: %+v → %+v", before, after)
			}
		}
		// A resize changes no byte below the old end: only the growth itself
		// can break copy-on-write here.
		before := k.SnapshotStats()
		if err := tc.SegmentResize(ce, held+5); err != nil {
			t.Fatal(err)
		}
		after := k.SnapshotStats()
		if after.CowBreaks != before.CowBreaks+1 || after.CopiedBytes != before.CopiedBytes+uint64(held) {
			t.Errorf("truncated %v: growth moved CowBreaks %d → %d and CopiedBytes %d → %d; want +1 and +%d",
				truncate, before.CowBreaks, after.CowBreaks, before.CopiedBytes, after.CopiedBytes, held)
		}
		if err := tc.SegmentWrite(ce, held+5, bytes.Repeat([]byte("more"), 64)); err != nil {
			t.Fatal(err)
		}
		if again := k.SnapshotStats(); again != after {
			t.Errorf("truncated %v: growing the private array counted %+v → %+v", truncate, after, again)
		}
		if got, err := tc.SegmentRead(CEnt{root, cp}, 0, 2*len(golden)); err != nil || !bytes.Equal(got, golden) {
			t.Errorf("truncated %v: the copy reads %q, %v; want the bytes copied", truncate, got, err)
		}
	}
}

// TestSegmentGrowUsageAndQuota: a segment's usage is its length plus 128
// whatever capacity its array has, and the quota refuses the same growth
// before and after a truncation left spare capacity.
func TestSegmentGrowUsageAndQuota(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	id, err := tc.SegmentCreate(root, label.New(label.L1), "quota", 0)
	if err != nil {
		t.Fatal(err)
	}
	ce := CEnt{root, id}
	usage := func(want int) {
		t.Helper()
		st, err := tc.ObjectStat(ce)
		if err != nil {
			t.Fatal(err)
		}
		if st.Usage != uint64(want)+128 {
			t.Errorf("usage at length %d = %d, want %d", want, st.Usage, want+128)
		}
	}
	limit := segmentSlack - 128 // the longest the initial quota covers
	for _, step := range []struct {
		n   int
		err error
	}{
		{8192, nil}, {limit, nil}, {limit + 1, ErrQuota}, {0, nil}, {4096, nil}, {limit + 1, ErrQuota}, {limit, nil},
	} {
		cur, err := tc.SegmentLen(ce)
		if err != nil {
			t.Fatal(err)
		}
		var got error
		if step.n > cur {
			got = tc.SegmentWrite(ce, cur, make([]byte, step.n-cur))
		} else {
			got = tc.SegmentResize(ce, step.n)
		}
		if !errors.Is(got, step.err) {
			t.Fatalf("length %d → %d: %v, want %v", cur, step.n, got, step.err)
		}
		if step.err != nil {
			step.n = cur
		}
		usage(step.n)
	}
}

// TestSegmentGrowAmortized: 256 appends of 8 KiB allocate a few times the
// final 2 MiB in all, not the 257 MiB of a fresh array per append.
func TestSegmentGrowAmortized(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	id, err := tc.SegmentCreate(root, label.New(label.L1), "append", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.QuotaMove(root, id, 2<<20); err != nil {
		t.Fatal(err)
	}
	ce := CEnt{root, id}
	chunk := bytes.Repeat([]byte("a"), 8192)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 256; i++ {
		if err := tc.SegmentWrite(ce, i*len(chunk), chunk); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
		t.Errorf("256 appends of 8 KiB allocated %d MiB, want under 16", got>>20)
	}
}

// TestFreshSegmentsNeverAlias: fresh segments and thread-local segments all
// start as frozen shares of one zero array.  Writing one of them through each
// path to segment bytes — a direct write, a ring write, a mapped store,
// compare-and-swap, a thread-local write, growth and shrinkage by resize, a
// write to a segment's copy, and a write after persist, Sync, Evict and
// page-in — must change that segment alone: every other fresh segment, every
// untouched thread-local segment and a segment created afterwards still read
// all zeros, and so does the array itself.
func TestFreshSegmentsNeverAlias(t *testing.T) {
	k, tc := boot(t)
	k.SetPager(newFakePager())
	root := k.RootContainer()
	lbl := label.New(label.L1)
	sizes := []int{1, 8, 100, PageSize, 2 * PageSize, len(zeros)}
	var fresh []CEnt
	var lens []int
	newSeg := func(ct ID, n int) CEnt {
		t.Helper()
		id, err := tc.SegmentCreate(ct, lbl, "fresh", n)
		if err != nil {
			t.Fatal(err)
		}
		return CEnt{ct, id}
	}
	for i := 0; i < 40; i++ {
		fresh, lens = append(fresh, newSeg(root, sizes[i%len(sizes)])), append(lens, sizes[i%len(sizes)])
	}
	var threads []*ThreadCall
	for i := 0; i < 4; i++ {
		tid, err := tc.ThreadCreate(root, ThreadSpec{Label: lbl, Clearance: label.New(label.L2), Descrip: "fresh"})
		if err != nil {
			t.Fatal(err)
		}
		th, err := k.ThreadCall(tid)
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
	}
	ones := bytes.Repeat([]byte{0xFF}, 64)
	// take hands out an untouched fresh segment of n bytes, which the caller
	// then writes, and forgets it.
	take := func(n int) CEnt {
		t.Helper()
		for i, ce := range fresh {
			if lens[i] == n {
				fresh, lens = append(fresh[:i], fresh[i+1:]...), append(lens[:i], lens[i+1:]...)
				return ce
			}
		}
		t.Fatalf("no fresh segment of %d bytes left", n)
		return CEnt{}
	}
	allZero := func(b []byte) bool { return bytes.Count(b, []byte{0}) == len(b) }
	checkZeros := func(after string) {
		t.Helper()
		if !allZero(zeros[:]) {
			t.Fatalf("after %s: the shared zero array was written", after)
		}
		for i, ce := range fresh {
			if got, err := tc.SegmentRead(ce, 0, len(zeros)); err != nil || len(got) != lens[i] || !allZero(got) {
				t.Fatalf("after %s: untouched segment %v reads %d bytes (%v), not %d zeros", after, ce.Object, len(got), err, lens[i])
			}
		}
		for _, th := range threads {
			if got, err := th.LocalSegmentRead(0, localSegmentSize); err != nil || !allZero(got) {
				t.Fatalf("after %s: an untouched thread-local segment reads non-zero bytes (%v)", after, err)
			}
		}
		ce := newSeg(root, len(zeros))
		if got, err := tc.SegmentRead(ce, 0, len(zeros)); err != nil || len(got) != len(zeros) || !allZero(got) {
			t.Fatalf("after %s: a new segment reads non-zero bytes (%v)", after, err)
		}
	}
	// wrote checks that ce holds ones at off and zeros everywhere else.
	wrote := func(how string, ce CEnt, off, n int) {
		t.Helper()
		got, err := tc.SegmentRead(ce, 0, 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		want := make([]byte, max(n, off+len(ones)))
		copy(want[off:], ones)
		want = want[:n]
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the written segment reads %d bytes, not its write", how, len(got))
		}
		checkZeros(how)
	}

	ce := take(PageSize)
	if err := tc.SegmentWrite(ce, 8, ones); err != nil {
		t.Fatal(err)
	}
	wrote("a direct write", ce, 8, PageSize)

	ce = take(2 * PageSize)
	as, err := tc.AddressSpaceCreate(root, lbl, "view")
	if err != nil {
		t.Fatal(err)
	}
	const va = 0x10000
	if err := tc.AddressSpaceSet(CEnt{root, as}, []Mapping{{VA: va, Seg: ce, NPages: 2, Flags: MapRead | MapWrite}}); err != nil {
		t.Fatal(err)
	}
	if err := tc.SelfSetAddressSpace(CEnt{root, as}); err != nil {
		t.Fatal(err)
	}
	if err := tc.MemWrite(va+PageSize, ones); err != nil {
		t.Fatal(err)
	}
	wrote("a mapped store", ce, PageSize, 2*PageSize)

	ce = take(8)
	if ok, err := tc.SegmentCompareSwap(ce, 0, 0, math.MaxUint64); !ok || err != nil {
		t.Fatalf("compare-and-swap on a fresh segment: %v, %v", ok, err)
	}
	wrote("a compare-and-swap", ce, 0, 8)

	th := threads[0]
	threads = threads[1:]
	if err := th.LocalSegmentWrite(32, ones); err != nil {
		t.Fatal(err)
	}
	if got, err := th.LocalSegmentRead(32, len(ones)); err != nil || !bytes.Equal(got, ones) {
		t.Fatalf("thread-local write reads back %x, %v", got, err)
	}
	checkZeros("a thread-local write")

	ce = take(PageSize)
	if err := tc.SegmentResize(ce, PageSize+100); err != nil {
		t.Fatal(err)
	}
	checkZeros("growth by resize")
	if err := tc.SegmentWrite(ce, PageSize, ones); err != nil {
		t.Fatal(err)
	}
	wrote("a write after growth by resize", ce, PageSize, PageSize+100)

	ce = take(PageSize)
	if err := tc.SegmentResize(ce, 100); err != nil {
		t.Fatal(err)
	}
	checkZeros("shrinkage by resize")
	if err := tc.SegmentWrite(ce, 0, ones); err != nil {
		t.Fatal(err)
	}
	wrote("a write after shrinkage by resize", ce, 0, 100)

	master := newSeg(root, PageSize)
	fresh, lens = append(fresh, master), append(lens, PageSize)
	cp, err := tc.SegmentCopy(master, root, lbl, "copy of fresh")
	if err != nil {
		t.Fatal(err)
	}
	ce = CEnt{root, cp}
	if err := tc.SegmentWrite(ce, 0, ones); err != nil {
		t.Fatal(err)
	}
	wrote("a write to a segment's copy", ce, 0, PageSize)

	ce = take(PageSize)
	if err := tc.SegmentPersist(ce); err != nil {
		t.Fatal(err)
	}
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	k.Evict()
	checkZeros("persist, Sync, Evict and page-in")
	if err := tc.SegmentWrite(ce, 0, ones); err != nil {
		t.Fatal(err)
	}
	wrote("a write after page-in", ce, 0, PageSize)
}

// Segment copies.  A copy shares its source's array, frozen, until either
// side's first write; the SnapshotStats ledger calls such a copy a clone.
// copyTree is the kernel half of a golden spawn (unixlib.SpawnFromGolden):
// containers re-created, each segment copied at its own label.

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
		if err := tc.SegmentWrite(CEnt{sandbox, sid}, 0, seqBytes(i, segSize)); err != nil {
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
	return sandbox, append(segs, sid)
}

// seqBytes is buildSandbox's content for its segment i.
func seqBytes(i, n int) []byte {
	data := make([]byte, n)
	for j := range data {
		data[j] = byte(i + j)
	}
	return data
}

// mustList returns the container's entries via ContainerList.
func (tc *ThreadCall) mustList(t testing.TB, ct ID) []ID {
	t.Helper()
	ents, err := tc.ContainerList(Self(ct))
	if err != nil {
		t.Fatalf("ContainerList: %v", err)
	}
	return ents
}

// copyTree re-creates the container src (linked in parent) under dst, with
// every container below it, and copies each segment into its container's
// copy at its own label.  It returns the new root and each source ID's copy.
func copyTree(t testing.TB, tc *ThreadCall, parent, src, dst ID) (ID, map[ID]ID) {
	t.Helper()
	ids := make(map[ID]ID)
	var walk func(parent, src, dst ID) ID
	walk = func(parent, src, dst ID) ID {
		st, err := tc.ObjectStat(CEnt{parent, src})
		if err != nil {
			t.Fatalf("ObjectStat: %v", err)
		}
		root, err := tc.ContainerCreate(dst, st.Label, st.Descrip, 0, QuotaInfinite)
		if err != nil {
			t.Fatalf("ContainerCreate: %v", err)
		}
		ids[src] = root
		for _, kid := range tc.mustList(t, src) {
			ks, err := tc.ObjectStat(CEnt{src, kid})
			if err != nil {
				t.Fatalf("ObjectStat: %v", err)
			}
			switch ks.Type {
			case ObjContainer:
				walk(src, kid, root)
			case ObjSegment:
				if ids[kid], err = tc.SegmentCopy(CEnt{src, kid}, root, ks.Label, ks.Descrip); err != nil {
					t.Fatalf("SegmentCopy: %v", err)
				}
			}
		}
		return root
	}
	return walk(parent, src, dst), ids
}

// TestSnapshotCloneBasic: a tree of copies reads what its source holds, the
// ledger counts each segment copy and its bytes as shared, and writes to a
// copy and to a source stay on their own side, each counted as one break.
func TestSnapshotCloneBasic(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	sandbox, segs := buildSandbox(t, tc, root, label.New(label.L1), 3, 512)

	st0 := k.SnapshotStats()
	croot, ids := copyTree(t, tc, root, sandbox, root)
	st1 := k.SnapshotStats()
	if len(ids) != 6 || croot == sandbox {
		t.Errorf("copied %d objects under root %v; want 6 under a fresh id", len(ids), croot)
	}
	if st1.Clones != st0.Clones+4 || st1.SharedBytes != st0.SharedBytes+4*512 || st1.CopiedBytes != st0.CopiedBytes {
		t.Errorf("ledger %+v → %+v; want 4 clones sharing %d bytes and nothing copied", st0, st1, 4*512)
	}
	for _, id := range segs {
		if ids[id] == id {
			t.Errorf("segment %v copied without a fresh ID", id)
		}
	}

	copy0 := CEnt{croot, ids[segs[0]]}
	got, err := tc.SegmentRead(copy0, 0, 512)
	if err != nil || !bytes.Equal(got, seqBytes(0, 512)) {
		t.Fatalf("copy reads %d bytes, %v; want the source's", len(got), err)
	}
	if err := tc.SegmentWrite(copy0, 0, []byte("copy-write")); err != nil {
		t.Fatalf("SegmentWrite copy: %v", err)
	}
	if after, _ := tc.SegmentRead(CEnt{sandbox, segs[0]}, 0, 512); !bytes.Equal(after, seqBytes(0, 512)) {
		t.Error("a write to the copy reached the source")
	}
	if st := k.SnapshotStats(); st.CowBreaks != st1.CowBreaks+1 || st.CopiedBytes != st1.CopiedBytes+512 {
		t.Errorf("ledger %+v → %+v; want one break of 512 bytes", st1, st)
	}

	if err := tc.SegmentWrite(CEnt{sandbox, segs[1]}, 0, []byte("src-write")); err != nil {
		t.Fatalf("SegmentWrite source: %v", err)
	}
	if cdata, _ := tc.SegmentRead(CEnt{croot, ids[segs[1]]}, 0, 512); !bytes.Equal(cdata, seqBytes(1, 512)) {
		t.Error("a write to the source reached the copy")
	}
	if st := k.SnapshotStats(); st.CowBreaks != st1.CowBreaks+2 {
		t.Errorf("CowBreaks %d after the source's write, want %d", st.CowBreaks, st1.CowBreaks+2)
	}
}

// TestSegmentCopyMovesNoBytes: a copy of a 1 MiB segment allocates its
// metadata, not a megabyte, and the breaks that follow copy the array once
// per side that writes.
func TestSegmentCopyMovesNoBytes(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	lbl := label.New(label.L1)
	src, err := tc.SegmentCreate(root, lbl, "1 MiB", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.SegmentWrite(CEnt{root, src}, 0, seqBytes(7, 1<<20)); err != nil {
		t.Fatal(err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	const copies = 8
	var ids [copies]ID
	for i := range ids {
		if ids[i], err = tc.SegmentCopy(CEnt{root, src}, root, lbl, "copy"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms1)
	if got := (ms1.TotalAlloc - ms0.TotalAlloc) / copies; got > 4<<10 {
		t.Errorf("a copy of 1 MiB allocated %d bytes, want its metadata (under 4 KiB)", got)
	}
	if st := k.SnapshotStats(); st.Clones != copies || st.SharedBytes != copies<<20 || st.CopiedBytes != 0 {
		t.Errorf("ledger %+v; want %d clones sharing 1 MiB each, nothing copied", st, copies)
	}
	for i, id := range ids[:2] {
		if err := tc.SegmentWrite(CEnt{root, id}, 0, []byte{0xFF}); err != nil {
			t.Fatal(err)
		}
		if st := k.SnapshotStats(); st.CowBreaks != uint64(i+1) || st.CopiedBytes != uint64(i+1)<<20 {
			t.Errorf("after %d written copies the ledger reads %+v", i+1, st)
		}
	}
	for i, id := range append([]ID{src}, ids[2:]...) {
		if got, err := tc.SegmentRead(CEnt{root, id}, 0, 1<<20); err != nil || !bytes.Equal(got, seqBytes(7, 1<<20)) {
			t.Errorf("unwritten segment %d no longer reads the source's bytes (%v)", i, err)
		}
	}
}

// TestMemWriteBreaksCOW stores through a mapping of one copy: the store must
// land in that copy's private array, never in the frozen array it shares with
// its source and its sibling copies.
func TestMemWriteBreaksCOW(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	sandbox, segs := buildSandbox(t, tc, root, label.New(label.L1), 1, PageSize)
	var copies [2]CEnt
	for i := range copies {
		croot, ids := copyTree(t, tc, root, sandbox, root)
		copies[i] = CEnt{croot, ids[segs[0]]}
	}
	golden, err := tc.SegmentRead(CEnt{sandbox, segs[0]}, 0, PageSize)
	if err != nil {
		t.Fatal(err)
	}

	as, err := tc.AddressSpaceCreate(root, label.New(label.L1), "copy A's view")
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.AddressSpaceSet(CEnt{root, as}, []Mapping{
		{VA: 0x10000, Seg: copies[0], NPages: 2, Flags: MapRead | MapWrite},
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
		for name, ce := range map[string]CEnt{"source": {sandbox, segs[0]}, "copy B": copies[1]} {
			if got, err := tc.SegmentRead(ce, 0, 2*PageSize); err != nil || !bytes.Equal(got, golden) {
				t.Errorf("store %d through copy A's mapping reached %s (%d bytes, err %v)", i, name, len(got), err)
			}
		}
		after := k.SnapshotStats()
		// Only the first store copies: it leaves copy A with a private array.
		wantBreaks, wantCopied := before.CowBreaks, before.CopiedBytes
		if i == 0 {
			wantBreaks, wantCopied = wantBreaks+1, wantCopied+PageSize
		}
		if after.CowBreaks != wantBreaks || after.CopiedBytes != wantCopied {
			t.Errorf("store %d: CowBreaks %d → %d, CopiedBytes %d → %d; want %d and %d",
				i, before.CowBreaks, after.CowBreaks, before.CopiedBytes, after.CopiedBytes, wantBreaks, wantCopied)
		}
	}

	// The growth path alone must break COW too: a fresh copy, first store
	// past the end.
	if err := tc.AddressSpaceSet(CEnt{root, as}, []Mapping{
		{VA: 0x10000, Seg: copies[1], NPages: 2, Flags: MapRead | MapWrite},
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
	if err := tc.SegmentWrite(copies[1], 0, []byte("private now")); err != nil {
		t.Fatal(err)
	}
	if got, _ := tc.SegmentRead(CEnt{sandbox, segs[0]}, 0, PageSize); !bytes.Equal(got, golden) {
		t.Error("a write after the growing store reached the source: frozen flag not cleared with a private array")
	}
}

// TestSnapshotCloneLabelEnforcement: a copy passes the ordinary checks — a
// thread without c's privilege can neither observe a {c3} segment well enough
// to copy it nor allocate a copy at {c3}, and no copy is published.
func TestSnapshotCloneLabelEnforcement(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	c, err := tc.CategoryCreate()
	if err != nil {
		t.Fatalf("CategoryCreate: %v", err)
	}
	secret := label.New(label.L1, label.P(c, label.L3))
	sandbox, segs := buildSandbox(t, tc, root, label.New(label.L1), 1, 128)
	hidden, err := tc.SegmentCopy(CEnt{sandbox, segs[0]}, sandbox, secret, "secret")
	if err != nil {
		t.Fatalf("owner's copy up to {c3}: %v", err)
	}
	other, err := k.BootThread(label.New(label.L1), label.New(label.L2), "outsider")
	if err != nil {
		t.Fatalf("BootThread: %v", err)
	}
	objects := k.ObjectCount()
	if _, err := other.SegmentCopy(CEnt{sandbox, hidden}, root, label.New(label.L1), "steal"); !errors.Is(err, ErrLabel) {
		t.Errorf("outsider's copy of a {c3} segment down to {1}: err=%v, want ErrLabel", err)
	}
	if _, err := other.SegmentCopy(CEnt{sandbox, segs[0]}, root, secret, "taint"); !errors.Is(err, ErrLabel) {
		t.Errorf("outsider's copy at {c3}, above its clearance: err=%v, want ErrLabel", err)
	}
	if n := k.ObjectCount(); n != objects {
		t.Errorf("refused copies left %d objects behind", n-objects)
	}
}

// TestGoldenImageAcceptance: copying a sandbox with 64 MiB of read-only data
// must be O(metadata) — at least 50x faster than building the sandbox from
// scratch — and copy at most 1% of the bytes it shares.
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
		for i := 0; i < nSegs; i++ {
			sid, err := tc.SegmentCreate(sandbox, pub, fmt.Sprintf("blob %d", i), segSize)
			if err != nil {
				t.Fatalf("SegmentCreate: %v", err)
			}
			if err := tc.SegmentWrite(CEnt{sandbox, sid}, 0, seqBytes(i, segSize)); err != nil {
				t.Fatalf("SegmentWrite: %v", err)
			}
		}
		return sandbox, time.Since(start)
	}

	// From-scratch baseline: build the sandbox twice, keep the faster run.
	_, scratch1 := build()
	golden, scratch := build()
	scratch = min(scratch, scratch1)

	// Golden spawn: copy a few times, keep the fastest (the comparison is
	// about the mechanism's cost, not scheduler noise).
	var spawn time.Duration
	for i := 0; i < 5; i++ {
		before := k.SnapshotStats()
		start := time.Now()
		copyTree(t, tc, root, golden, root)
		d := time.Since(start)
		if shared := k.SnapshotStats().SharedBytes - before.SharedBytes; shared != imgBytes {
			t.Fatalf("spawn shared %d bytes, want %d", shared, imgBytes)
		}
		if i == 0 || d < spawn {
			spawn = d
		}
	}

	if spawn*50 > scratch {
		t.Errorf("golden spawn took %v vs scratch build %v; want >= 50x speedup (got %.1fx)",
			spawn, scratch, float64(scratch)/float64(spawn))
	}
	st := k.SnapshotStats()
	if st.CopiedBytes*100 > st.SharedBytes {
		t.Errorf("copied %d bytes vs %d shared; want <= 1%%", st.CopiedBytes, st.SharedBytes)
	}
	t.Logf("scratch build %v, golden spawn %v (%.0fx), shared %d MiB, copied %d B",
		scratch, spawn, float64(scratch)/float64(spawn), st.SharedBytes>>20, st.CopiedBytes)
}

// TestSnapshotCloneConcurrentStress is the -race target: concurrent spawns
// from one source tree, COW-breaking writers on earlier copies, and further
// copies of the source's segments all racing.  Every copy must come out
// byte-exact against the source no matter what the writers do to their own
// private arrays, and the source must stay as built.
func TestSnapshotCloneConcurrentStress(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	const (
		nSegs    = 3
		segSize  = 2048
		nWorkers = 8
		nRounds  = 6
	)
	sandbox, segs := buildSandbox(t, tc, root, label.New(label.L1), nSegs, segSize)
	segs = segs[:nSegs] // the nested segment holds other bytes

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
				for i, src := range segs {
					cp, err := tc.SegmentCopy(CEnt{sandbox, src}, dest, label.New(label.L1), "stress copy")
					if err != nil {
						errCh <- err
						return
					}
					got, err := tc.SegmentRead(CEnt{dest, cp}, 0, segSize)
					if err != nil {
						errCh <- err
						return
					}
					if !bytes.Equal(got, seqBytes(i, segSize)) {
						errCh <- fmt.Errorf("worker %d round %d: copy of segment %d diverged", w, round, i)
						return
					}
					if i == w%nSegs {
						if err := tc.SegmentWrite(CEnt{dest, cp}, 0, bytes.Repeat([]byte{byte(w)}, 64)); err != nil {
							errCh <- err
							return
						}
					}
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
	if st.Clones != nWorkers*nRounds*nSegs {
		t.Errorf("clones = %d, want %d", st.Clones, nWorkers*nRounds*nSegs)
	}
	if st.CowBreaks == 0 || st.CopiedBytes == 0 {
		t.Errorf("stress produced no COW breaks (breaks=%d copied=%d)", st.CowBreaks, st.CopiedBytes)
	}
	for i, id := range segs {
		if got, err := tc.SegmentRead(CEnt{sandbox, id}, 0, segSize); err != nil || !bytes.Equal(got, seqBytes(i, segSize)) {
			t.Fatalf("source segment %d damaged by copy writers: %v", i, err)
		}
	}
}

// TestSnapshotCountersSkipFreshSegments: the ledger counts bytes a copy
// shares, nothing else.  The first write to a fresh segment or a
// thread-local segment, which breaks only a share of the zero array, counts
// nothing; a copy of a segment never written, whose bytes are that same
// share, counts in neither half, nor does a write to it.  A copy of written
// bytes counts one clone, and a write to it one break and its bytes.
func TestSnapshotCountersSkipFreshSegments(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	lbl := label.New(label.L1)
	unwritten, err := tc.SegmentCreate(root, lbl, "unwritten", PageSize)
	if err != nil {
		t.Fatal(err)
	}
	written, err := tc.SegmentCreate(root, lbl, "written", PageSize)
	if err != nil {
		t.Fatal(err)
	}
	st0 := k.SnapshotStats()
	if err := tc.SegmentWrite(CEnt{root, written}, 0, []byte("first write")); err != nil {
		t.Fatal(err)
	}
	if err := tc.LocalSegmentWrite(0, []byte("first local write")); err != nil {
		t.Fatal(err)
	}
	if st := k.SnapshotStats(); st != st0 {
		t.Errorf("first writes to fresh segments counted: %+v → %+v", st0, st)
	}
	zcopy, err := tc.SegmentCopy(CEnt{root, unwritten}, root, lbl, "copy of zeros")
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.SegmentWrite(CEnt{root, zcopy}, 0, []byte("copy write")); err != nil {
		t.Fatal(err)
	}
	if err := tc.SegmentWrite(CEnt{root, unwritten}, 0, []byte("source write")); err != nil {
		t.Fatal(err)
	}
	if st := k.SnapshotStats(); st != st0 {
		t.Errorf("a copy of an unwritten segment, and writes to both sides, counted: %+v → %+v", st0, st)
	}
	wcopy, err := tc.SegmentCopy(CEnt{root, written}, root, lbl, "copy of written")
	if err != nil {
		t.Fatal(err)
	}
	st1 := k.SnapshotStats()
	if st1.Clones != st0.Clones+1 || st1.SharedBytes != st0.SharedBytes+PageSize {
		t.Errorf("a copy of written bytes moved the ledger %+v → %+v; want one clone of %d bytes", st0, st1, PageSize)
	}
	if err := tc.SegmentWrite(CEnt{root, wcopy}, 0, []byte("copy write")); err != nil {
		t.Fatal(err)
	}
	if st := k.SnapshotStats(); st.CowBreaks != st1.CowBreaks+1 || st.CopiedBytes != st1.CopiedBytes+PageSize {
		t.Errorf("a write to a copy of written bytes moved CowBreaks %d → %d and CopiedBytes %d → %d; want +1 and +%d",
			st1.CowBreaks, st.CowBreaks, st1.CopiedBytes, st.CopiedBytes, PageSize)
	}
}

// TestEvictedSegmentSnapshotCapturesBytes: a copy pages an evicted source in
// before sharing it, so the copy holds the bytes, not the empty array Evict
// left behind, and keeps them when the source is evicted again.  What that
// second page-in brings the source back is private: a write to it breaks no
// share.
func TestEvictedSegmentSnapshotCapturesBytes(t *testing.T) {
	k, tc := boot(t)
	fp := newFakePager()
	k.SetPager(fp)
	root := k.RootContainer()
	pub := label.New(label.L1)
	id, err := tc.SegmentCreate(root, pub, "blob", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("captured after eviction")
	persistedSegment(t, tc, CEnt{root, id}, want)
	k.Evict()
	cp, err := tc.SegmentCopy(CEnt{root, id}, root, pub, "copy")
	if err != nil {
		t.Fatal(err)
	}
	if st := k.SnapshotStats(); fp.pageIns != 1 || st.SharedBytes != uint64(len(want)) {
		t.Errorf("the copy of the evicted segment shares %d bytes after %d page-ins, want %d and 1", st.SharedBytes, fp.pageIns, len(want))
	}
	for _, evict := range []bool{false, true} {
		if evict {
			k.Evict()
		}
		if got, err := tc.SegmentRead(CEnt{root, cp}, 0, 64); err != nil || !bytes.Equal(got, want) {
			t.Errorf("copy read (source evicted again: %v) = %q, %v", evict, got, err)
		}
	}
	breaks := k.SnapshotStats().CowBreaks
	if err := tc.SegmentWrite(CEnt{root, id}, 0, []byte("C")); err != nil {
		t.Fatal(err)
	}
	if got := k.SnapshotStats().CowBreaks - breaks; got != 0 || fp.pageIns != 2 {
		t.Errorf("a write to the paged-in source broke copy-on-write %d times after %d page-ins, want 0 and 2", got, fp.pageIns)
	}
}

// TestPagerValidationAndRollback: a copy of an evicted source whose bytes the
// pager cannot produce — rotted, or at another length — fails with ErrCorrupt
// and the pager's error in the chain, and publishes nothing; once the pager
// answers again, the same copy succeeds.
func TestPagerValidationAndRollback(t *testing.T) {
	k, tc := boot(t)
	fp := newFakePager()
	k.SetPager(fp)
	root := k.RootContainer()
	pub := label.New(label.L1)
	id, err := tc.SegmentCreate(root, pub, "blob", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("verified bytes")
	persistedSegment(t, tc, CEnt{root, id}, want)
	dst, err := tc.ContainerCreate(root, pub, "dst", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rot := errors.New("contents checksum mismatch")
	for _, fail := range []func(){
		func() { fp.pageInErr = rot },
		func() { fp.pageInErr, fp.data[uint64(id)] = nil, []byte("short") },
	} {
		k.Evict()
		fail()
		objects := k.ObjectCount()
		_, err := tc.SegmentCopy(CEnt{root, id}, dst, pub, "copy")
		if !errors.Is(err, ErrCorrupt) || (fp.pageInErr != nil && !errors.Is(err, rot)) {
			t.Errorf("copy of an unreadable source: err=%v, want ErrCorrupt with the pager's error", err)
		}
		if n := k.ObjectCount(); n != objects || len(tc.mustList(t, dst)) != 0 {
			t.Errorf("the failed copy left %d objects, %d in dst", n-objects, len(tc.mustList(t, dst)))
		}
	}
	fp.data[uint64(id)] = want
	cp, err := tc.SegmentCopy(CEnt{root, id}, dst, pub, "copy")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tc.SegmentRead(CEnt{dst, cp}, 0, 64); err != nil || !bytes.Equal(got, want) {
		t.Errorf("copy once the pager answers = %q, %v", got, err)
	}
}
