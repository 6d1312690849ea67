package kernel

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

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
		r := tc.NewRing()
		r.Submit(RingEntry{Op: OpSegmentRead, Seg: ce, Len: PageSize})
		comps, err := r.Wait(1)
		if err != nil || comps[0].Err != nil {
			t.Fatalf("ring read: %v, %v", err, comps[0].Err)
		}
		mapped, err := tc.MemRead(va, PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for path, got := range map[string][]byte{"SegmentRead": direct, "ring read": comps[0].Val, "mapped load": mapped} {
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

// TestSegmentGrowFrozenCopiesAsBefore: growing a segment a snapshot shares —
// after a truncation too, which leaves the shared bytes in the array's
// capacity, where appending would overwrite them — moves it to a fresh array,
// counts one break and the bytes it held, and leaves the snapshot's bytes as
// they were; the now private array then grows without counting.
func TestSegmentGrowFrozenCopiesAsBefore(t *testing.T) {
	for _, truncate := range []bool{false, true} {
		k, tc := boot(t)
		root := k.RootContainer()
		lbl := label.New(label.L1)
		sandbox, err := tc.ContainerCreate(root, lbl, "sandbox", 0, QuotaInfinite)
		if err != nil {
			t.Fatal(err)
		}
		id, err := tc.SegmentCreate(sandbox, lbl, "master", 0)
		if err != nil {
			t.Fatal(err)
		}
		ce := CEnt{sandbox, id}
		golden := bytes.Repeat([]byte("golden.."), 64)
		if err := tc.SegmentWrite(ce, 0, golden); err != nil {
			t.Fatal(err)
		}
		info, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "frozen")
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
		res, err := tc.ContainerClone(info.ID, root, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := tc.SegmentRead(CEnt{res.Root, res.IDMap[id]}, 0, 2*len(golden)); err != nil || !bytes.Equal(got, golden) {
			t.Errorf("truncated %v: a clone of the snapshot reads %q, %v; want the bytes captured", truncate, got, err)
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
// write to a snapshot's clone, and a write after persist, Sync, Evict and
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

	ce = take(PageSize)
	r := tc.NewRing()
	r.Submit(RingEntry{Op: OpSegmentWrite, Seg: ce, Off: 16, Data: ones})
	if comps, err := r.Wait(1); err != nil || comps[0].Err != nil {
		t.Fatalf("ring write: %v, %v", err, comps)
	}
	wrote("a ring write", ce, 16, PageSize)

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

	sandbox, err := tc.ContainerCreate(root, lbl, "sandbox", 0, QuotaInfinite)
	if err != nil {
		t.Fatal(err)
	}
	master := newSeg(sandbox, PageSize)
	fresh, lens = append(fresh, master), append(lens, PageSize)
	info, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tc.ContainerClone(info.ID, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	ce = CEnt{res.Root, res.IDMap[master.Object]}
	if err := tc.SegmentWrite(ce, 0, ones); err != nil {
		t.Fatal(err)
	}
	wrote("a write to a snapshot's clone", ce, 0, PageSize)

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
