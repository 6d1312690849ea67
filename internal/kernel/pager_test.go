package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"histar/internal/label"
)

// fakePager scripts the kernel's one seam to the store, so everything the
// kernel asks of a store is testable without one: it keeps what was pushed,
// records each sync group and fails the ids in poison.  It also holds every
// push to its range: a byte outside it that differs from the object's
// previous push, or a partial range with no previous push of that length, is
// a broken promise, noted in outside.  A push the contract hands over it
// keeps as the kernel's array itself, as the store does, with a copy beside
// it; every call checks each kept array against its copy, and notes a change
// in tampered.  Its sync and checkpoint read every kept array, so a kernel
// write to one beside them is a race.
type fakePager struct {
	mu     sync.Mutex
	data   map[uint64][]byte // last pushed bytes, by object
	handed map[uint64][]byte // for a data entry that is a handed array, its bytes when pushed
	labels map[uint64]label.Label
	pushed []uint64 // every push's id, in order
	gone   []uint64 // Delete calls, in order
	groups [][]uint64
	poison map[uint64]error

	outside  []string // one line per push that broke its range's promise
	tampered []string // one line per handed array found changed

	pageIns     int
	pageInErr   error
	checkpoints int
}

func newFakePager() *fakePager {
	return &fakePager{data: make(map[uint64][]byte), handed: make(map[uint64][]byte), labels: make(map[uint64]label.Label)}
}

// audited audits and returns what the audits have found.
func (f *fakePager) audited() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.audit()
	return f.tampered
}

// audit compares every handed array with its bytes when pushed; the caller holds f.mu.
func (f *fakePager) audit() {
	for id, was := range f.handed {
		if !bytes.Equal(f.data[id], was) {
			f.tampered = append(f.tampered, fmt.Sprintf("object %d: handed array changed after its push", id))
			f.handed[id] = append([]byte(nil), f.data[id]...)
		}
	}
}

func (f *fakePager) PutLabeled(id uint64, lbl label.Label, data []byte, lo, hi int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.audit()
	prev, ok := f.data[id]
	switch {
	case lo < 0 || hi > len(data):
		f.outside = append(f.outside, fmt.Sprintf("object %d: range [%d, %d) of %d bytes", id, lo, hi, len(data)))
	case !ok || len(prev) != len(data):
		if lo != 0 || hi != len(data) {
			f.outside = append(f.outside, fmt.Sprintf("object %d: range [%d, %d) of %d bytes, none pushed at that length", id, lo, hi, len(data)))
		}
	case lo >= hi && !bytes.Equal(prev, data),
		lo < hi && !(bytes.Equal(prev[:lo], data[:lo]) && bytes.Equal(prev[hi:], data[hi:])):
		f.outside = append(f.outside, fmt.Sprintf("object %d: bytes outside [%d, %d) changed", id, lo, hi))
	}
	f.data[id], f.labels[id] = append([]byte(nil), data...), lbl
	delete(f.handed, id)
	if lo <= 0 && hi >= len(data) || len(data) <= PageSize {
		f.data[id], f.handed[id] = data, f.data[id]
	}
	f.pushed = append(f.pushed, id)
	return nil
}

func (f *fakePager) PageIn(id uint64) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pageIns++
	data, ok := f.data[id]
	switch {
	case f.pageInErr != nil:
		return nil, f.pageInErr
	case !ok:
		return nil, fmt.Errorf("fake pager: no object %d", id)
	}
	return append([]byte(nil), data...), nil
}

func (f *fakePager) Delete(id uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.data, id)
	f.gone = append(f.gone, id)
	return nil
}

func (f *fakePager) SyncObjects(ids []uint64) []error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.audit()
	f.groups = append(f.groups, append([]uint64(nil), ids...))
	errs := make([]error, len(ids))
	for i, id := range ids {
		errs[i] = f.poison[id]
	}
	return errs
}

func (f *fakePager) Checkpoint() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.audit()
	f.checkpoints++
	return nil
}

// TestPagerPushSyncDelete walks one segment through the whole seam: nothing
// leaves the kernel before a sync, whatever path wrote the bytes;
// SyncSegments pushes exactly the dirty target and commits it; Sync drains what is left
// and checkpoints; no read of a resident segment, clean or dirty, asks the
// pager, and one Evict dropped is paged in once; damage comes back as
// ErrCorrupt; and the pager hears of a death once, after the unlink.
func TestPagerPushSyncDelete(t *testing.T) {
	env := newRingEnv(t, 3, 16)
	fp := newFakePager()
	k, tc := env.k, env.tc
	if err := tc.SegmentPersist(env.segs[0]); !errors.Is(err, ErrInvalid) {
		t.Fatalf("SegmentPersist without a pager: %v, want ErrInvalid", err)
	}
	if err := tc.Sync(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Sync without a pager: %v, want ErrInvalid", err)
	}
	k.SetPager(fp)
	a, b, plain := env.segs[0], env.segs[1], env.segs[2]
	for _, ce := range []CEnt{a, b} {
		if err := tc.SegmentPersist(ce); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.SegmentWrite(a, 0, []byte("direct")); err != nil {
		t.Fatal(err)
	}
	if ok, err := tc.SegmentCompareSwap(b, 8, 0, 0x4242424242424242); err != nil || !ok {
		t.Fatalf("compare-and-swap: %v, %v", ok, err)
	}
	if err := tc.SegmentWrite(plain, 0, []byte("never paged")); err != nil {
		t.Fatal(err)
	}
	if len(fp.pushed) != 0 || fp.pageIns != 0 {
		t.Fatalf("%d pushes, %d page-ins before any sync or read", len(fp.pushed), fp.pageIns)
	}
	// A dirty segment's only current copy is the kernel's: no page-in.
	if _, err := tc.SegmentRead(a, 0, 6); err != nil || fp.pageIns != 0 {
		t.Fatalf("read of a dirty segment: %v, %d page-ins", err, fp.pageIns)
	}

	if err := tc.SyncSegments(a, plain); err != nil {
		t.Fatalf("SyncSegments: %v", err)
	}
	if len(fp.pushed) != 1 || !bytes.HasPrefix(fp.data[uint64(a.Object)], []byte("direct")) {
		t.Errorf("after SyncSegments: %d pushes, a = %q; want the one dirty target", len(fp.pushed), fp.data[uint64(a.Object)])
	}
	if len(fp.groups) != 1 || len(fp.groups[0]) != 2 {
		t.Errorf("sync groups %v, want one group of both targets", fp.groups)
	}
	if got, err := tc.SegmentRead(a, 0, 6); err != nil || string(got) != "direct" || fp.pageIns != 0 {
		t.Errorf("read of a clean resident segment = %q, %v, %d page-ins; want none", got, err, fp.pageIns)
	}
	k.Evict()
	if got, err := tc.SegmentRead(a, 0, 6); err != nil || string(got) != "direct" || fp.pageIns != 1 {
		t.Errorf("read of an evicted segment = %q, %v, %d page-ins; want one", got, err, fp.pageIns)
	}
	k.Evict()
	fp.pageInErr = errors.New("extent crc mismatch")
	if _, err := tc.SegmentRead(a, 0, 6); !errors.Is(err, ErrCorrupt) {
		t.Errorf("read of a damaged segment: %v, want ErrCorrupt", err)
	}
	fp.pageInErr = nil

	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(fp.pushed) != 2 || fp.checkpoints != 1 || fp.data[uint64(b.Object)][8] != 0x42 {
		t.Errorf("after Sync: %d pushes, %d checkpoints, b = %x", len(fp.pushed), fp.checkpoints, fp.data[uint64(b.Object)])
	}
	if err := tc.Sync(); err != nil || len(fp.pushed) != 2 || fp.checkpoints != 2 {
		t.Errorf("a second Sync pushed again: %v, %d pushes, %d checkpoints", err, len(fp.pushed), fp.checkpoints)
	}
	if _, ok := fp.data[uint64(plain.Object)]; ok || fp.labels[uint64(a.Object)].IsZero() {
		t.Error("an unmarked segment was pushed, or a pushed one went without its label")
	}

	// Dirty again, then dead: the pager hears one Delete and no push after it.
	if err := tc.SegmentWrite(a, 0, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	root := k.RootContainer()
	for _, ce := range []CEnt{a, plain} {
		if err := tc.Unref(root, ce.Object); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(fp.gone) != 1 || fp.gone[0] != uint64(a.Object) || len(fp.pushed) != 2 {
		t.Errorf("after the unlinks: deletes %v, %d pushes; want [%d] and no push of the dead", fp.gone, len(fp.pushed), a.Object)
	}
}

// TestSyncAndPersistPassTheMonitor: a thread that can read a segment but not
// modify it can neither mark it persistent nor have SyncSegments push or
// commit it — the ordinary label error, before the pager hears anything —
// while the other segment of the same call still commits.
func TestSyncAndPersistPassTheMonitor(t *testing.T) {
	env := newRingEnv(t, 1, 16)
	fp := newFakePager()
	env.k.SetPager(fp)
	root := env.k.RootContainer()
	w, err := env.tc.CategoryCreate()
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := env.tc.SegmentCreate(root, label.New(label.L1, label.P(w, label.L0)), "write-protected", 16)
	if err != nil {
		t.Fatal(err)
	}
	ce := CEnt{root, guarded}
	reader := spawnWorker(t, env.k, env.tc, "reader")
	if _, err := reader.SegmentRead(ce, 0, 16); err != nil {
		t.Fatalf("the reader cannot even read: %v", err)
	}
	if err := reader.SegmentPersist(ce); !errors.Is(err, ErrLabel) {
		t.Errorf("SegmentPersist by a thread that cannot modify: %v, want ErrLabel", err)
	}
	if err := env.tc.SegmentPersist(ce); err != nil {
		t.Fatal(err)
	}
	if err := env.tc.SegmentPersist(env.segs[0]); err != nil {
		t.Fatal(err)
	}
	if err := reader.SyncSegments(ce, env.segs[0]); !errors.Is(err, ErrLabel) {
		t.Errorf("SyncSegments = %v, want ErrLabel", err)
	}
	if _, pushed := fp.data[uint64(guarded)]; pushed || len(fp.pushed) != 1 {
		t.Errorf("the pager was handed the guarded segment (%d pushes)", len(fp.pushed))
	}
	if len(fp.groups) != 1 || len(fp.groups[0]) != 1 || fp.groups[0][0] != uint64(env.segs[0].Object) {
		t.Errorf("sync groups %v, want only [[%d]]", fp.groups, env.segs[0].Object)
	}
}

// TestSyncSegmentsOneGroup: N dirty segments reach the pager in one
// SyncObjects call, ids in argument order, each pushed once; the call returns
// the first error in argument order, the pager's answer for a poisoned id
// included; a clean persistent segment is committed again but not pushed
// again; and without a pager the call is ErrInvalid.
func TestSyncSegmentsOneGroup(t *testing.T) {
	env := newRingEnv(t, 4, 64)
	if err := env.tc.SyncSegments(env.segs...); !errors.Is(err, ErrInvalid) {
		t.Fatalf("SyncSegments without a pager: %v, want ErrInvalid", err)
	}
	fp := newFakePager()
	env.k.SetPager(fp)
	segs := []CEnt{env.segs[2], env.segs[0], env.segs[3], env.segs[1]}
	var ids []uint64
	for i, ce := range segs {
		if err := env.tc.SegmentPersist(ce); err != nil {
			t.Fatal(err)
		}
		if err := env.tc.SegmentWrite(ce, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, uint64(ce.Object))
	}
	bad := errors.New("bad disk")
	fp.poison = map[uint64]error{ids[2]: bad}
	if err := env.tc.SyncSegments(segs...); !errors.Is(err, bad) {
		t.Errorf("SyncSegments = %v, want the poisoned segment's error", err)
	}
	if len(fp.groups) != 1 || !slices.Equal(fp.groups[0], ids) {
		t.Fatalf("pager saw groups %v, want one group %v", fp.groups, ids)
	}
	if len(fp.pushed) != len(segs) {
		t.Errorf("%d pushes, want one per dirty segment, %d", len(fp.pushed), len(segs))
	}
	fp.poison = nil
	if err := env.tc.SyncSegments(segs[0]); err != nil || len(fp.pushed) != len(segs) || len(fp.groups) != 2 {
		t.Errorf("sync of a clean segment: %v, %d pushes, groups %v; want no push and one more group", err, len(fp.pushed), fp.groups)
	}
}

// TestSyncSegmentsResolvesEachEntry: each segment of a SyncSegments call is
// resolved like any call's target before it joins the group.  One named
// through a container the thread cannot read, or through one that does not
// link it, or one the thread cannot modify, fails with the resolution or
// label error and never reaches the pager — whose answer would otherwise
// tell the thread whether an object it cannot name is, say, quarantined —
// while the good one in the same call still commits, alone in its group.
func TestSyncSegmentsResolvesEachEntry(t *testing.T) {
	env := newRingEnv(t, 2, 64)
	root := env.k.RootContainer()
	c, err := env.tc.CategoryCreate()
	if err != nil {
		t.Fatal(err)
	}
	// A container only the category's owner can read, holding one segment,
	// and a segment anyone may read but only the owner modify.
	secretLbl := label.New(label.L1, label.P(c, label.L3))
	secretCt, err := env.tc.ContainerCreate(root, secretLbl, "secret", 0, QuotaInfinite)
	if err != nil {
		t.Fatal(err)
	}
	secretSeg, err := env.tc.SegmentCreate(secretCt, secretLbl, "secret seg", 8)
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := env.tc.SegmentCreate(root, label.New(label.L1, label.P(c, label.L0)), "write-protected", 8)
	if err != nil {
		t.Fatal(err)
	}
	fp := newFakePager()
	fp.poison = map[uint64]error{uint64(secretSeg): errors.New("quarantined")}
	env.k.SetPager(fp)
	for _, ce := range []CEnt{{secretCt, secretSeg}, {root, guarded}, env.segs[1]} {
		if err := env.tc.SegmentPersist(ce); err != nil {
			t.Fatal(err)
		}
	}
	outsider := spawnWorker(t, env.k, env.tc, "outsider")

	for _, c := range []struct {
		name string
		ce   CEnt
		want error
	}{
		{"through an unreadable container", CEnt{secretCt, secretSeg}, ErrLabel},
		{"through a container that does not link it", CEnt{root, secretSeg}, ErrNoSuchObject},
		{"that the thread cannot modify", CEnt{root, guarded}, ErrLabel},
	} {
		if err := outsider.SyncSegments(c.ce, env.segs[1]); !errors.Is(err, c.want) {
			t.Errorf("sync of a segment %s = %v, want %v", c.name, err, c.want)
		}
	}
	good := uint64(env.segs[1].Object)
	for i, g := range fp.groups {
		if len(g) != 1 || g[0] != good {
			t.Errorf("pager group %d = %v, want only [%d]", i, g, good)
		}
	}
	if len(fp.groups) != 3 || len(fp.pushed) != 1 || len(fp.data) != 1 {
		t.Errorf("pager saw %d groups, %d pushes of %d objects; want 3 groups and the good segment pushed once", len(fp.groups), len(fp.pushed), len(fp.data))
	}
}

// persistedSegment marks ce persistent, writes data into it and pushes it with
// SyncSegments, leaving it clean: the state Evict drops.
func persistedSegment(t *testing.T, tc *ThreadCall, ce CEnt, data []byte) {
	t.Helper()
	if err := tc.SegmentPersist(ce); err != nil {
		t.Fatal(err)
	}
	if err := tc.SegmentWrite(ce, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := tc.SyncSegments(ce); err != nil {
		t.Fatalf("SyncSegments: %v", err)
	}
}

// TestEvictPagesInOnce: a resident segment is the only copy the kernel reads
// — N clean reads of it, direct or through a mapping, ask the pager nothing.
// After Evict the first access, by either path, pages it in whole, and the
// rest find it resident: exactly one page-in.
func TestEvictPagesInOnce(t *testing.T) {
	const n = 50
	k, tc := boot(t)
	fp := newFakePager()
	k.SetPager(fp)
	_, id := setupAS(t, k, tc, label.New(label.L1), MapRead|MapWrite)
	ce := CEnt{k.RootContainer(), id}
	want := bytes.Repeat([]byte("paged once/"), 100)
	persistedSegment(t, tc, ce, want)
	paths := map[string]func() ([]byte, error){
		"direct": func() ([]byte, error) { return tc.SegmentRead(ce, 0, len(want)) },
		"mapped": func() ([]byte, error) { return tc.MemRead(0x10000, len(want)) },
	}
	readN := func(path string, read func() ([]byte, error)) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got, err := read(); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s read %d: %.16q, %v", path, i, got, err)
			}
		}
	}
	for path, read := range paths {
		readN(path, read)
	}
	if fp.pageIns != 0 {
		t.Fatalf("%d clean reads of a resident segment made %d page-ins, want 0", len(paths)*n, fp.pageIns)
	}
	for path, read := range paths {
		before := fp.pageIns
		k.Evict()
		readN(path, read)
		if got := fp.pageIns - before; got != 1 {
			t.Errorf("%d %s reads after Evict made %d page-ins, want 1", n, path, got)
		}
	}
}

// TestEvictKeepsLengthAndAccounting: eviction drops bytes, not length — a
// segment's ObjectStat usage and QuotaMove verdicts read the same before and
// after, with no page-in, and so does its length, which pages it in; an empty
// segment included, whose contents and resident state differ in nothing but
// the flag.  Marking an evicted segment persistent again leaves what the
// next Sync pushes alone.  A page-in that comes back at another length is
// damage.
func TestEvictKeepsLengthAndAccounting(t *testing.T) {
	k, tc := boot(t)
	fp := newFakePager()
	k.SetPager(fp)
	root := k.RootContainer()
	for _, size := range []int{3000, 0} {
		id, err := tc.SegmentCreate(root, label.New(label.L1), "evicted", 0)
		if err != nil {
			t.Fatal(err)
		}
		ce := CEnt{root, id}
		persistedSegment(t, tc, ce, make([]byte, size))
		st, err := tc.ObjectStat(ce)
		if err != nil {
			t.Fatal(err)
		}
		spare := int64(st.Quota - st.Usage)
		if err := tc.QuotaMove(root, id, -(spare + 1)); !errors.Is(err, ErrQuota) {
			t.Fatalf("size %d: shrinking past the spare quota: %v, want ErrQuota", size, err)
		}
		pageIns := fp.pageIns
		k.Evict()
		if got, err := tc.ObjectStat(ce); err != nil || got.Usage != st.Usage {
			t.Errorf("size %d: usage after Evict %d, %v; want %d", size, got.Usage, err, st.Usage)
		}
		if err := tc.QuotaMove(root, id, -(spare + 1)); !errors.Is(err, ErrQuota) {
			t.Errorf("size %d: shrinking past the spare quota after Evict: %v, want ErrQuota", size, err)
		}
		if err := tc.QuotaMove(root, id, -spare); err != nil {
			t.Errorf("size %d: shrinking by the spare quota after Evict: %v", size, err)
		}
		if fp.pageIns != pageIns {
			t.Errorf("size %d: stat and quota moves paged in %d times", size, fp.pageIns-pageIns)
		}
		if n, err := tc.SegmentLen(ce); err != nil || n != size || fp.pageIns != pageIns+1 {
			t.Errorf("size %d: length after Evict %d, %v, with %d page-ins; want %d and 1", size, n, err, fp.pageIns-pageIns, size)
		}
		k.Evict()
		if err := tc.SegmentPersist(ce); err != nil {
			t.Fatal(err)
		}
		if err := tc.Sync(); err != nil || len(fp.data[uint64(id)]) != size {
			t.Errorf("size %d: Sync after re-persisting an evicted segment: %v, the store holds %d bytes", size, err, len(fp.data[uint64(id)]))
		}
		fp.data[uint64(id)] = append(fp.data[uint64(id)], 0)
		if _, err := tc.SegmentLen(ce); !errors.Is(err, ErrCorrupt) {
			t.Errorf("size %d: a page-in one byte long: %v, want ErrCorrupt", size, err)
		}
	}
}

// TestEvictBesideReaders is a -race target: threads read one persistent
// segment every way there is — direct, mapped, length, stat, futex word —
// while the boot thread evicts in a loop, so page-ins race each other under
// the shared lock and race Evict's write lock; every read sees the bytes.
func TestEvictBesideReaders(t *testing.T) {
	const readers, iters = 4, 200
	k, tc := boot(t)
	fp := newFakePager()
	k.SetPager(fp)
	root := k.RootContainer()
	as, id := setupAS(t, k, tc, label.New(label.L1), MapRead)
	ce := CEnt{root, id}
	want := bytes.Repeat([]byte{7}, 2*PageSize)
	persistedSegment(t, tc, ce, want)
	stat, err := tc.ObjectStat(ce)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	done := make(chan struct{})
	for w := 0; w < readers; w++ {
		rt := spawnWorker(t, k, tc, fmt.Sprintf("reader %d", w))
		if err := rt.SelfSetAddressSpace(CEnt{root, as}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(rt *ThreadCall) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				span, err := rt.SegmentRead(ce, 64, 64)
				n, nerr := rt.SegmentLen(ce)
				direct, derr := rt.SegmentRead(ce, 100, 8)
				mapped, merr := rt.MemRead(0x10000+PageSize, 16)
				st, serr := rt.ObjectStat(ce)
				werr := rt.FutexWait(ce, 8, 0) // the word is not 0: returns at once
				if err = errors.Join(err, nerr, derr, merr, serr, werr); err == nil &&
					(!bytes.Equal(span, want[64:128]) || n != len(want) ||
						!bytes.Equal(direct, want[100:108]) || !bytes.Equal(mapped, want[:16]) || st.Usage != stat.Usage) {
					err = fmt.Errorf("read %d saw other bytes, length or usage", i)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(rt)
	}
	go func() { wg.Wait(); close(done) }()
	for evicting := true; evicting; {
		select {
		case <-done:
			evicting = false
		default:
			k.Evict()
		}
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if fp.pageIns == 0 {
		t.Error("no read ever paged in: the readers never met an eviction")
	}
}

// TestSyncWalksTheDirtyList: Sync costs what changed, not what exists.  Of
// 1,000 persistent segments, clean after a first Sync, the one written since
// is the only push of the next; a segment that dies dirty leaves the dirty
// list with its death, so the pager hears its Delete and never its bytes;
// and every Sync leaves the list empty.
func TestSyncWalksTheDirtyList(t *testing.T) {
	k, tc := boot(t)
	fp := newFakePager()
	k.SetPager(fp)
	root := k.RootContainer()
	segs := make([]CEnt, 1000)
	for i := range segs {
		id, err := tc.SegmentCreate(root, label.New(label.L1), "persistent", 16)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = CEnt{root, id}
		if err := tc.SegmentPersist(segs[i]); err != nil {
			t.Fatal(err)
		}
	}
	listed := func() int {
		k.dirtyMu.Lock()
		defer k.dirtyMu.Unlock()
		return len(k.dirty)
	}
	if err := tc.Sync(); err != nil || len(fp.pushed) != len(segs) || listed() != 0 {
		t.Fatalf("first Sync: %v, %d pushes of %d persisted segments, %d left listed", err, len(fp.pushed), len(segs), listed())
	}
	if err := tc.SegmentWrite(segs[500], 3, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := tc.Sync(); err != nil || len(fp.pushed) != len(segs)+1 || string(fp.data[uint64(segs[500].Object)][3:6]) != "one" || listed() != 0 {
		t.Fatalf("Sync after one write: %v, %d pushes in all, %d left listed; want the written segment alone", err, len(fp.pushed)-len(segs), listed())
	}
	doomed := segs[7]
	if err := tc.SegmentWrite(doomed, 0, []byte("never pushed")); err != nil {
		t.Fatal(err)
	}
	if listed() != 1 {
		t.Fatalf("%d segments listed after one write, want 1", listed())
	}
	if err := tc.Unref(root, doomed.Object); err != nil {
		t.Fatal(err)
	}
	if listed() != 0 {
		t.Fatal("a dead segment is still on the dirty list")
	}
	if err := tc.Sync(); err != nil || len(fp.pushed) != len(segs)+1 || !slices.Equal(fp.gone, []uint64{uint64(doomed.Object)}) {
		t.Fatalf("Sync after a dirty death: %v, %d pushes, deletes %v; want no push and one delete", err, len(fp.pushed)-len(segs)-1, fp.gone)
	}
}

// TestSyncPushesInDirtiedOrder holds the order Sync hands the pager its
// segments in, which is the order the store homes them on disk: the order
// they were first dirtied since the last Sync, whatever their IDs.  1,000
// persistent segments are marked, then written, each time in a shuffled
// order; a segment written again keeps its first place, one that dies dirty
// is never pushed, and one pushed by SyncSegments in between is pushed by
// Sync again only from its next write.
func TestSyncPushesInDirtiedOrder(t *testing.T) {
	k, tc := boot(t)
	fp := newFakePager()
	k.SetPager(fp)
	root := k.RootContainer()
	segs := make([]CEnt, 1000)
	for i := range segs {
		id, err := tc.SegmentCreate(root, label.New(label.L1), "persistent", 16)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = CEnt{root, id}
	}
	rng := rand.New(rand.NewSource(1))
	var want []uint64
	for _, i := range rng.Perm(len(segs)) {
		if err := tc.SegmentPersist(segs[i]); err != nil {
			t.Fatal(err)
		}
		want = append(want, uint64(segs[i].Object))
	}
	if slices.IsSorted(want) {
		t.Fatal("the marking order is the ID order; the test shows nothing")
	}
	if err := tc.Sync(); err != nil || !slices.Equal(fp.pushed, want) {
		t.Fatalf("first Sync: %v; the %d pushes are not in the order the segments were marked", err, len(fp.pushed))
	}

	fp.pushed, want = nil, nil
	doomed, early := map[int]bool{}, map[int]bool{}
	order := rng.Perm(len(segs))
	for n, i := range order {
		if err := tc.SegmentWrite(segs[i], 0, []byte("first")); err != nil {
			t.Fatal(err)
		}
		switch {
		case n%97 == 0:
			doomed[i] = true
		case n%89 == 0:
			early[i] = true
		default:
			want = append(want, uint64(segs[i].Object))
		}
	}
	for _, i := range order[len(order)/2:] { // dirtied again: no new place
		if err := tc.SegmentWrite(segs[i], 8, []byte("again")); err != nil {
			t.Fatal(err)
		}
	}
	for i := range early { // pushed now, clean until it is written again
		if err := tc.SyncSegments(segs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range doomed {
		if err := tc.Unref(root, segs[i].Object); err != nil {
			t.Fatal(err)
		}
	}
	fp.pushed = nil
	for i := range early {
		if err := tc.SegmentWrite(segs[i], 0, []byte("later")); err != nil {
			t.Fatal(err)
		}
		want = append(want, uint64(segs[i].Object))
	}
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(doomed) == 0 || len(early) == 0 || !slices.Equal(fp.pushed, want) {
		t.Fatalf("second Sync pushed %d segments, want %d in dirtied order (%d died dirty, %d pushed early)",
			len(fp.pushed), len(want), len(doomed), len(early))
	}
}

// TestContainerListAndTeardownAscend pins the one record a container keeps of
// its links: ContainerList answers in ascending ID order, whatever order the
// links were made and unmade in, and a teardown releases the children in that
// order too, so the pager hears of the persistent segments' deaths ascending.
func TestContainerListAndTeardownAscend(t *testing.T) {
	k, tc := boot(t)
	fp := newFakePager()
	k.SetPager(fp)
	root := k.RootContainer()
	ct, err := tc.ContainerCreate(root, label.New(label.L1), "parent", 0, QuotaInfinite)
	if err != nil {
		t.Fatal(err)
	}
	var made []ID
	for i := 0; i < 200; i++ {
		id, err := tc.SegmentCreate(ct, label.New(label.L1), "persistent", 16)
		if err == nil {
			err = tc.SegmentPersist(CEnt{ct, id})
		}
		if err != nil {
			t.Fatal(err)
		}
		made = append(made, id)
	}
	if slices.IsSorted(made) {
		t.Fatal("the creation order is the ID order; the test shows nothing")
	}
	live := map[ID]bool{}
	for _, id := range made {
		live[id] = true
	}
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(len(made))[:50] {
		if err := tc.Unref(ct, made[i]); err != nil {
			t.Fatal(err)
		}
		delete(live, made[i])
	}
	var want []uint64
	for id := range live {
		want = append(want, uint64(id))
	}
	slices.Sort(want)
	got, err := tc.ContainerList(Self(ct))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || !slices.IsSorted(got) {
		t.Fatalf("ContainerList: %d IDs, sorted %v; want the %d live ones ascending", len(got), slices.IsSorted(got), len(want))
	}
	for i := range got {
		if uint64(got[i]) != want[i] {
			t.Fatalf("ContainerList[%d] = %v, want o%d", i, got[i], want[i])
		}
	}
	fp.gone = nil
	if err := tc.Unref(root, ct); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fp.gone, want) {
		t.Fatalf("the teardown deleted %d segments, not the %d live ones in ascending order", len(fp.gone), len(want))
	}
}

// TestHandedPushStaysAsPushed: a push that covers its segment, or any push of
// a segment of at most a page, hands the array to the pager, and every path
// that writes a segment — a direct write, a compare-and-swap, a resize, a
// store through a mapping — leaves the pager's bytes as pushed, writing a
// copy.  A range push of a larger segment is no handover: the pager copies
// the range, and the segment stays unfrozen, so its next write copies
// nothing.  None of it counts in the copy-on-write ledger.
func TestHandedPushStaysAsPushed(t *testing.T) {
	k, tc := boot(t)
	fp := newFakePager()
	k.SetPager(fp)
	root := k.RootContainer()
	_, mapped := setupAS(t, k, tc, label.New(label.L1), MapRead|MapWrite)
	smallID, err := tc.SegmentCreate(root, label.New(label.L1), "small", 64)
	if err != nil {
		t.Fatal(err)
	}
	big, small := CEnt{root, mapped}, CEnt{root, smallID}
	for _, ce := range []CEnt{big, small} {
		if err := tc.SegmentPersist(ce); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name   string
		ce     CEnt
		mutate func() error
		handed bool
	}{
		{"the first, whole push", big, func() error { return nil }, true},
		{"a direct write", small, func() error { return tc.SegmentWrite(small, 3, []byte("direct")) }, true},
		{"a compare-and-swap", small, func() error {
			_, err := tc.SegmentCompareSwap(small, 8, 0, 0x4242424242424242)
			return err
		}, true},
		{"a resize", small, func() error { return tc.SegmentResize(small, 200) }, true},
		{"a store through a mapping", big, func() error { return tc.MemWrite(0x10000+100, []byte("mapped")) }, false},
		{"a resize of the larger segment", big, func() error { return tc.SegmentResize(big, 3*PageSize) }, true},
		{"a store after the whole push", big, func() error { return tc.MemWrite(0x10000, []byte("again")) }, false},
		{"a write before the second resize", small, func() error { return tc.SegmentWrite(small, 150, []byte("tail")) }, true},
		{"a truncation", small, func() error { return tc.SegmentResize(small, 10) }, true},
	}
	for _, st := range steps {
		if err := st.mutate(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if err := tc.SyncSegments(st.ce); err != nil {
			t.Fatalf("%s: SyncSegments: %v", st.name, err)
		}
		want, err := tc.SegmentRead(st.ce, 0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := lookupAs[*segment](k, st.ce.Object)
		if err != nil {
			t.Fatal(err)
		}
		seg.mu.RLock()
		frozen := seg.frozen
		seg.mu.RUnlock()
		tampered := fp.audited()
		got := fp.data[uint64(st.ce.Object)]
		_, kept := fp.handed[uint64(st.ce.Object)]
		if len(tampered) > 0 {
			t.Fatalf("after %s: %s", st.name, tampered[0])
		}
		if !bytes.Equal(got, want) {
			t.Errorf("after %s: the pager holds other bytes than the segment", st.name)
		}
		if kept != st.handed || frozen != st.handed {
			t.Errorf("after %s: handed over %v, segment frozen %v; want %v", st.name, kept, frozen, st.handed)
		}
	}
	if err := errors.Join(tc.SegmentWrite(small, 0, []byte("unsynced")), tc.MemWrite(0x10000, []byte("unsynced"))); err != nil {
		t.Fatal(err)
	}
	if tampered := fp.audited(); len(tampered) > 0 {
		t.Fatalf("after the last writes: %s", tampered[0])
	}
	if st := k.SnapshotStats(); st != (SnapshotStats{}) {
		t.Errorf("ledger %+v, want zero: no segment was copied", st)
	}
}

// TestHandedSegmentsBesideSync is a -race target: threads write their own
// persistent segments — small ones in place, larger ones grown so each push
// is whole — while the boot thread syncs and checkpoints in a loop, and the
// pager reads every array it was handed at each sync and checkpoint.  A
// write to a handed array shows as a race, or as a changed array.
func TestHandedSegmentsBesideSync(t *testing.T) {
	const writers, iters = 4, 100
	k, tc := boot(t)
	fp := newFakePager()
	k.SetPager(fp)
	root := k.RootContainer()
	var segs []CEnt
	for i := 0; i < 2*writers; i++ {
		id, err := tc.SegmentCreate(root, label.New(label.L1), "handed", 0)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, CEnt{root, id})
		if err := errors.Join(tc.SegmentPersist(segs[i]), tc.SegmentResize(segs[i], 64)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wt := spawnWorker(t, k, tc, fmt.Sprintf("writer %d", w))
		small, grown := segs[2*w], segs[2*w+1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				b := []byte{byte(i), byte(i >> 8)}
				err := errors.Join(
					wt.SegmentWrite(small, i%62, b),
					wt.SegmentWrite(grown, i*64, bytes.Repeat(b, 32)),
				)
				if i%10 == 0 {
					err = errors.Join(err, wt.SyncSegments(small, grown))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	for syncing := true; syncing; {
		select {
		case <-done:
			syncing = false
		default:
			if err := tc.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	if tampered := fp.audited(); len(tampered) > 0 {
		t.Fatalf("%d handed arrays changed after their push: %s", len(tampered), tampered[0])
	}
	if len(fp.handed) == 0 {
		t.Fatal("no push was handed over")
	}
	for _, ce := range segs {
		want, err := tc.SegmentRead(ce, 0, 1<<20)
		if err != nil || !bytes.Equal(fp.data[uint64(ce.Object)], want) {
			t.Errorf("segment %d: the pager holds other bytes after the last sync (%v)", ce.Object, err)
		}
	}
}
