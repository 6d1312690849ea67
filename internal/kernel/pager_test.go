package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"histar/internal/label"
)

// fakePager scripts the kernel's one seam to the store, so everything the
// kernel asks of a store is testable without one: it keeps what was pushed,
// records each sync group, fails the ids in poison, and aliases with
// scripted failures.  It also holds every push to its range: a byte outside
// it that differs from the object's previous push (or alias), or a partial
// range with no previous push of that length, is a broken promise, noted in
// outside.
type fakePager struct {
	mu     sync.Mutex
	data   map[uint64][]byte // last pushed bytes, by object
	labels map[uint64]label.Label
	puts   int
	gone   []uint64 // Delete calls, in order
	groups [][]uint64
	poison map[uint64]error

	outside []string // one line per push that broke its range's promise

	pageIns     int
	pageInErr   error
	checkpoints int

	aliasSrcs []uint64 // the source of each pair Alias made, in order
	aliasErr  error    // when set, Alias makes aliasOK more pairs and then fails each with it
	aliasOK   int
	onAlias   func() // runs once per pair inside every Alias call, no fake lock held
}

func newFakePager() *fakePager {
	return &fakePager{data: make(map[uint64][]byte), labels: make(map[uint64]label.Label)}
}

func (f *fakePager) PutLabeled(id uint64, lbl label.Label, data []byte, lo, hi int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
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
	f.puts++
	return nil
}

func (f *fakePager) PageIn(id uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pageIns++
	return f.pageInErr
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
	f.checkpoints++
	return nil
}

// Alias makes the pairs one at a time under one hold of the lock, as the
// store does under one commit; like the store it refuses a source it does not
// hold, and like the store it leaves deleting what it made to the caller.
func (f *fakePager) Alias(src, dst []uint64, lbls []label.Label) []error {
	if f.onAlias != nil {
		for range dst {
			f.onAlias()
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	errs := make([]error, len(dst))
	for i := range dst {
		data, held := f.data[src[i]]
		switch {
		case !held:
			errs[i] = fmt.Errorf("fake pager: no object %d to alias", src[i])
		case f.aliasErr != nil && f.aliasOK == 0:
			errs[i] = f.aliasErr
		default:
			if f.aliasErr != nil {
				f.aliasOK--
			}
			f.data[dst[i]], f.labels[dst[i]] = data, lbls[i]
			f.aliasSrcs = append(f.aliasSrcs, src[i])
		}
	}
	return errs
}

// TestPagerPushSyncDelete walks one segment through the whole seam: nothing
// leaves the kernel before a sync, whatever path wrote the bytes; an OpSync
// pushes exactly the dirty target and commits it; Sync drains what is left
// and checkpoints; a clean segment is paged in before a read and a dirty one
// is not; damage comes back as ErrCorrupt; and the pager hears of a death
// once, after the unlink.
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
	if fp.puts != 0 || fp.pageIns != 0 {
		t.Fatalf("%d pushes, %d page-ins before any sync or read", fp.puts, fp.pageIns)
	}
	// A dirty segment's only current copy is the kernel's: no page-in.
	if _, err := tc.SegmentRead(a, 0, 6); err != nil || fp.pageIns != 0 {
		t.Fatalf("read of a dirty segment: %v, %d page-ins", err, fp.pageIns)
	}

	r := tc.NewRing()
	r.Submit(RingEntry{Op: OpSync, Seg: a}, RingEntry{Op: OpSync, Seg: plain})
	comps, err := r.Wait(2)
	if err != nil || comps[0].Err != nil || comps[1].Err != nil {
		t.Fatalf("OpSync: %v, %v", err, comps)
	}
	if fp.puts != 1 || !bytes.HasPrefix(fp.data[uint64(a.Object)], []byte("direct")) {
		t.Errorf("after OpSync: %d pushes, a = %q; want the one dirty target", fp.puts, fp.data[uint64(a.Object)])
	}
	if len(fp.groups) != 1 || len(fp.groups[0]) != 2 {
		t.Errorf("sync groups %v, want one group of both targets", fp.groups)
	}
	if got, err := tc.SegmentRead(a, 0, 6); err != nil || string(got) != "direct" || fp.pageIns != 1 {
		t.Errorf("read of a clean segment = %q, %v, %d page-ins; want one", got, err, fp.pageIns)
	}
	fp.pageInErr = errors.New("extent crc mismatch")
	if _, err := tc.SegmentRead(a, 0, 6); !errors.Is(err, ErrCorrupt) {
		t.Errorf("read of a damaged segment: %v, want ErrCorrupt", err)
	}
	fp.pageInErr = nil

	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	if fp.puts != 2 || fp.checkpoints != 1 || fp.data[uint64(b.Object)][8] != 0x42 {
		t.Errorf("after Sync: %d pushes, %d checkpoints, b = %x", fp.puts, fp.checkpoints, fp.data[uint64(b.Object)])
	}
	if err := tc.Sync(); err != nil || fp.puts != 2 || fp.checkpoints != 2 {
		t.Errorf("a second Sync pushed again: %v, %d pushes, %d checkpoints", err, fp.puts, fp.checkpoints)
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
	if len(fp.gone) != 1 || fp.gone[0] != uint64(a.Object) || fp.puts != 2 {
		t.Errorf("after the unlinks: deletes %v, %d pushes; want [%d] and no push of the dead", fp.gone, fp.puts, a.Object)
	}
}

// TestSyncAndPersistPassTheMonitor: a thread that can read a segment but not
// modify it can neither mark it persistent nor have an OpSync push or commit
// it — the ordinary label error, before the pager hears anything — while a
// thread that may still can, in the same batch.
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
	r := reader.NewRing()
	r.Submit(RingEntry{Op: OpSync, Seg: ce}, RingEntry{Op: OpSync, Seg: env.segs[0]})
	comps, err := r.Wait(2)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(comps[0].Err, ErrLabel) || comps[1].Err != nil {
		t.Errorf("OpSync = (%v, %v), want (ErrLabel, nil)", comps[0].Err, comps[1].Err)
	}
	if _, pushed := fp.data[uint64(guarded)]; pushed || fp.puts != 1 {
		t.Errorf("the pager was handed the guarded segment (%d pushes)", fp.puts)
	}
	if len(fp.groups) != 1 || len(fp.groups[0]) != 1 || fp.groups[0][0] != uint64(env.segs[0].Object) {
		t.Errorf("sync groups %v, want only [[%d]]", fp.groups, env.segs[0].Object)
	}
}
