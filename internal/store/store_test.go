package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/vclock"
)

// whole, as PutLabeled's end of range, says every byte may have changed.
const whole = math.MaxInt

func testStore(t *testing.T) (*Store, *disk.Disk) {
	t.Helper()
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{}) // 128 MB
	s, err := Format(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

func TestPutGetDelete(t *testing.T) {
	s, _ := testStore(t)
	if err := s.Put(1, []byte("object one")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(1)
	if err != nil || string(got) != "object one" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(1); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("Get after delete: %v", err)
	}
	if _, err := s.Get(999); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("Get of never-created object: %v", err)
	}
}

func TestCheckpointPersistsAcrossRemount(t *testing.T) {
	s, d := testStore(t)
	for i := uint64(0); i < 100; i++ {
		s.Put(i, []byte(fmt.Sprintf("object-%d-contents", i)))
	}
	s.Delete(50)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Remount as after a reboot.
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		got, err := s2.Get(i)
		if i == 50 {
			if !errors.Is(err, ErrNoSuchObject) {
				t.Errorf("deleted object survived remount: %v", err)
			}
			continue
		}
		if err != nil || string(got) != fmt.Sprintf("object-%d-contents", i) {
			t.Fatalf("object %d after remount: %q, %v", i, got, err)
		}
	}
}

func TestAsyncWritesLostOnCrashSyncedSurvive(t *testing.T) {
	s, d := testStore(t)
	s.Put(1, []byte("synced data"))
	s.Put(2, []byte("async data"))
	if err := s.SyncObject(1); err != nil {
		t.Fatal(err)
	}
	// Crash: lose the disk write cache and remount without checkpointing.
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(1)
	if err != nil || string(got) != "synced data" {
		t.Errorf("synced object after crash: %q, %v", got, err)
	}
	if _, err := s2.Get(2); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("async object should be lost after crash, got err=%v", err)
	}
}

func TestSyncedDeleteSurvivesCrash(t *testing.T) {
	s, d := testStore(t)
	s.Put(1, []byte("to be removed"))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Delete(1)
	if err := s.SyncObject(1); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(1); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("synced delete should survive crash: %v", err)
	}
}

func TestGroupSyncCheaperThanPerObjectSync(t *testing.T) {
	// The single-level store's group sync should beat per-object sync by a
	// large factor on many-small-object workloads (the paper reports up to
	// ~200x for the LFS small-file benchmark).
	mk := func() (*Store, *vclock.Clock) {
		clk := &vclock.Clock{}
		d := disk.New(disk.Params{
			Sectors:              1 << 18,
			SeekTime:             8500000,
			RotationalLatency:    4150000,
			BandwidthBytesPerSec: 58e6,
			WriteCache:           true,
		}, clk)
		s, err := Format(d, Options{LogSize: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		clk.Reset()
		return s, clk
	}
	data := bytes.Repeat([]byte("x"), 1024)

	perObj, clk1 := mk()
	for i := uint64(0); i < 200; i++ {
		perObj.Put(i, data)
		if err := perObj.SyncObject(i); err != nil {
			t.Fatal(err)
		}
	}
	perObjTime := clk1.Now()

	group, clk2 := mk()
	for i := uint64(0); i < 200; i++ {
		group.Put(i, data)
	}
	if err := group.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	groupTime := clk2.Now()

	if groupTime*10 > perObjTime {
		t.Errorf("group sync (%v) should be at least 10x cheaper than per-object sync (%v)", groupTime, perObjTime)
	}
}

// TestEvictCacheForcesDiskReads: once a checkpoint has committed, a Get of a
// clean object reads its home extent, every time — the store keeps nothing it
// read, and EvictCache has nothing left to drop.
func TestEvictCacheForcesDiskReads(t *testing.T) {
	s, d := testStore(t)
	payload := bytes.Repeat([]byte("y"), 4096)
	for i := uint64(0); i < 20; i++ {
		s.Put(i, payload)
	}
	s.Checkpoint()
	s.EvictCache()
	for round := 0; round < 2; round++ {
		readsBefore := d.Stats().Reads
		if got, err := s.Get(3); err != nil || !bytes.Equal(got, payload) || d.Stats().Reads == readsBefore {
			t.Errorf("Get %d of a clean object: %v; it should have read the disk", round, err)
		}
	}
	if _, err := s.Get(999); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("Get of an unknown object: %v, want ErrNoSuchObject", err)
	}
}

// residentContents counts the entries holding contents and the content bytes
// every entry holds, resident or not.
func residentContents(s *Store) (entries, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.objs {
		if e.resident() {
			entries++
		}
		bytes += len(e.data)
	}
	return entries, bytes
}

// TestCommitEvictsStoreCopies: the store holds an object's contents only while
// no committed home does — dirty, or sealed into a checkpoint still running —
// so once a checkpoint has committed with nothing dirty it holds no content
// byte, an empty object included, and a put after that dirties only its own
// object again.
func TestCommitEvictsStoreCopies(t *testing.T) {
	s, _ := testStore(t)
	payload := bytes.Repeat([]byte("y"), 4096)
	for i := uint64(0); i < 20; i++ {
		s.Put(i, payload)
	}
	s.Put(20, nil)
	if n, b := residentContents(s); n != 21 || b != 20*4096 {
		t.Fatalf("before the checkpoint: %d entries hold %d bytes, want 21 and %d", n, b, 20*4096)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n, b := residentContents(s); n != 0 || b != 0 {
		t.Fatalf("after the checkpoint: %d entries hold %d bytes, want none", n, b)
	}
	if got, err := s.Get(20); err != nil || len(got) != 0 {
		t.Errorf("the empty object after the checkpoint: %q, %v", got, err)
	}
	if err := s.Put(5, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if n, b := residentContents(s); n != 1 || b != 5 {
		t.Errorf("after one put: %d entries hold %d bytes, want 1 and 5", n, b)
	}
	for i := uint64(0); i < 20; i++ {
		want := payload
		if i == 5 {
			want = []byte("again")
		}
		if got, err := s.Get(i); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("object %d: %.8q, %v", i, got, err)
		}
	}
}

func TestLogFullTriggersCheckpointAndRetry(t *testing.T) {
	// A tiny log forces SyncObject to checkpoint and retry when it fills.
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("z"), 8*1024)
	for i := uint64(0); i < 20; i++ {
		s.Put(i, payload)
		if err := s.SyncObject(i); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	if s.Stats().Checkpoints == 0 {
		t.Error("expected at least one checkpoint forced by a full log")
	}
	// Everything is still readable.
	for i := uint64(0); i < 20; i++ {
		if got, err := s.Get(i); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("object %d: %v", i, err)
		}
	}
}

func TestObjectGrowthRelocatesExtent(t *testing.T) {
	s, _ := testStore(t)
	s.Put(7, []byte("small"))
	s.Checkpoint()
	big := bytes.Repeat([]byte("B"), 64*1024)
	s.Put(7, big)
	s.Checkpoint()
	got, err := s.Get(7)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("after growth: %v (len %d)", err, len(got))
	}
	s.EvictCache()
	got, err = s.Get(7)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("after growth, uncached: %v (len %d)", err, len(got))
	}
}

func TestSameSizeRewriteIsCopyOnWrite(t *testing.T) {
	// A same-size update must not be rewritten over the snapshot's extent (a
	// torn write would destroy the only copy); it relocates, and the vacated
	// extent returns to the free list, so net free space is unchanged.
	s, _ := testStore(t)
	payload := bytes.Repeat([]byte("a"), 8192)
	s.Put(3, payload)
	s.Checkpoint()
	free := s.FreeBytes()
	update := bytes.Repeat([]byte("b"), 8192)
	s.Put(3, update)
	s.Checkpoint()
	if got := s.FreeBytes(); got != free {
		t.Errorf("same-size rewrite changed free space: %d -> %d", free, got)
	}
	s.EvictCache()
	got, err := s.Get(3)
	if err != nil || !bytes.Equal(got, update) {
		t.Fatalf("rewrite: %v", err)
	}
}

func TestFreeSpaceReclaimedOnDelete(t *testing.T) {
	s, _ := testStore(t)
	before := s.FreeBytes()
	payload := bytes.Repeat([]byte("c"), 1<<20)
	for i := uint64(0); i < 10; i++ {
		s.Put(i, payload)
	}
	s.Checkpoint()
	mid := s.FreeBytes()
	if mid >= before {
		t.Fatalf("allocations did not consume space: %d -> %d", before, mid)
	}
	for i := uint64(0); i < 10; i++ {
		s.Delete(i)
	}
	s.Checkpoint()
	after := s.FreeBytes()
	if after <= mid {
		t.Errorf("deletes did not reclaim space: %d -> %d", mid, after)
	}
}

// TestCloseRejectsFurtherUse: every entry point that reads or changes the
// store answers ErrClosed once it is closed, a second Close included.
func TestCloseRejectsFurtherUse(t *testing.T) {
	s, _ := testStore(t)
	s.Put(1, []byte("x"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, []byte("y")); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after close: %v", err)
	}
	if err := s.PutLabeled(2, label.New(label.L1), []byte("y"), 0, whole); !errors.Is(err, ErrClosed) {
		t.Errorf("PutLabeled after close: %v", err)
	}
	if _, err := s.Get(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after close: %v", err)
	}
	if err := s.Delete(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after close: %v", err)
	}
	if err := s.SyncObject(1); !errors.Is(err, ErrClosed) {
		t.Errorf("SyncObject after close: %v", err)
	}
	errs := s.SyncObjects([]uint64{1, 2, 3})
	if len(errs) != 3 {
		t.Errorf("SyncObjects after close: %d error slots for 3 ids", len(errs))
	}
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("SyncObjects after close, slot %d: %v", i, err)
		}
	}
	if err := s.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint after close: %v", err)
	}
	if _, err := s.Scrub(); !errors.Is(err, ErrClosed) {
		t.Errorf("Scrub after close: %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("a second Close: %v", err)
	}
}

func TestOpenRejectsUnformattedDisk(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 16}, &vclock.Clock{})
	if _, err := Open(d, Options{}); err == nil {
		t.Error("opening an unformatted disk should fail")
	}
}

func TestStatsTracking(t *testing.T) {
	s, _ := testStore(t)
	s.Put(1, []byte("a"))
	s.Get(1)
	s.SyncObject(1)
	s.Checkpoint()
	st := s.Stats()
	if st.ObjectSyncs != 1 || st.Checkpoints != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.LiveObjects != 1 {
		t.Errorf("live objects = %d", st.LiveObjects)
	}
}

// LiveObjects counts what a Get finds: an object deleted since the last
// checkpoint is gone though its home stays until the next one, and a new
// object sealed into a running checkpoint is live before its home exists.
func TestLiveObjectsCountsWhatGetFinds(t *testing.T) {
	s, _ := testStore(t)
	live := func(when string, want int) {
		t.Helper()
		if n := s.Stats().LiveObjects; n != want {
			t.Errorf("%s: %d live objects, want %d", when, n, want)
		}
	}
	for id := uint64(1); id <= 3; id++ {
		if err := s.Put(id, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(2); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("Get of the deleted object: %v, want ErrNoSuchObject", err)
	}
	live("after Delete", 2)
	if err := s.SyncObject(2); err != nil {
		t.Fatal(err)
	}
	live("after the tombstone's sync", 2)
	if err := s.Put(4, []byte("y")); err != nil {
		t.Fatal(err)
	}
	s.ckptGate = func() { live("between a checkpoint's seal and body", 3) }
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.ckptGate = nil
	live("after the checkpoint", 3)
}

func TestLabelPersistence(t *testing.T) {
	s, d := testStore(t)
	taint := label.New(label.L1, label.P(label.Category(17), label.L3))
	plain := label.New(label.L1)
	user := label.New(label.L1,
		label.P(label.Category(3), label.L3), label.P(label.Category(9), label.L0))
	if err := s.PutLabeled(1, taint, []byte("tainted file"), 0, whole); err != nil {
		t.Fatal(err)
	}
	if err := s.PutLabeled(2, plain, []byte("public file"), 0, whole); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(3, []byte("unlabeled")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutLabeled(3, user, []byte("unlabeled"), 0, whole); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Label(1); !ok || !got.Equal(taint) {
		t.Fatalf("Label(1) = %v, %v", got, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: labels must be restored from the checkpointed metadata in
	// canonical form.
	r, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[uint64]label.Label{1: taint, 2: plain, 3: user} {
		got, ok := r.Label(id)
		if !ok || !got.Equal(want) {
			t.Errorf("Label(%d) = %v, %v; want %v", id, got, ok, want)
		}
	}
	data, err := r.Get(1)
	if err != nil || string(data) != "tainted file" {
		t.Fatalf("Get(1) = %q, %v", data, err)
	}
}

func TestLabelDroppedWithDelete(t *testing.T) {
	s, _ := testStore(t)
	if err := s.PutLabeled(7, label.New(label.L2), []byte("x"), 0, whole); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(7); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Label(7); ok {
		t.Error("label should be dropped with the object")
	}
}

// TestCleanEntriesLeaveTheStore: once a checkpoint commits, an object's
// label lives in its home record and nowhere else, so the store keeps no
// entry for a clean object, labelled or not, and a remount makes none.
// Label still answers from the home, and a put or a sync without a label
// keeps the one the home records, across a checkpoint and a crash.
func TestCleanEntriesLeaveTheStore(t *testing.T) {
	s, d := testStore(t)
	for round := 0; round < 2; round++ {
		for id := uint64(1); id <= 100; id++ {
			if err := s.PutLabeled(id, rotLabel(id%5), []byte(fmt.Sprintf("round %d, object %d", round, id)), 0, whole); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *Store, where string) {
		t.Helper()
		s.mu.Lock()
		n := len(s.objs)
		s.mu.Unlock()
		if n != 0 {
			t.Errorf("%s: the store keeps %d entries for clean objects; want none", where, n)
		}
		for id := uint64(1); id <= 100; id++ {
			if got, ok := s.Label(id); !ok || !got.Equal(rotLabel(id%5)) {
				t.Fatalf("%s: Label(%d) = %v, %v; want %v", where, id, got, ok, rotLabel(id%5))
			}
		}
	}
	check(s, "after the checkpoints")
	s2, err := Open(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check(s2, "after a remount")
	if err := s2.Put(7, []byte("rewritten without a label")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(8, []byte("synced without a label")); err != nil {
		t.Fatal(err)
	}
	if err := s2.SyncObject(8); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	s3, err := Open(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{7, 8} {
		if got, ok := s3.Label(id); !ok || !got.Equal(rotLabel(id%5)) {
			t.Errorf("Label(%d) after an unlabelled put = %v, %v; want %v", id, got, ok, rotLabel(id%5))
		}
	}
}

func TestSyncObjectPersistsLabelAcrossCrash(t *testing.T) {
	// The motivating bug for the WAL label records: before labels rode in
	// the log, a crash after SyncObject resurrected the object with no
	// label at all.
	s, d := testStore(t)
	taint := label.New(label.L1, label.P(label.Category(42), label.L3))
	if err := s.PutLabeled(9, taint, []byte("secret"), 0, whole); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncObject(9); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Label(9)
	if !ok || !got.Equal(taint) {
		t.Fatalf("label after crash = %v, %v; want %v", got, ok, taint)
	}
	data, err := s2.Get(9)
	if err != nil || string(data) != "secret" {
		t.Fatalf("contents after crash: %q, %v", data, err)
	}
}

// TestReplayedLabelOwnsItsBytes: a replayed entry's label is its own, not a
// slice of the log read its record came from, so the read is garbage once
// Open returns.  Here a 900 KiB unlabeled object shares one log frame with a
// labeled one, then is deleted: what the reopened store holds stays far
// below the frame.
func TestReplayedLabelOwnsItsBytes(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 16, WriteCache: true}, &vclock.Clock{})
	opts := Options{LogSize: 4 << 20}
	s, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(
		s.PutLabeled(1, rotLabel(1), []byte("labeled"), 0, whole),
		s.Put(2, make([]byte, 900<<10)),
	); err != nil {
		t.Fatal(err)
	}
	commits := s.WALStats().Commits
	if err := errors.Join(s.SyncObjects([]uint64{1, 2})...); err != nil {
		t.Fatal(err)
	}
	if n := s.WALStats().Commits - commits; n != 1 {
		t.Fatalf("the two syncs took %d frames, want one", n)
	}
	if err := errors.Join(s.Delete(2), s.SyncObject(2)); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s2, err := Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := int64(after.HeapAlloc) - int64(before.HeapAlloc); got > 256<<10 {
		t.Errorf("the reopened store holds %d KiB more heap, want under 256: a replayed label pins its log read", got>>10)
	}
	if lbl, ok := s2.Label(1); !ok || !lbl.Equal(rotLabel(1)) {
		t.Fatalf("label after the crash = %v, %v", lbl, ok)
	}
}

func TestOpenHonoursSuperblockGeometry(t *testing.T) {
	// Format with non-default log and metadata sizes; Open with zero
	// options must read the geometry back from the superblock.
	d := disk.New(disk.Params{Sectors: 1 << 14, WriteCache: true}, &vclock.Clock{}) // 8 MB
	s, err := Format(d, Options{LogSize: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	lbl := label.New(label.L1, label.P(label.Category(5), label.L3))
	if err := s.PutLabeled(1, lbl, []byte("geometry"), 0, whole); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncObject(1); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	s2, err := Open(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if data, err := s2.Get(1); err != nil || string(data) != "geometry" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if got, ok := s2.Label(1); !ok || !got.Equal(lbl) {
		t.Fatalf("label = %v, %v", got, ok)
	}
}

func TestSyncObjectLogFullFallbackIsDurable(t *testing.T) {
	// Fill the log region until SyncObject's commit returns ErrFull and the
	// automatic Checkpoint-and-retry path runs, then crash: both the
	// checkpointed objects and the retried record (with its label) must
	// survive recovery.
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	taint := label.New(label.L1, label.P(label.Category(3), label.L3))
	payload := bytes.Repeat([]byte("z"), 8*1024)
	for i := uint64(0); i < 20; i++ {
		if err := s.PutLabeled(i, taint, payload, 0, whole); err != nil {
			t.Fatal(err)
		}
		if err := s.SyncObject(i); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	if s.Stats().Checkpoints == 0 {
		t.Fatal("expected the full log to force a checkpoint")
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		if got, err := s2.Get(i); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("object %d after crash: %v", i, err)
		}
		if lbl, ok := s2.Label(i); !ok || !lbl.Equal(taint) {
			t.Fatalf("label %d after crash: %v, %v", i, lbl, ok)
		}
	}
}

func TestSyncObjectOversizeRecordFallsBackToCheckpoint(t *testing.T) {
	// A record that cannot fit even in an empty log is dropped from the log
	// (it could never commit and would wedge every later sync) and made
	// durable through the fallback checkpoint instead.
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 64*1024)
	taint := label.New(label.L1, label.P(label.Category(8), label.L3))
	if err := s.PutLabeled(1, taint, big, 0, whole); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncObject(1); err != nil {
		t.Fatalf("oversize sync: %v", err)
	}
	if s.Stats().Checkpoints == 0 {
		t.Fatal("fallback checkpoint should have run")
	}
	// The log is not wedged: small syncs still work, exactly once each.
	if err := s.Put(2, []byte("small")); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncObject(2); err != nil {
		t.Fatalf("small sync after oversize: %v", err)
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(1); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("oversize object after crash: %v (%d bytes)", err, len(got))
	}
	if lbl, ok := s2.Label(1); !ok || !lbl.Equal(taint) {
		t.Fatalf("oversize object's label after crash: %v, %v", lbl, ok)
	}
	if got, err := s2.Get(2); err != nil || string(got) != "small" {
		t.Fatalf("small object after crash: %q, %v", got, err)
	}
}

func TestRecreateAfterLoggedTombstoneSurvivesResync(t *testing.T) {
	// Regression: the log can hold [data, tombstone, data] for one object.
	// Replay must clear the dead flag on the re-create, or the next
	// SyncObject logs a spurious deletion and the committed object is lost
	// on the following crash.
	s, d := testStore(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Put(5, []byte("first")))
	must(s.SyncObject(5))
	must(s.Delete(5))
	must(s.SyncObject(5))
	must(s.Put(5, []byte("second")))
	must(s.SyncObject(5))
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	must(err)
	if got, err := s2.Get(5); err != nil || string(got) != "second" {
		t.Fatalf("after first crash: %q, %v", got, err)
	}
	// The latent bug fired only on the next sync + crash.
	must(s2.SyncObject(5))
	d.Crash()
	s3, err := Open(d, Options{LogSize: 1 << 20})
	must(err)
	if got, err := s3.Get(5); err != nil || string(got) != "second" {
		t.Fatalf("re-created object lost after resync + crash: %q, %v", got, err)
	}
}

func TestSyncAfterUnlabeledRecreateClearsCheckpointedLabel(t *testing.T) {
	// An object can lose its label with no tombstone ever logged: delete and
	// re-create between syncs.  The label-less sync record is authoritative,
	// so replay must clear the checkpointed label rather than resurrect it.
	s, d := testStore(t)
	taint := label.New(label.L1, label.P(label.Category(6), label.L3))
	if err := s.PutLabeled(5, taint, []byte("labeled"), 0, whole); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(5, []byte("reborn, unlabeled")); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncObject(5); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(5); err != nil || string(got) != "reborn, unlabeled" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if lbl, ok := s2.Label(5); ok {
		t.Errorf("stale checkpointed label resurrected: %v", lbl)
	}
}

// TestSyncFallbackNoSpace fills a small store through per-object syncs until
// the data region runs out.  The log fills first, so syncs fall back to
// checkpoints, and the checkpoint that finds no free segment fails the sync
// typed: that slot and the next Checkpoint both answer ErrNoSpace.  Nothing
// acknowledged before it is lost across a crash.
func TestSyncFallbackNoSpace(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 12, WriteCache: true}, &vclock.Clock{}) // 2 MiB
	opts := Options{LogSize: 64 << 10, SegmentSize: 64 << 10}
	s, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(id uint64) []byte { return bytes.Repeat([]byte{byte(id), byte(id >> 8)}, 4096) }
	var acked []uint64
	for id := uint64(1); ; id++ {
		if id > 1000 {
			t.Fatal("a 2 MiB store took 1000 objects of 8 KiB without running out of space")
		}
		if err := s.Put(id, payload(id)); err != nil {
			t.Fatal(err)
		}
		err := s.SyncObjects([]uint64{id})[0]
		if err == nil {
			acked = append(acked, id)
			continue
		}
		if !errors.Is(err, ErrNoSpace) {
			t.Fatalf("sync of object %d: %v, want ErrNoSpace", id, err)
		}
		break
	}
	if err := s.Checkpoint(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("checkpoint after the failed sync: %v, want ErrNoSpace", err)
	}
	d.Crash()
	s2, err := Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range acked {
		if got, err := s2.Get(id); err != nil || !bytes.Equal(got, payload(id)) {
			t.Fatalf("acknowledged object %d after the crash: %d bytes, %v", id, len(got), err)
		}
	}
	t.Logf("first sync refused at object %d; %d acknowledged objects read back", len(acked)+1, len(acked))
}

// TestDataRegionFullIsNoSpace: a checkpoint that finds the data region full
// is refused as ErrNoSpace — by Checkpoint, and by the checkpoint a sync falls
// back to — and the store comes back from a crash at its last committed
// snapshot with every acknowledged object and without the refused one.
func TestDataRegionFullIsNoSpace(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 13, WriteCache: true}, &vclock.Clock{}) // 4 MiB
	opts := Options{LogSize: 64 << 10, SegmentSize: 64 << 10}
	s, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	contents := func(id uint64) []byte { return []byte{byte(id)} }
	var acked []uint64
	var committed uint64
	for next := uint64(1); ; {
		if next > 10000 {
			t.Fatal("a 4 MiB store took 10,000 objects")
		}
		batch := make([]uint64, 100)
		for i := range batch {
			batch[i] = next
			if err := s.Put(next, contents(next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := errors.Join(s.SyncObjects(batch)...); err != nil {
			t.Fatalf("sync of objects %d–%d: %v", batch[0], batch[len(batch)-1], err)
		}
		acked = append(acked, batch...)
		err := s.Checkpoint()
		if err == nil {
			committed = s.committedEpoch()
			continue
		}
		if !errors.Is(err, ErrNoSpace) {
			t.Fatalf("checkpoint of %d objects: %v, want ErrNoSpace", len(acked), err)
		}
		break
	}
	// A record larger than the log goes to the checkpoint fallback, which
	// meets the same full region.
	big := uint64(1 << 40)
	if err := s.Put(big, make([]byte, 2*opts.LogSize)); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncObject(big); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("sync through the checkpoint fallback: %v, want ErrNoSpace", err)
	}
	d.Crash()
	s2, err := Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.RecoveryReport().MetaEpoch; got != committed {
		t.Errorf("reopened at snapshot epoch %d, want the last committed one, %d", got, committed)
	}
	for _, id := range acked {
		if got, err := s2.Get(id); err != nil || !bytes.Equal(got, contents(id)) {
			t.Fatalf("acknowledged object %d after the crash: %q, %v", id, got, err)
		}
	}
	if _, err := s2.Get(big); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("the refused object after the crash: %v, want ErrNoSuchObject", err)
	}
	t.Logf("the data region filled at %d objects", len(acked))
}

// TestBaseLargerThanTheOldAreaRemounts: a base is placed in the data region
// like any other chain record, so one over 16 MiB — the size of each of the
// two fixed areas bases once alternated between — checkpoints, and the store
// remounts from it with every object and label, reading the base in one
// device read.  Labels of 500 categories make each home row about 4.5 KiB,
// so a few thousand one-byte objects make the base.
func TestBaseLargerThanTheOldAreaRemounts(t *testing.T) {
	d := disk.New(disk.Params{Sectors: (64 << 20) / disk.SectorSize}, &vclock.Clock{})
	opts := Options{LogSize: 1 << 20}
	s, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]label.Pair, 500)
	for i := range pairs {
		pairs[i] = label.P(label.Category(i+1), label.L3)
	}
	lbl := label.New(label.L1, pairs...)
	rec := len(appendHome(nil, 1, home{}, lbl.AppendBinary(nil)))
	n := uint64((16<<20)/rec + 200)
	for id := uint64(1); id <= n; id++ {
		if err := s.PutLabeled(id, lbl, []byte{byte(id)}, 0, whole); err != nil {
			t.Fatal(err)
		}
	}
	// The first checkpoint commits the objects as a delta; the second finds
	// the chain over half the base, and writes one.
	for i := 0; i < 2; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d of %d objects with %d-byte records: %v", i+1, n, rec, err)
		}
	}
	if len(s.chain) != 1 || s.base.ext.size <= 16<<20 {
		t.Fatalf("the second checkpoint wrote no base over 16 MiB: %d bytes, %d deltas since", s.base.ext.size, len(s.chain)-1)
	}
	d.Crash()
	reads := d.Stats().Reads
	if _, err := s.readBase(s.base.ext); err != nil || d.Stats().Reads-reads != 1 {
		t.Fatalf("reading the %d-byte base took %d device reads (%v); want one", s.base.ext.size, d.Stats().Reads-reads, err)
	}
	s2, err := Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep := s2.RecoveryReport(); rep.Degraded() || rep.MetaEpoch != s.committedEpoch() {
		t.Fatalf("remount of a %d-byte base: %+v, want a clean mount at epoch %d", s.base.ext.size, rep, s.committedEpoch())
	}
	for id := uint64(1); id <= n; id++ {
		got, err := s2.Get(id)
		if err != nil || len(got) != 1 || got[0] != byte(id) {
			t.Fatalf("object %d after the remount: %q, %v", id, got, err)
		}
		if l, ok := s2.Label(id); !ok || !l.Equal(lbl) {
			t.Fatalf("object %d's label after the remount: %v, %v", id, l, ok)
		}
	}
}

// wedgePayload is object id's contents in the full-store tests.
func wedgePayload(id uint64) []byte { return bytes.Repeat([]byte{byte(id), byte(id >> 8)}, 4096) }

// wedgedStore formats a 2 MiB store on d and fills it one checkpointed 8 KiB
// object at a time until a checkpoint finds no space, then deletes every odd
// object below the one that did not fit, which stays dirty.  It returns the
// store, that object's id and the free bytes before the deletes.
func wedgedStore(t *testing.T, d disk.Device) (s *Store, full uint64, free int64) {
	t.Helper()
	s, err := Format(d, Options{LogSize: 64 << 10, SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); full == 0; id++ {
		if id > 1000 {
			t.Fatal("a 2 MiB store took 1000 objects of 8 KiB")
		}
		if err := s.Put(id, wedgePayload(id)); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); errors.Is(err, ErrNoSpace) {
			full = id
		} else if err != nil {
			t.Fatal(err)
		}
	}
	free = s.FreeBytes()
	for id := uint64(1); id < full; id += 2 {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return s, full, free
}

// checkWedged checks what a wedged store holds: every even object below full
// with its contents and, unless deletes may have been lost (a crash before
// they committed), no odd one; an odd one that is there, and full, whole.
func checkWedged(t *testing.T, s *Store, full uint64, deletesLost bool) {
	t.Helper()
	for id := uint64(1); id <= full; id++ {
		got, err := s.Get(id)
		switch {
		case (id%2 == 1 && id < full || id == full && deletesLost) && errors.Is(err, ErrNoSuchObject):
		case id%2 == 1 && id < full && !deletesLost:
			t.Fatalf("deleted object %d: %d bytes, %v", id, len(got), err)
		case err != nil || !bytes.Equal(got, wedgePayload(id)):
			t.Fatalf("object %d: %d bytes, %v", id, len(got), err)
		}
	}
}

// TestCheckpointUnwedgesAfterDeletes: each deleted object's space is free
// only once a snapshot without it commits, so after the deletes of
// wedgedStore the next checkpoint must commit them before it needs the space
// — rather than fail for good, as it did while it asked for a fresh segment
// first.  Every surviving object reads back, across a crash too.
func TestCheckpointUnwedgesAfterDeletes(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 12, WriteCache: true}, &vclock.Clock{}) // 2 MiB
	s, full, before := wedgedStore(t, d)
	for try := 0; ; try++ {
		err := s.Checkpoint()
		if err == nil {
			break
		}
		if try == 4 {
			t.Fatalf("object %d found no space; after deleting every odd object below it, five checkpoints failed, the last with %v (%d bytes free, %d before the deletes)",
				full, err, s.FreeBytes(), before)
		}
	}
	checkWedged(t, s, full, false)
	d.Crash()
	s2, err := Open(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkWedged(t, s2, full, false)
	t.Logf("object %d found no space with %d bytes free; after the deletes the checkpoint left %d", full, before, s.FreeBytes())
}

// TestUnwedgingCheckpointCrashes crashes the checkpoint that unwedges a
// wedgedStore at every write boundary and midway through each write — in its
// deletions-only commit and in the relocation after it — and reopens: every
// kept object is there, a deleted one is gone or whole, the object that did
// not fit is absent or whole, and a checkpoint succeeds.  Where the
// deletions-only commit is the chain's last delta, at the committed epoch,
// rot in it falls back one delta, to the same epoch, with nothing lost.
func TestUnwedgingCheckpointCrashes(t *testing.T) {
	newDisk := func() (*disk.Disk, *disk.FaultDisk) {
		d := disk.New(disk.Params{Sectors: 1 << 12, WriteCache: true}, &vclock.Clock{})
		return d, disk.NewFaultDisk(d)
	}
	_, fd := newDisk()
	s, full, _ := wedgedStore(t, fd)
	epoch, links := s.metaEpoch, len(s.chain)-1
	fd.Arm(-1, disk.FaultTorn) // counting: record every write's end
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fallbacks := 0
	for _, point := range crashPoints(fd.WriteBounds()) {
		d, fd := newDisk()
		s, _, _ := wedgedStore(t, fd)
		fd.Arm(point, disk.FaultTorn)
		_ = s.Checkpoint() // fails at the crash point, or commits before it
		d.Crash()
		fd2 := disk.NewFaultDisk(d)
		s2, err := Open(fd2, Options{})
		if err != nil {
			t.Fatalf("crash at byte %d of the unwedging checkpoint: reopen: %v", point, err)
		}
		checkWedged(t, s2, full, true)
		if s2.metaEpoch == epoch && len(s2.chain)-1 == links+1 {
			fallbacks++
			last := s2.chain[len(s2.chain)-1]
			if err := fd2.RotBits(disk.Region{Off: last.off, Len: last.size - runHeaderSize}, 3, point); err != nil {
				t.Fatal(err)
			}
			s3, err := Open(fd2, Options{})
			if err != nil {
				t.Fatalf("crash at byte %d, then rot in the deletions-only delta: reopen: %v", point, err)
			}
			if s3.metaEpoch != epoch || len(s3.chain)-1 != links {
				t.Fatalf("crash at byte %d, then rot in the deletions-only delta: %d deltas to epoch %d; want %d to %d", point, len(s3.chain)-1, s3.metaEpoch, links, epoch)
			}
			checkWedged(t, s3, full, true)
			s2 = s3
		}
		if err := s2.Checkpoint(); err != nil {
			t.Fatalf("crash at byte %d of the unwedging checkpoint: the checkpoint after reopening: %v", point, err)
		}
	}
	if fallbacks == 0 {
		t.Fatal("no crash point left the deletions-only commit the last delta")
	}
}

// TestFailedRelocationVacatesWhatItWrote fills a store with 8 KiB objects
// until a checkpoint finds no space.  Then a 4 KiB object finds room and the
// 8 KiB one sealed after it none: the checkpoint fails, and the home it
// placed for the first object must not count as live, since no table names
// it, nor keep the room it took: the free list, the segment table, the open
// segment's appends and every live count are as the last commit left them.
// Both objects stay readable, and a checkpoint after two deletes commits
// them.
func TestFailedRelocationVacatesWhatItWrote(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 12, WriteCache: true}, &vclock.Clock{}) // 2 MiB
	s, err := Format(d, Options{LogSize: 64 << 10, SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(1)
	for ; ; id++ {
		if err := s.Put(id, make([]byte, 8<<10)); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); errors.Is(err, ErrNoSpace) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(id); err != nil { // it never found a home
		t.Fatal(err)
	}
	small, big := bytes.Repeat([]byte{1}, 4<<10), bytes.Repeat([]byte{2}, 8<<10)
	if err := s.Put(id+1, small); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(id+2, big); err != nil {
		t.Fatal(err)
	}
	layout := func() string {
		s.mu.Lock()
		defer s.mu.Unlock()
		out := fmt.Sprintf("free %v, open segment %+v;", s.free, *s.openSeg)
		for _, seg := range s.segs {
			out += fmt.Sprintf(" %+v", *seg)
		}
		return out
	}
	before := layout()
	if s.FreeBytes() < int64(len(small)) {
		t.Fatalf("%d bytes free: the 4 KiB object finds no room", s.FreeBytes())
	}
	if err := s.Checkpoint(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("checkpoint of an 8 KiB object with %d bytes free: %v, want ErrNoSpace", s.FreeBytes(), err)
	}
	if after := layout(); after != before {
		t.Fatalf("the failed checkpoint changed the allocator's tables:\n before %s\n after  %s", before, after)
	}
	s.mu.Lock()
	msg := segLiveMismatch(s)
	s.mu.Unlock()
	if msg != "" {
		t.Fatal(msg)
	}
	// The last objects that fitted took extents of their own, no segment
	// being free: deleting two of them frees room for the 8 KiB object.
	for _, id := range []uint64{id - 1, id - 2} {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the deletes: %v", err)
	}
	for want, id := range map[string]uint64{string(small): id + 1, string(big): id + 2} {
		if _, ok := s.homeOf(id); !ok {
			t.Errorf("object %d has no home after the checkpoint", id)
		}
		if got, err := s.Get(id); err != nil || string(got) != want {
			t.Fatalf("object %d: %d bytes, %v", id, len(got), err)
		}
	}
}

// TestEveryHomeLiesInASegment: an object over half a segment is homed in a
// segment of its own, sized to it in whole sectors, and so is any object a
// checkpoint homes once no free extent holds a whole segment; neither kind
// ever takes appends.  An empty object takes a sector, so the segment around
// it stays live when its neighbours die.  After every checkpoint every home
// lies in a segment, below its used mark, and a remount, which refuses any
// other layout, comes back clean with every object whole.
func TestEveryHomeLiesInASegment(t *testing.T) {
	const segSize = 64 << 10
	d := disk.New(disk.Params{Sectors: 1 << 12, WriteCache: true}, &vclock.Clock{}) // 2 MiB
	s, err := Format(d, Options{LogSize: 256 << 10, SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64][]byte{}
	put := func(id uint64, n int) {
		t.Helper()
		b := bytes.Repeat([]byte{byte(id), byte(id >> 8), 7}, n)[:n]
		if err := s.Put(id, b); err != nil {
			t.Fatal(err)
		}
		want[id] = b
	}
	// check returns how many small objects are homed in segments of their own.
	check := func(where string) (fallbacks int) {
		t.Helper()
		s.mu.Lock()
		if _, err := s.deriveFree(0, true); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		for _, h := range s.homes {
			seg := s.segContaining(h.off)
			own := seg.base == h.off && seg.used == seg.size && seg.size == align512(h.size)
			if h.size > segSize/2 && !own || own && seg == s.openSeg {
				t.Fatalf("%s: object %d (%d bytes) is homed at %d in the segment at %d (size %d, used %d, open %v)",
					where, h.id, h.size, h.off, seg.base, seg.size, seg.used, seg == s.openSeg)
			}
			if own && h.size <= segSize/2 {
				fallbacks++
			}
		}
		s.mu.Unlock()
		s2, err := Open(d, Options{SegmentSize: segSize})
		if err != nil {
			t.Fatalf("%s: reopen: %v", where, err)
		}
		if s2.RecoveryReport().Degraded() {
			t.Fatalf("%s: reopen degraded: %+v", where, s2.RecoveryReport())
		}
		for id, b := range want {
			if got, err := s2.Get(id); err != nil || !bytes.Equal(got, b) {
				t.Fatalf("%s: object %d after a reopen: %d bytes, %v; want %d", where, id, len(got), err, len(b))
			}
		}
		return fallbacks
	}
	put(1, segSize/2+1)
	put(2, segSize)
	put(3, 3*segSize)
	put(4, 0)
	for id := uint64(10); id < 31; id++ { // the segment, but for a sector or three
		put(id, 3000)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("over half a segment")
	// The superseded own segments come free; the empty object's segment,
	// open no longer, loses every other object and must not be dropped
	// under it.
	put(1, segSize/2+512)
	put(3, 2*segSize)
	for id := uint64(10); id < 31; id++ {
		delete(want, id)
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(40); id < 60; id++ {
		put(id, 3000)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("superseded")
	fallbacks := 0
	for id := uint64(100); fallbacks == 0; id += 8 {
		for i := id; i < id+8; i++ {
			put(i, 6000)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("the store filled up before a checkpoint homed an object in a segment of its own: %v", err)
		}
		fallbacks = check(fmt.Sprintf("objects %d to %d", id, id+7))
	}
}
