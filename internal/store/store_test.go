package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
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

func TestEvictCacheForcesDiskReads(t *testing.T) {
	s, d := testStore(t)
	payload := bytes.Repeat([]byte("y"), 4096)
	for i := uint64(0); i < 20; i++ {
		s.Put(i, payload)
	}
	s.Checkpoint()
	s.EvictCache()
	readsBefore := d.Stats().Reads
	if err := s.PageIn(4); err != nil || d.Stats().Reads == readsBefore {
		t.Errorf("PageIn of an evicted object: %v; it should have hit the disk", err)
	}
	readsBefore = d.Stats().Reads
	got, err := s.Get(3)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get after evict: %v", err)
	}
	if d.Stats().Reads == readsBefore {
		t.Error("uncached Get should have hit the disk: object 3 should have been evicted")
	}
	readsBefore = d.Stats().Reads
	if err := s.PageIn(3); err != nil || s.PageIn(4) != nil || s.PageIn(999) != nil {
		t.Errorf("PageIn of resident and of unknown objects: %v; only damage is an error", err)
	}
	if d.Stats().Reads != readsBefore {
		t.Error("Get and PageIn should repopulate the cache")
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

func TestCloseRejectsFurtherUse(t *testing.T) {
	s, _ := testStore(t)
	s.Put(1, []byte("x"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, []byte("y")); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after close: %v", err)
	}
	if _, err := s.Get(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after close: %v", err)
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
	if st.Puts != 1 || st.Gets != 1 || st.ObjectSyncs != 1 || st.Checkpoints != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.LiveObjects != 1 {
		t.Errorf("live objects = %d", st.LiveObjects)
	}
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
	// canonical form, with fingerprints recomputed on load.
	r, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[uint64]label.Label{1: taint, 2: plain, 3: user} {
		got, ok := r.Label(id)
		if !ok || !got.Equal(want) {
			t.Errorf("Label(%d) = %v, %v; want %v", id, got, ok, want)
			continue
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("Label(%d) fingerprint = %x, want %x", id, got.Fingerprint(), want.Fingerprint())
		}
		if got.RaisedFingerprint() != want.RaisedFingerprint() {
			t.Errorf("Label(%d) raised fingerprint mismatch", id)
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
	if got.Fingerprint() != taint.Fingerprint() {
		t.Error("fingerprint not rebuilt on replay")
	}
	data, err := s2.Get(9)
	if err != nil || string(data) != "secret" {
		t.Fatalf("contents after crash: %q, %v", data, err)
	}
}

func TestOpenHonoursSuperblockGeometry(t *testing.T) {
	// Format with non-default log and metadata sizes; Open with zero
	// options must read the geometry back from the superblock.
	d := disk.New(disk.Params{Sectors: 1 << 14, WriteCache: true}, &vclock.Clock{}) // 8 MB
	s, err := Format(d, Options{LogSize: 128 << 10, MetaAreaSize: 256 << 10})
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
