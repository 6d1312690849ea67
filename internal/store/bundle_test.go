package store

// Tests for snapshot bundles and O(metadata) clones: capture semantics,
// idempotence by lineage, extent-pin accounting against the cleaner and the
// deferred-free path, WAL and metadata-snapshot durability, and the
// crash/bit-rot matrices extended to snapshot/clone workloads.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"histar/internal/btree"
	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/vclock"
)

// snapshotBundle registers a bundle under a lineage hashed from its name (the
// kernel hashes what it captured) and returns the lineage.
func snapshotBundle(s *Store, name string, ids []uint64) (uint64, error) {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64(), s.SnapshotBundle(h.Sum64(), name, ids)
}

// bundleTable counts the registered bundles, the objects they captured, the
// bytes they pin, and the extents with more than one referent.
func bundleTable(s *Store) (bundles, objects int, pinned int64, shared int) {
	s.metaMu.RLock()
	defer s.metaMu.RUnlock()
	for _, b := range s.bundles {
		objects += len(b.Objects)
		for _, o := range b.Objects {
			pinned += o.Size
		}
	}
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	return len(s.bundles), objects, pinned, len(s.extRefs)
}

func bundlePayload(id uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(uint64(i) + id*31)
	}
	return b
}

func TestBundleSnapshotCloneBasic(t *testing.T) {
	s, _ := testStore(t)
	want := make(map[uint64][]byte)
	for i := uint64(1); i <= 4; i++ {
		want[i] = bundlePayload(i, 2048)
		if err := s.PutLabeled(i, rotLabel(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	lineage, err := snapshotBundle(s, "base", []uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if b, o, pinned, _ := bundleTable(s); b != 1 || o != 4 || pinned != 4*2048 || s.ValidateBundle(lineage) != nil {
		t.Fatalf("%d bundles of %d objects pin %d bytes, ValidateBundle = %v", b, o, pinned, s.ValidateBundle(lineage))
	}
	// Clone every object; contents and labels come along by reference.
	for i := uint64(1); i <= 4; i++ {
		if err := s.CloneObjectLabeled(lineage, i, 100+i, rotLabel(i)); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(100 + i)
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("clone %d = %d bytes, %v", 100+i, len(got), err)
		}
		lbl, has := s.Label(100 + i)
		if !has || !lbl.Equal(rotLabel(i)) {
			t.Fatalf("clone %d label = %v, %v", 100+i, lbl, has)
		}
	}
	// The clone and its source alias one extent.
	src, _ := s.lookupHome(1)
	dst, _ := s.lookupHome(101)
	if src != dst {
		t.Fatalf("clone home %+v != source home %+v", dst, src)
	}
	if b, o, pinned, shared := bundleTable(s); b != 1 || o != 4 || pinned != 4*2048 || shared != 4 {
		t.Fatalf("%d bundles of %d objects pin %d bytes, %d shared extents; want 1, 4, %d, 4", b, o, pinned, shared, 4*2048)
	}
	// A rewrite of the clone diverges it (copy-on-write at checkpoint
	// granularity) without touching the source.
	if err := s.Put(101, []byte("diverged")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(101); err != nil || string(got) != "diverged" {
		t.Fatalf("rewritten clone = %q, %v", got, err)
	}
	if got, err := s.Get(1); err != nil || !bytes.Equal(got, want[1]) {
		t.Fatalf("source changed by clone rewrite: %d bytes, %v", len(got), err)
	}
	if moved, _ := s.lookupHome(101); moved.off == src.off {
		t.Fatal("rewritten clone still aliases the shared extent")
	}
}

// The lineage is the kernel's: the store keeps one bundle per lineage, whatever
// order or multiplicity the ids arrive in, and registers a new one for a new
// lineage (a new name here; in the kernel, any change to what was captured).
func TestBundleLineageDeterministicAndIdempotent(t *testing.T) {
	s, _ := testStore(t)
	for i := uint64(1); i <= 3; i++ {
		if err := s.PutLabeled(i, rotLabel(i), bundlePayload(i, 512)); err != nil {
			t.Fatal(err)
		}
	}
	l1, err := snapshotBundle(s, "img", []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// The same lineage again (ids deduplicated, order irrelevant): no second
	// bundle, and the first is left as it was.
	if _, err := snapshotBundle(s, "img", []uint64{3, 1, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if b, o, _, _ := bundleTable(s); b != 1 || o != 3 {
		t.Fatalf("%d bundles of %d objects registered, want 1 of 3", b, o)
	}
	l3, err := snapshotBundle(s, "img2", []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if b, _, _, _ := bundleTable(s); b != 2 || l3 == l1 {
		t.Fatalf("%d bundles registered under %#x and %#x, want 2", b, l1, l3)
	}
}

func TestBundleCaptureRejections(t *testing.T) {
	s, _ := testStore(t)
	if err := s.Put(1, []byte("committed later")); err != nil {
		t.Fatal(err)
	}
	// Missing object.
	if _, err := snapshotBundle(s, "b", []uint64{1, 99}); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("bundle of missing object = %v", err)
	}
	// Dirty object: SnapshotBundle itself checkpoints first, so drive the
	// capture body directly the way a racing writer would be seen.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte("dirty again")); err != nil {
		t.Fatal(err)
	}
	if err := s.captureBundle(1, "b", []uint64{1}); !errors.Is(err, ErrNotCommitted) {
		t.Fatalf("capture of dirty object = %v", err)
	}
	// Unknown lineage and unknown source object for clones.
	if err := s.CloneObjectLabeled(777, 1, 50, label.New(label.L1)); !errors.Is(err, ErrNoSuchBundle) {
		t.Fatalf("clone from unknown lineage = %v", err)
	}
	lineage, err := snapshotBundle(s, "b", []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CloneObjectLabeled(lineage, 2, 50, label.New(label.L1)); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("clone of uncaptured object = %v", err)
	}
	// Occupied destination.
	if err := s.Put(50, []byte("here first")); err != nil {
		t.Fatal(err)
	}
	if err := s.CloneObjectLabeled(lineage, 1, 50, label.New(label.L1)); !errors.Is(err, ErrCloneExists) {
		t.Fatalf("clone onto occupied id = %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.CloneObjectLabeled(lineage, 1, 50, label.New(label.L1)); !errors.Is(err, ErrCloneExists) {
		t.Fatalf("clone onto committed id = %v", err)
	}
}

func TestBundleCloneLabelOverride(t *testing.T) {
	s, _ := testStore(t)
	if err := s.PutLabeled(1, rotLabel(1), bundlePayload(1, 256)); err != nil {
		t.Fatal(err)
	}
	lineage, err := snapshotBundle(s, "b", []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	over := label.New(label.L1, label.P(label.Category(40), label.L3), label.P(label.Category(41), label.L0))
	if err := s.CloneObjectLabeled(lineage, 1, 10, over); err != nil {
		t.Fatal(err)
	}
	lbl, has := s.Label(10)
	if !has || !lbl.Equal(over) {
		t.Fatalf("overridden label = %v, %v", lbl, has)
	}
	src, _ := s.Label(1)
	if src.Equal(over) {
		t.Fatal("override leaked onto the source")
	}
}

// TestBundlePinsBlockReclaimUntilDelete: deleting every source object must
// not free the extents a live bundle references — clones keep working — and
// DeleteBundle releases them.
func TestBundlePinsBlockReclaimUntilDelete(t *testing.T) {
	s, _ := testStore(t)
	const n, size = 8, 1 << 18
	want := make(map[uint64][]byte)
	ids := make([]uint64, 0, n)
	for i := uint64(1); i <= n; i++ {
		want[i] = bundlePayload(i, size)
		if err := s.Put(i, want[i]); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, i)
	}
	lineage, err := snapshotBundle(s, "golden", ids)
	if err != nil {
		t.Fatal(err)
	}
	// Drop every source and checkpoint repeatedly so the deferred-free path
	// and the segment cleaner both get their chance at the extents.
	for i := uint64(1); i <= n; i++ {
		if err := s.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	freeWhilePinned := s.FreeBytes()
	for i := uint64(1); i <= n; i++ {
		if err := s.CloneObjectLabeled(lineage, i, 100+i, label.New(label.L1)); err != nil {
			t.Fatalf("clone of deleted source %d: %v", i, err)
		}
		got, err := s.Get(100 + i)
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("clone %d after source delete = %d bytes, %v", 100+i, len(got), err)
		}
	}
	// Drop the clones and the bundle: now the bytes are reclaimable.
	for i := uint64(1); i <= n; i++ {
		if err := s.Delete(100 + i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DeleteBundle(lineage); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := s.FreeBytes(); after <= freeWhilePinned {
		t.Errorf("DeleteBundle did not release pinned space: %d -> %d", freeWhilePinned, after)
	}
	if err := s.DeleteBundle(lineage); !errors.Is(err, ErrNoSuchBundle) {
		t.Errorf("double DeleteBundle = %v", err)
	}
	if err := s.ValidateBundle(lineage); !errors.Is(err, ErrNoSuchBundle) {
		t.Errorf("ValidateBundle after delete = %v", err)
	}
	if err := s.CloneObjectLabeled(lineage, 1, 200, label.New(label.L1)); !errors.Is(err, ErrNoSuchBundle) {
		t.Errorf("clone after delete = %v", err)
	}
}

// TestBundleSurvivesCrashViaWAL: a bundle and its clones are durable the
// moment the calls return, before any later checkpoint.
func TestBundleSurvivesCrashViaWAL(t *testing.T) {
	s, d := testStore(t)
	data := bundlePayload(1, 4096)
	if err := s.PutLabeled(1, rotLabel(1), data); err != nil {
		t.Fatal(err)
	}
	lineage, err := snapshotBundle(s, "crashme", []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CloneObjectLabeled(lineage, 1, 2, rotLabel(1)); err != nil {
		t.Fatal(err)
	}
	over := label.New(label.L1, label.P(label.Category(9), label.L0))
	if err := s.CloneObjectLabeled(lineage, 1, 3, over); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.ValidateBundle(lineage); err != nil {
		t.Fatalf("bundle lost by crash: %v", err)
	}
	for _, id := range []uint64{2, 3} {
		got, err := s2.Get(id)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("clone %d after crash = %d bytes, %v", id, len(got), err)
		}
	}
	if lbl, has := s2.Label(2); !has || !lbl.Equal(rotLabel(1)) {
		t.Fatalf("clone 2 label after crash = %v, %v", lbl, has)
	}
	if lbl, has := s2.Label(3); !has || !lbl.Equal(over) {
		t.Fatalf("clone 3 label after crash = %v, %v", lbl, has)
	}
	// The replayed aliases still share: a rewrite of one clone must not
	// disturb the other or the source.
	if err := s2.Put(2, []byte("private now")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(3); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("clone 3 after sibling rewrite = %d bytes, %v", len(got), err)
	}
	if got, err := s2.Get(1); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("source after clone rewrite = %d bytes, %v", len(got), err)
	}
}

// TestCloneRecordRidesTheCommitter: a clone record reaches the log the way a
// sync record does — enqueued with the committer, acknowledged by its batch's
// commit — so no other batch's DropPending can discard it after the call has
// returned.  With the committer held the clone blocks on a ticket; once
// released it is durable across a crash, whether its batch commits to the log
// or (small-log) is dropped whole and falls back to a checkpoint.
func TestCloneRecordRidesTheCommitter(t *testing.T) {
	for _, tc := range []struct {
		name    string
		logSize int64
		crowd   int // bytes synced beside the clone; with the small log the batch cannot fit
	}{{"log", 1 << 20, 0}, {"small-log-checkpoint-fallback", 64 << 10, 40 << 10}} {
		t.Run(tc.name, func(t *testing.T) {
			d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
			s, err := Format(d, Options{LogSize: tc.logSize})
			if err != nil {
				t.Fatal(err)
			}
			data := bundlePayload(1, 4096)
			if err := s.PutLabeled(1, rotLabel(1), data); err != nil {
				t.Fatal(err)
			}
			lineage, err := snapshotBundle(s, "held", []uint64{1})
			if err != nil {
				t.Fatal(err)
			}
			if tc.crowd > 0 {
				if err := s.Put(50, bundlePayload(50, tc.crowd)); err != nil {
					t.Fatal(err)
				}
				if err := s.SyncObject(50); err != nil {
					t.Fatal(err)
				}
				if err := s.Put(51, bundlePayload(51, tc.crowd)); err != nil {
					t.Fatal(err)
				}
			}
			over := label.New(label.L1, label.P(label.Category(9), label.L0))
			s.holdGroupCommit()
			done := make(chan error, 2)
			go func() { done <- s.CloneObjectLabeled(lineage, 1, 2, over) }()
			queued := 1
			if tc.crowd > 0 {
				go func() { done <- s.SyncObject(51) }()
				queued = 2
			}
			for deadline := time.Now().Add(10 * time.Second); s.groupQueueLen() < queued; {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d records queued: the clone record bypassed the committer", s.groupQueueLen(), queued)
				}
				time.Sleep(100 * time.Microsecond)
			}
			select {
			case err := <-done:
				t.Fatalf("an operation returned (%v) while the committer was held", err)
			default:
			}
			ckpts := s.Stats().Checkpoints
			s.releaseGroupCommit()
			for i := 0; i < queued; i++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			if fellBack := s.Stats().Checkpoints > ckpts; fellBack != (tc.crowd > 0) {
				t.Fatalf("checkpoint fallback taken = %v, want %v", fellBack, tc.crowd > 0)
			}
			d.Crash()
			s2, err := Open(d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, err := s2.Get(2); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("acknowledged clone after crash = %d bytes, %v", len(got), err)
			}
			if lbl, has := s2.Label(2); !has || !lbl.Equal(over) {
				t.Fatalf("acknowledged clone's label after crash = %v, %v", lbl, has)
			}
		})
	}
}

// TestBundlePersistsInMetadataSnapshot: from the first checkpoint after
// capture the bundle lives in the v4 metadata section, so it survives
// remounts whose WAL generations have long been reclaimed.
func TestBundlePersistsInMetadataSnapshot(t *testing.T) {
	s, d := testStore(t)
	if err := s.Put(1, bundlePayload(1, 1024)); err != nil {
		t.Fatal(err)
	}
	lineage, err := snapshotBundle(s, "persistent", []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	// Churn enough checkpoints that the capture generation's log is gone.
	for i := 0; i < 4; i++ {
		if err := s.Put(1000+uint64(i), bundlePayload(uint64(i), 64)); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if b := s2.bundles[lineage]; b == nil || b.Name != "persistent" || len(b.Objects) != 1 {
		t.Fatalf("bundle after checkpointed remount = %+v", b)
	}
	if err := s2.CloneObjectLabeled(lineage, 1, 5, label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(5); err != nil || !bytes.Equal(got, bundlePayload(1, 1024)) {
		t.Fatalf("clone from remounted bundle = %d bytes, %v", len(got), err)
	}
}

func TestBundleRetentionFloor(t *testing.T) {
	s, _ := testStore(t)
	if s.bundleRetentionFloor(10) != ^uint64(0) {
		t.Fatal("empty bundle table should not constrain reclamation")
	}
	if err := s.Put(1, []byte("pinned")); err != nil {
		t.Fatal(err)
	}
	lineage, err := snapshotBundle(s, "floor", []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	e := s.bundles[lineage].Epoch
	// The capture generation must be retained until two later snapshots
	// committed (finishing epoch E+2), and released after.
	if got := s.bundleRetentionFloor(e + 1); got != e {
		t.Fatalf("floor at epoch %d = %d, want %d", e+1, got, e)
	}
	if got := s.bundleRetentionFloor(e + 2); got != ^uint64(0) {
		t.Fatalf("floor at epoch %d = %d, want none", e+2, got)
	}
}

// --- crash matrix over snapshot/clone workloads ----------------------------

// bundleCrashModel tracks what the bundle workload committed before a crash.
type bundleCrashModel struct {
	m             *refModel
	lineage       uint64 // expected lineage (deterministic, from clean pass)
	bundleDurable bool
}

// runBundleWorkload drives the fixed snapshot/clone/cleaner sequence until
// the armed fault fires, keeping the model in step.  The sequence covers the
// matrix cases: crash mid-snapshot (inside the capture checkpoint or the WAL
// bundle record), mid-clone (inside the clone record commit), and
// mid-cleaner-with-live-bundle (the checkpoints after the source deletes).
func runBundleWorkload(t *testing.T, s *Store, bm *bundleCrashModel) bool {
	t.Helper()
	fault := func(err error) bool {
		if err == nil {
			return false
		}
		if errors.Is(err, disk.ErrFault) {
			return true
		}
		t.Fatalf("bundle workload op failed with non-fault error: %v", err)
		return true
	}
	src := func(i uint64) objState {
		return objState{exists: true, data: bundlePayload(i, 900+int(i)), lbl: rotLabel(i), hasLabel: true}
	}
	for i := uint64(1); i <= 6; i++ {
		st := src(i)
		if fault(s.PutLabeled(i, st.lbl, st.data)) {
			return true
		}
		bm.m.push(i, st)
		if fault(s.SyncObject(i)) {
			return true
		}
		bm.m.commit(i)
	}
	lineage, err := snapshotBundle(s, "crash-img", []uint64{1, 2, 3, 4, 5, 6})
	if fault(err) {
		return true
	}
	if bm.lineage != 0 && lineage != bm.lineage {
		t.Fatalf("lineage not deterministic across replays: %#x != %#x", lineage, bm.lineage)
	}
	bm.lineage, bm.bundleDurable = lineage, true
	bm.m.commitAll() // SnapshotBundle checkpointed
	for i := uint64(1); i <= 3; i++ {
		if fault(s.CloneObjectLabeled(lineage, i, 100+i, rotLabel(i))) {
			return true
		}
		bm.m.push(100+i, src(i))
		bm.m.commit(100 + i) // clone records are committed on return
	}
	// Diverge one clone: its rewrite must not bleed into the bundle.
	re := objState{exists: true, data: []byte("rewritten-101"), lbl: rotLabel(1), hasLabel: true}
	if fault(s.Put(101, re.data)) {
		return true
	}
	bm.m.push(101, re)
	if fault(s.SyncObject(101)) {
		return true
	}
	bm.m.commit(101)
	// Delete sources while the bundle lives, then checkpoint twice: the
	// cleaner and deferred-free path run against pinned extents.
	for _, i := range []uint64{4, 5} {
		if fault(s.Delete(i)) {
			return true
		}
		bm.m.push(i, objState{exists: false})
	}
	for round := 0; round < 2; round++ {
		if fault(s.Checkpoint()) {
			return true
		}
		bm.m.commitAll()
	}
	// A clone of a deleted source: only the bundle pin keeps these bytes.
	if fault(s.CloneObjectLabeled(lineage, 4, 104, rotLabel(4))) {
		return true
	}
	bm.m.push(104, src(4))
	bm.m.commit(104)
	return false
}

// verifyBundleRecovery checks the reopened image: every committed object and
// clone via the generic model, then the bundle itself — if its capture was
// reported durable it must be present and still cloneable with exact bytes.
// Whether or not the capture completed, a lineage that resolves must never
// serve wrong bytes.
func verifyBundleRecovery(t *testing.T, dev disk.Device, bm *bundleCrashModel, point string) {
	t.Helper()
	s := verifyRecovery(t, dev, bm.m, point)
	if t.Failed() {
		return
	}
	if bm.lineage == 0 {
		return // crashed before the clean pass could even learn the lineage
	}
	present := !errors.Is(s.ValidateBundle(bm.lineage), ErrNoSuchBundle)
	if bm.bundleDurable && !present {
		t.Errorf("%s: committed bundle %#x lost", point, bm.lineage)
		return
	}
	if !present {
		return
	}
	if err := s.ValidateBundle(bm.lineage); err != nil {
		t.Errorf("%s: recovered bundle fails validation: %v", point, err)
		return
	}
	// Object 6 is never deleted or rewritten by the workload, so a fresh
	// clone of it must reproduce the captured bytes exactly.
	if err := s.CloneObjectLabeled(bm.lineage, 6, 900, rotLabel(6)); err != nil {
		t.Errorf("%s: clone from recovered bundle: %v", point, err)
		return
	}
	want := bundlePayload(6, 906)
	got, err := s.Get(900)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("%s: clone from recovered bundle = %d bytes, %v; want %d bytes", point, len(got), err, len(want))
	}
}

// TestCrashDuringBundleOpsEveryPoint replays the snapshot/clone workload
// with a fault injected at every write boundary a fault-free pass recorded
// (plus torn midpoints), reopening and verifying each time: no committed
// snapshot or clone is lost, no shared extent is reclaimed while referenced,
// and recovered bundles clone back byte-exact.
func TestCrashDuringBundleOpsEveryPoint(t *testing.T) {
	// Fault-free pass: learn the write boundaries and the lineage.
	s, fd := newCrashRig(t)
	fd.Arm(-1, disk.FaultTorn)
	clean := &bundleCrashModel{m: newRefModel()}
	if runBundleWorkload(t, s, clean) {
		t.Fatal("fault-free bundle pass crashed")
	}
	verifyBundleRecovery(t, fd.Inner(), clean, "clean")
	if t.Failed() {
		return
	}
	points := crashPoints(fd.WriteBounds())
	if testing.Short() {
		// Every third point still lands inside snapshots, clones, and the
		// cleaner checkpoints.
		thin := points[:0]
		for i, p := range points {
			if i%3 == 0 {
				thin = append(thin, p)
			}
		}
		points = thin
	}
	for _, mode := range []disk.FaultMode{disk.FaultTorn, disk.FaultOmit} {
		for _, pt := range points {
			s, fd := newCrashRig(t)
			fd.Arm(pt, mode)
			bm := &bundleCrashModel{m: newRefModel(), lineage: clean.lineage}
			crashed := runBundleWorkload(t, s, bm)
			if !crashed && fd.Tripped() {
				t.Fatalf("bundle %v@%d: fault tripped but no op reported it", mode, pt)
			}
			verifyBundleRecovery(t, fd.Inner(), bm, fmt.Sprintf("bundle %v@%d", mode, pt))
			if t.Failed() {
				return // one failing crash point is enough detail
			}
		}
	}
}

// --- bit-rot ladder over shared extents ------------------------------------

// TestBitRotSharedExtentQuarantinesEveryClone extends the rot ladder to
// bundles: damage in an extent shared by a bundle, its source, and several
// clones quarantines every referent with typed errors, refuses further
// clones, fails bundle validation — and never serves the bad bytes.
func TestBitRotSharedExtentQuarantinesEveryClone(t *testing.T) {
	// Whichever read path touches the rotted extent first — a Get through a
	// clone, or a scrub pass — the verdict must reach every referent.
	t.Run("first-touch-get", func(t *testing.T) {
		testSharedExtentRot(t, func(s *Store) {
			if _, err := s.Get(11); !errors.Is(err, ErrQuarantined) || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get(clone) over rotted extent = %v", err)
			}
		})
	})
	t.Run("first-touch-scrub", func(t *testing.T) {
		testSharedExtentRot(t, func(s *Store) {
			if st, err := s.Scrub(); err != nil || st.ObjectsQuarantined != 4 {
				t.Fatalf("scrub over rotted shared extent = %+v, %v; want 4 objects quarantined", st, err)
			}
		})
	})
}

func testSharedExtentRot(t *testing.T, firstTouch func(*Store)) {
	s, fd := rotStore(t)
	data := bundlePayload(1, 8192)
	if err := s.PutLabeled(1, rotLabel(1), data); err != nil {
		t.Fatal(err)
	}
	if err := s.PutLabeled(2, rotLabel(2), bundlePayload(2, 512)); err != nil {
		t.Fatal(err)
	}
	lineage, err := snapshotBundle(s, "golden", []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	clones := []uint64{11, 12, 13}
	for _, dst := range clones {
		if err := s.CloneObjectLabeled(lineage, 1, dst, rotLabel(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Remount cold so reads come from the (rotted) extent, then damage the
	// shared extent with an odd flip count (deterministically detected).
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, ok := s2.objMap.Get(btree.K1(1))
	if !ok {
		t.Fatal("source has no home extent")
	}
	if err := fd.RotBits(disk.Region{Off: int64(off), Len: int64(len(data))}, 1, 21); err != nil {
		t.Fatal(err)
	}
	// Detection must propagate to the source, every clone, and the bundle
	// entry.
	firstTouch(s2)
	for _, id := range []uint64{1, 11, 12, 13} {
		gerr := func() error { _, err := s2.Get(id); return err }()
		if !errors.Is(gerr, ErrQuarantined) {
			t.Fatalf("referent %d of rotted extent = %v; want ErrQuarantined", id, gerr)
		}
		var qe *QuarantineError
		if !errors.As(gerr, &qe) || qe.ID != id {
			t.Fatalf("referent %d quarantine error untyped: %v", id, gerr)
		}
	}
	// Further clones of the rotted entry refuse, typed.
	if err := s2.CloneObjectLabeled(lineage, 1, 14, rotLabel(1)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("clone of rotted bundle entry = %v", err)
	}
	if _, err := s2.Get(14); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("refused clone left a destination behind: %v", err)
	}
	// The lineage gate the kernel uses before a golden-image restore fails.
	if err := s2.ValidateBundle(lineage); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("ValidateBundle over rotted extent = %v", err)
	}
	if rotted := s2.bundles[lineage].rotted; len(rotted) != 1 {
		t.Fatalf("bundle rot accounting = %v", rotted)
	}
	// The undamaged bundle entry keeps cloning.
	if err := s2.CloneObjectLabeled(lineage, 2, 22, rotLabel(2)); err != nil {
		t.Fatalf("clone of undamaged entry: %v", err)
	}
	if got, err := s2.Get(22); err != nil || !bytes.Equal(got, bundlePayload(2, 512)) {
		t.Fatalf("clone of undamaged entry = %d bytes, %v", len(got), err)
	}
	// A rewrite gives one clone fresh private contents and lifts only its
	// quarantine; its siblings stay typed-failed.
	if err := s2.Put(12, []byte("healed by rewrite")); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(12); err != nil || string(got) != "healed by rewrite" {
		t.Fatalf("rewritten clone = %q, %v", got, err)
	}
	if _, err := s2.Get(13); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("sibling clone after rewrite = %v", err)
	}
}
