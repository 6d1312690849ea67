package unixlib

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"histar/internal/disk"
	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/store"
	"histar/internal/vclock"
)

// crashAndReopen drops the disk's unflushed writes and mounts the store again.
func crashAndReopen(t *testing.T, st *store.Store) *store.Store {
	t.Helper()
	d := st.Disk().(*disk.Disk)
	d.Crash()
	st2, err := store.Open(d, store.Options{LogSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return st2
}

// bakeBlobs bakes a public image of one segment per blob.
func bakeBlobs(t *testing.T, sys *System, blobs ...[]byte) *GoldenImage {
	t.Helper()
	img, err := sys.BakeGolden("img", nil, func(tc *kernel.ThreadCall, sandbox kernel.ID) error {
		for _, data := range blobs {
			id, err := tc.SegmentCreate(sandbox, label.New(label.L1), "blob", len(data))
			if err != nil {
				return err
			}
			if err := tc.SegmentWrite(kernel.CEnt{Container: sandbox, Object: id}, 0, data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// abc is three 4 KiB blobs of 'a', 'b' and 'c'.
func abc() [][]byte {
	return [][]byte{bytes.Repeat([]byte("a"), 4096), bytes.Repeat([]byte("b"), 4096), bytes.Repeat([]byte("c"), 4096)}
}

// spawnedSegments lists the segments of a spawned sandbox's root container.
func spawnedSegments(t *testing.T, tc *kernel.ThreadCall, root kernel.ID) []kernel.CEnt {
	t.Helper()
	kids, err := tc.ContainerList(kernel.Self(root))
	if err != nil {
		t.Fatal(err)
	}
	var segs []kernel.CEnt
	for _, kid := range kids {
		if st, err := tc.ObjectStat(kernel.CEnt{Container: root, Object: kid}); err == nil && st.Type == kernel.ObjSegment {
			segs = append(segs, kernel.CEnt{Container: root, Object: kid})
		}
	}
	return segs
}

// TestStoreObjectsDieWithTheirSegments: a sandbox spawned from a golden image
// is torn down by unreferencing its container, not by unlinking names, and
// the store objects it made persistent — with the private copy of what it
// wrote — must go with it.
func TestStoreObjectsDieWithTheirSegments(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	tc := sys.InitThread()
	root := sys.Kern.RootContainer()
	img := bakeBlobs(t, sys, abc()...)
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	before := st.Stats().LiveObjects

	scratch, err := tc.ContainerCreate(root, label.New(label.L1), "scratch", 0, kernel.QuotaInfinite)
	if err != nil {
		t.Fatal(err)
	}
	sandbox, err := sys.SpawnFromGolden(tc, img, scratch, nil)
	if err != nil {
		t.Fatal(err)
	}
	blobs := spawnedSegments(t, tc, sandbox)
	if len(blobs) != 3 {
		t.Fatalf("sandbox segments = %v", blobs)
	}
	for _, ce := range blobs {
		if err := tc.SegmentPersist(ce); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.SegmentWrite(blobs[0], 0, []byte("private")); err != nil {
		t.Fatal(err)
	}
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().LiveObjects; got != before+3 {
		t.Fatalf("live store objects with the sandbox = %d, want %d", got, before+3)
	}
	if got, err := st.Get(uint64(blobs[0].Object)); err != nil || !bytes.HasPrefix(got, []byte("private")) {
		t.Fatalf("the sandbox's written blob in the store = %.8q, %v", got, err)
	}

	if err := tc.Unref(root, scratch); err != nil {
		t.Fatal(err)
	}
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().LiveObjects; got != before {
		t.Errorf("live store objects after the teardown = %d, want %d as before the spawn", got, before)
	}
	st2 := crashAndReopen(t, st)
	for _, ce := range blobs {
		if _, err := st2.Get(uint64(ce.Object)); !errors.Is(err, store.ErrNoSuchObject) {
			t.Errorf("sandbox blob %d after crash and reopen: %v, want ErrNoSuchObject", ce.Object, err)
		}
	}
}

// TestGoldenMasterStoreObjectsDieWithTheirSegments: a bake makes the image's
// segments store objects, and the build's scratch segments none, so once the
// image container is unreferenced its store objects go like anyone else's —
// while a sandbox spawned before keeps reading what it shared.
func TestGoldenMasterStoreObjectsDieWithTheirSegments(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	tc := sys.InitThread()
	root := sys.Kern.RootContainer()
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	before, free := st.Stats().LiveObjects, st.FreeBytes()
	img := bakeBlobs(t, sys, abc()...)
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().LiveObjects; got != before+3 {
		t.Fatalf("live store objects with the image = %d, want %d", got, before+3)
	}
	scratch, err := tc.ContainerCreate(root, label.New(label.L1), "scratch", 0, kernel.QuotaInfinite)
	if err != nil {
		t.Fatal(err)
	}
	sandbox, err := sys.SpawnFromGolden(tc, img, scratch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Unref(root, img.Root); err != nil {
		t.Fatal(err)
	}
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().LiveObjects; got != before {
		t.Errorf("live store objects after the image's unref = %d, want %d as before the bake", got, before)
	}
	sys.EvictFileCache()
	for i, ce := range spawnedSegments(t, tc, sandbox) {
		if got, err := tc.SegmentRead(ce, 0, 4096); err != nil || len(got) != 4096 || bytes.Count(got, got[:1]) != 4096 {
			t.Errorf("sandbox blob %d reads %.4q, %v", i, got, err)
		}
	}
	if err := tc.Unref(root, scratch); err != nil {
		t.Fatal(err)
	}
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.FreeBytes(); got != free {
		t.Errorf("free bytes after the sandbox's teardown = %d, want %d as before the bake", got, free)
	}
}

// TestGoldenBakeAndSpawnCommits: a bake is one WAL commit for all of its
// segments and no checkpoint, and a spawn, which makes no store object,
// neither — not one commit per segment, every commit a flush.
func TestGoldenBakeAndSpawnCommits(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	tc := sys.InitThread()
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	ckpts, commits := st.Stats().Checkpoints, st.WALStats().Commits
	img := bakeBlobs(t, sys, abc()...)
	if c, w := st.Stats().Checkpoints-ckpts, st.WALStats().Commits-commits; c != 0 || w != 1 {
		t.Errorf("baking 3 segments: %d checkpoints and %d WAL commits, want 0 and 1", c, w)
	}
	ckpts, commits = st.Stats().Checkpoints, st.WALStats().Commits
	if _, err := sys.SpawnFromGolden(tc, img, sys.Kern.RootContainer(), nil); err != nil {
		t.Fatal(err)
	}
	if c, w := st.Stats().Checkpoints-ckpts, st.WALStats().Commits-commits; c != 0 || w != 0 {
		t.Errorf("a spawn of 3 segments: %d checkpoints and %d WAL commits, want none", c, w)
	}
}

// TestSpawnFromRottedGoldenFailsTyped: an evicted image pages in verified, so
// once its bytes have rotted on the device a spawn from it fails — with the
// kernel's ErrCorrupt and the store's own typed error in one chain — and
// leaves nothing behind; the image's undamaged sibling would still have been
// copied, but a sandbox is all of its segments or none.
func TestSpawnFromRottedGoldenFailsTyped(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	tc := sys.InitThread()
	root := sys.Kern.RootContainer()
	pub := label.New(label.L1)
	marker := bytes.Repeat([]byte("golden-blob-to-rot/"), 200)
	img := bakeBlobs(t, sys, []byte("an undamaged sibling"), marker)
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	scratch, err := tc.ContainerCreate(root, pub, "scratch", 0, kernel.QuotaInfinite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SpawnFromGolden(tc, img, scratch, nil); err != nil {
		t.Fatalf("spawn from the healthy image: %v", err)
	}
	// Flip one bit of the blob's home extent — its last copy on the device;
	// the log may hold an earlier one — and evict the image.
	d := st.Disk()
	chunk := make([]byte, 1<<20+len(marker))
	at := int64(-1)
	for off := int64(0); off < d.Size(); off += 1 << 20 {
		n, _ := d.ReadAt(chunk[:min(int64(len(chunk)), d.Size()-off)], off)
		if i := bytes.LastIndex(chunk[:n], marker); i >= 0 {
			at = off + int64(i)
		}
	}
	if at < 0 {
		t.Fatal("the blob is nowhere on the device")
	}
	if _, err := d.WriteAt([]byte{marker[7] ^ 0x10}, at+7); err != nil {
		t.Fatal(err)
	}
	sys.EvictFileCache()
	second, err := tc.ContainerCreate(root, pub, "second", 0, kernel.QuotaInfinite)
	if err != nil {
		t.Fatal(err)
	}
	objects, live := sys.Kern.ObjectCount(), st.Stats().LiveObjects
	_, err = sys.SpawnFromGolden(tc, img, second, nil)
	if !errors.Is(err, kernel.ErrCorrupt) || !errors.Is(err, store.ErrQuarantined) {
		t.Fatalf("spawn from the rotted image: %v; want kernel.ErrCorrupt and store.ErrQuarantined", err)
	}
	if ents, err := tc.ContainerList(kernel.Self(second)); err != nil || len(ents) != 0 {
		t.Errorf("the failed spawn published %v, %v", ents, err)
	}
	if got := sys.Kern.ObjectCount(); got != objects {
		t.Errorf("the failed spawn left %d kernel objects behind", got-objects)
	}
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().LiveObjects; got != live {
		t.Errorf("the failed spawn left %d store objects behind", got-live)
	}
}

// TestGoldenSpawnsAreIsolated: two sandboxes spawned from one image share its
// bytes until one writes, and the write reaches neither the image nor the
// other sandbox; the image itself refuses writes and new entries.
func TestGoldenSpawnsAreIsolated(t *testing.T) {
	sys := bootSys(t)
	tc := sys.InitThread()
	root := sys.Kern.RootContainer()
	img := bakeBlobs(t, sys, abc()...)
	if img.Objects != 4 || img.Bytes != 3*4096 {
		t.Errorf("image of %d objects and %d bytes, want 4 and %d", img.Objects, img.Bytes, 3*4096)
	}
	var sandboxes [2][]kernel.CEnt
	for i := range sandboxes {
		sandbox, err := sys.SpawnFromGolden(tc, img, root, nil)
		if err != nil {
			t.Fatal(err)
		}
		sandboxes[i] = spawnedSegments(t, tc, sandbox)
	}
	if err := tc.SegmentWrite(sandboxes[0][0], 0, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	image := spawnedSegments(t, tc, img.Root)
	for name, ce := range map[string]kernel.CEnt{"the image": image[0], "the other sandbox": sandboxes[1][0]} {
		if got, err := tc.SegmentRead(ce, 0, 4); err != nil || string(got) == "mine" {
			t.Errorf("%s reads %q, %v after a sandbox's write", name, got, err)
		}
	}
	if err := tc.SegmentWrite(image[0], 0, []byte("x")); !errors.Is(err, kernel.ErrImmutable) {
		t.Errorf("write to the image: %v, want ErrImmutable", err)
	}
	if _, err := tc.SegmentCreate(img.Root, label.New(label.L1), "extra", 8); !errors.Is(err, kernel.ErrImmutable) {
		t.Errorf("a new segment in the image: %v, want ErrImmutable", err)
	}
}

// TestGoldenSpawnCarriesTheUsersLabels: a spawn's containers and segments
// carry the build's labels with the template's categories replaced by the
// user's, so another user can neither read alice's sandbox nor write the
// image they both spawn from.
func TestGoldenSpawnCarriesTheUsersLabels(t *testing.T) {
	sys := bootSys(t)
	tmpl, err := sys.AddUser("template")
	if err != nil {
		t.Fatal(err)
	}
	img, err := sys.BakeGoldenData("img", tmpl, 4096)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := sys.NewInitProcess("bob")
	if err != nil {
		t.Fatal(err)
	}
	sandbox, err := sys.SpawnFromGolden(alice.TC, img, alice.ProcCt, alice.User)
	if err != nil {
		t.Fatal(err)
	}
	want := sandboxLabel(alice.User)
	segs := spawnedSegments(t, alice.TC, sandbox)
	for _, ce := range append(segs, kernel.CEnt{Container: alice.ProcCt, Object: sandbox}) {
		if st, err := alice.TC.ObjectStat(ce); err != nil || !st.Label.Equal(want) {
			t.Errorf("spawned object %v labeled %v, %v; want %v", ce.Object, st.Label, err, want)
		}
	}
	if got, err := alice.TC.SegmentRead(segs[0], 0, 4); err != nil || len(got) != 4 {
		t.Errorf("alice reads her sandbox: %q, %v", got, err)
	}
	if _, err := bob.TC.SegmentRead(segs[0], 0, 4); !errors.Is(err, kernel.ErrLabel) {
		t.Errorf("bob reads alice's sandbox: %v, want ErrLabel", err)
	}
	image := spawnedSegments(t, bob.TC, img.Root)
	if err := bob.TC.SegmentWrite(image[0], 0, []byte("bob")); !errors.Is(err, kernel.ErrImmutable) {
		t.Errorf("bob writes the image: %v, want ErrImmutable", err)
	}
}

// TestGoldenBakeSkipsThreadsAndRefusesGates: a spawn re-creates containers
// and copies segments.  A thread in the build is passive state the image
// leaves out; a gate it could not re-create, so a build that made one fails
// the bake with ErrInvalid and leaves no object behind.
func TestGoldenBakeSkipsThreadsAndRefusesGates(t *testing.T) {
	sys := bootSys(t)
	pub := label.New(label.L1)
	img, err := sys.BakeGolden("threaded", nil, func(tc *kernel.ThreadCall, sandbox kernel.ID) error {
		if _, err := tc.SegmentCreate(sandbox, pub, "blob", 8); err != nil {
			return err
		}
		_, err := tc.ThreadCreate(sandbox, kernel.ThreadSpec{Label: pub, Clearance: label.New(label.L2), Descrip: "builder"})
		return err
	})
	if err != nil || img.Objects != 2 {
		t.Fatalf("bake with a thread: %v, %d objects; want the container and the segment", err, img.Objects)
	}
	objects := sys.Kern.ObjectCount()
	_, err = sys.BakeGolden("gated", nil, func(tc *kernel.ThreadCall, sandbox kernel.ID) error {
		if _, err := tc.SegmentCreate(sandbox, pub, "blob", 8); err != nil {
			return err
		}
		_, err := tc.GateCreate(sandbox, kernel.GateSpec{
			Label:     pub,
			Clearance: label.New(label.L2),
			Entry:     func(*kernel.GateCallCtx) []byte { return nil },
		})
		return err
	})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("bake with a gate: %v, want ErrInvalid", err)
	}
	if got := sys.Kern.ObjectCount(); got != objects {
		t.Errorf("the refused bake left %d objects", got-objects)
	}
}

// TestMappedAndDirectWritesReachACheckpoint: the kernel marks a segment dirty
// at the one gate every mutation passes, so a store through a mapping and a
// bare SegmentWrite — neither of which comes through the library's writeAt —
// are in the next checkpoint like any other.
func TestMappedAndDirectWritesReachACheckpoint(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/tmp/f", bytes.Repeat([]byte("."), 64), label.Label{}); err != nil {
		t.Fatal(err)
	}
	if err := p.GroupSync(); err != nil {
		t.Fatal(err)
	}
	fd, err := p.Open("/tmp/f", OWrite)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := p.getFD(fd)
	const va = 1 << 30
	if err := p.TC.AddressSpaceAddMapping(p.AS, kernel.Mapping{VA: va, Seg: f.File, NPages: 1, Flags: kernel.MapRead | kernel.MapWrite}); err != nil {
		t.Fatal(err)
	}
	if err := p.TC.MemWrite(va+8, []byte("mapped")); err != nil {
		t.Fatal(err)
	}
	if err := p.TC.SegmentWrite(f.File, 32, []byte("bare")); err != nil {
		t.Fatalf("direct write: %v", err)
	}
	if err := p.GroupSync(); err != nil {
		t.Fatal(err)
	}
	got, err := crashAndReopen(t, st).Get(uint64(f.File.Object))
	if err != nil || len(got) != 64 || string(got[8:14]) != "mapped" || string(got[32:36]) != "bare" {
		t.Errorf("file after crash and reopen = %q, %v; want both writes", got, err)
	}
}

// TestSyncAndPersistPassTheMonitor: bob can read alice's file but not write
// it, so he can neither mark it persistent nor fsync it — the call fails with
// the kernel's label error and the store sees no push and no sync, although
// the file is dirty — while alice's own fsync goes through.
func TestSyncAndPersistPassTheMonitor(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	alice, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := sys.NewInitProcess("bob")
	if err != nil {
		t.Fatal(err)
	}
	guarded := label.New(label.L1, label.P(alice.User.Uw, label.L0))
	if err := alice.WriteFile("/tmp/guarded", []byte("alice's"), guarded); err != nil {
		t.Fatal(err)
	}
	fd, err := bob.Open("/tmp/guarded", ORead)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := bob.ReadFile("/tmp/guarded"); err != nil || string(got) != "alice's" {
		t.Fatalf("bob reading the file: %q, %v", got, err)
	}
	f, _ := bob.getFD(fd)
	before := st.Stats()
	if err := bob.TC.SegmentPersist(f.File); !errors.Is(err, kernel.ErrLabel) {
		t.Errorf("bob marking the file persistent: %v, want ErrLabel", err)
	}
	if err := bob.Fsync(fd); !errors.Is(err, ErrPermission) {
		t.Errorf("bob's fsync: %v, want ErrPermission", err)
	}
	if err := bob.FsyncMany([]int{fd}); !errors.Is(err, ErrPermission) {
		t.Errorf("bob's FsyncMany: %v, want ErrPermission", err)
	}
	if after := st.Stats(); after.BytesLogged != before.BytesLogged || after.ObjectSyncs != before.ObjectSyncs {
		t.Errorf("the store moved under bob: bytes logged %d → %d, syncs %d → %d",
			before.BytesLogged, after.BytesLogged, before.ObjectSyncs, after.ObjectSyncs)
	}
	if err := alice.FsyncPath("/tmp/guarded"); err != nil {
		t.Fatal(err)
	}
	if after := st.Stats(); after.BytesLogged == before.BytesLogged || after.ObjectSyncs != before.ObjectSyncs+1 {
		t.Errorf("alice's fsync: bytes logged %d → %d, syncs %d → %d; want the file logged by one sync",
			before.BytesLogged, after.BytesLogged, before.ObjectSyncs, after.ObjectSyncs)
	}
}

// TestPagerConcurrentWritersSurviveACrash races 8 writers (200 whole-record
// writes each, over 8 files apiece), 2 fsyncers and a group-syncer, then cuts
// power: every file comes back holding one whole record, at least as new as
// the newest version an acknowledged fsync or group sync was started after.
func TestPagerConcurrentWritersSurviveACrash(t *testing.T) {
	const writers, perWriter, writes, fsyncers = 8, 8, 200, 2
	const files = writers * perWriter
	sys, st, _ := bootSysPersist(t)
	record := func(f int, v int64) []byte { return []byte(fmt.Sprintf("file %02d version %06d", f, v)) }
	procs := make([]*Process, writers+fsyncers+1)
	for i := range procs {
		p, err := sys.NewInitProcess("alice")
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	path := func(f int) string { return fmt.Sprintf("/tmp/c%02d", f) }
	ids := make([]kernel.ID, files)
	for f := range ids {
		if err := procs[0].WriteFile(path(f), record(f, 0), label.Label{}); err != nil {
			t.Fatal(err)
		}
		fi, err := procs[0].Stat(path(f))
		if err != nil {
			t.Fatal(err)
		}
		ids[f] = fi.ID
	}
	if err := procs[0].GroupSync(); err != nil { // version 0 of every file is acknowledged
		t.Fatal(err)
	}
	// written[f] is the newest version a completed write left in file f;
	// acked[f] the newest one known written before an acknowledged sync began.
	var written, acked [files]atomic.Int64
	ack := func(f int, v int64) {
		for old := acked[f].Load(); v > old && !acked[f].CompareAndSwap(old, v); old = acked[f].Load() {
		}
	}
	var wg, writing sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		writing.Add(1)
		go func(w int, p *Process) {
			defer wg.Done()
			defer writing.Done()
			fds := make([]int, perWriter)
			for i := range fds {
				var err error
				if fds[i], err = p.Open(path(w*perWriter+i), OWrite); err != nil {
					t.Error(err)
					return
				}
			}
			for n := 0; n < writes; n++ {
				f := w*perWriter + n%perWriter
				v := written[f].Load() + 1
				if _, err := p.Pwrite(fds[n%perWriter], record(f, v), 0); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				written[f].Store(v)
			}
		}(w, procs[w])
	}
	for s := 0; s < fsyncers; s++ {
		wg.Add(1)
		go func(s int, p *Process) {
			defer wg.Done()
			for f := s; ; f = (f + fsyncers) % files {
				select {
				case <-done:
					return
				default:
				}
				v := written[f].Load()
				if err := p.FsyncPath(path(f)); err != nil {
					t.Errorf("fsyncer %d: %v", s, err)
					return
				}
				ack(f, v)
			}
		}(s, procs[writers+s])
	}
	wg.Add(1)
	go func(p *Process) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var seen [files]int64
			for f := range seen {
				seen[f] = written[f].Load()
			}
			if err := p.GroupSync(); err != nil {
				t.Errorf("group-syncer: %v", err)
				return
			}
			for f, v := range seen {
				ack(f, v)
			}
		}
	}(procs[writers+fsyncers])
	writing.Wait()
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}

	st2 := crashAndReopen(t, st)
	for f, id := range ids {
		got, err := st2.Get(uint64(id))
		lo, hi := acked[f].Load(), written[f].Load()
		if err != nil {
			t.Errorf("file %d (acknowledged at version %d): %v", f, lo, err)
			continue
		}
		var gf int
		var v int64
		if n, _ := fmt.Sscanf(string(got), "file %d version %d", &gf, &v); n != 2 || gf != f || !bytes.Equal(got, record(f, v)) {
			t.Errorf("file %d came back torn: %q", f, got)
		} else if v < lo || v > hi {
			t.Errorf("file %d came back at version %d, acknowledged %d, written %d", f, v, lo, hi)
		}
	}
}

// TestEvictedRotFailsEveryPath: a segment Evict dropped pages in at its next
// access, whichever path makes it — a read, a load through a mapping, a
// write — and a home extent that has rotted meanwhile fails that
// access with the kernel's ErrCorrupt and the store's typed error in one
// chain, and quarantines the object.
func TestEvictedRotFailsEveryPath(t *testing.T) {
	const va = 1 << 30
	pattern := bytes.Repeat([]byte("EVICTEDROT"), 400)
	for _, path := range []struct {
		name   string
		access func(p *Process, seg kernel.CEnt) error
	}{
		{"SegmentRead", func(p *Process, seg kernel.CEnt) error {
			_, err := p.TC.SegmentRead(seg, 0, 16)
			return err
		}},
		{"MemRead", func(p *Process, _ kernel.CEnt) error {
			_, err := p.TC.MemRead(va, 16)
			return err
		}},
		{"SegmentWrite", func(p *Process, seg kernel.CEnt) error {
			return p.TC.SegmentWrite(seg, 0, []byte("overwrite"))
		}},
	} {
		t.Run(path.name, func(t *testing.T) {
			d := disk.New(disk.Params{Sectors: 1 << 15, WriteCache: true}, &vclock.Clock{})
			fdisk := disk.NewFaultDisk(d)
			st, err := store.Format(fdisk, store.Options{LogSize: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			sys, err := Boot(BootOptions{Persist: st, KernelConfig: kernel.Config{Seed: 1}})
			if err != nil {
				t.Fatal(err)
			}
			p, err := sys.NewInitProcess("alice")
			if err != nil {
				t.Fatal(err)
			}
			if err := p.WriteFile("/tmp/victim", pattern, label.Label{}); err != nil {
				t.Fatal(err)
			}
			fd, err := p.Open("/tmp/victim", OWrite)
			if err != nil {
				t.Fatal(err)
			}
			f, _ := p.getFD(fd)
			if err := p.TC.AddressSpaceAddMapping(p.AS, kernel.Mapping{VA: va, Seg: f.File, NPages: 1, Flags: kernel.MapRead | kernel.MapWrite}); err != nil {
				t.Fatal(err)
			}
			if err := p.GroupSync(); err != nil {
				t.Fatal(err)
			}
			sys.EvictFileCache()
			img := make([]byte, fdisk.Size())
			if _, err := fdisk.ReadAt(img, 0); err != nil {
				t.Fatal(err)
			}
			off := int64(bytes.Index(img, pattern))
			if off < 0 {
				t.Fatal("the file's home extent is not on the device")
			}
			if err := fdisk.RotBits(disk.Region{Off: off, Len: int64(len(pattern))}, 1, 17); err != nil {
				t.Fatal(err)
			}
			err = path.access(p, f.File)
			if !errors.Is(err, kernel.ErrCorrupt) || !errors.Is(err, store.ErrQuarantined) {
				t.Fatalf("%s of the evicted, rotted file: %v; want kernel.ErrCorrupt and store.ErrQuarantined", path.name, err)
			}
			if q := st.QuarantinedObjects(); len(q) != 1 || q[0] != uint64(f.File.Object) {
				t.Errorf("quarantined %v, want [%d]", q, f.File.Object)
			}
		})
	}
}
