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

// TestStoreObjectsDieWithTheirSegments: a sandbox cloned from a golden image
// is torn down by unreferencing its container, not by unlinking names, and
// the store objects it had — the clone's aliases and the private copy of what
// it wrote — must go with it.
func TestStoreObjectsDieWithTheirSegments(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	tc := sys.InitThread()
	root := sys.Kern.RootContainer()
	pub := label.New(label.L1)
	img, err := sys.BakeGolden("img", nil, func(tc *kernel.ThreadCall, sandbox kernel.ID) error {
		for i := 0; i < 3; i++ {
			id, err := tc.SegmentCreate(sandbox, pub, "blob", 4096)
			if err != nil {
				return err
			}
			if err := tc.SegmentWrite(kernel.CEnt{Container: sandbox, Object: id}, 0, bytes.Repeat([]byte{byte('a' + i)}, 4096)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	before := st.Stats().LiveObjects

	scratch, err := tc.ContainerCreate(root, pub, "scratch", 0, kernel.QuotaInfinite)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.SpawnFromGolden(tc, img, scratch, nil)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := tc.ContainerList(kernel.Self(res.Root))
	if err != nil || len(blobs) != 3 {
		t.Fatalf("sandbox entries = %v, %v", blobs, err)
	}
	written := kernel.CEnt{Container: res.Root, Object: blobs[0]}
	if err := tc.SegmentWrite(written, 0, []byte("private")); err != nil {
		t.Fatal(err)
	}
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().LiveObjects; got != before+3 {
		t.Fatalf("live store objects with the sandbox = %d, want %d", got, before+3)
	}
	if got, err := st.Get(uint64(written.Object)); err != nil || !bytes.HasPrefix(got, []byte("private")) {
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
	for _, id := range blobs {
		if _, err := st2.Get(uint64(id)); !errors.Is(err, store.ErrNoSuchObject) {
			t.Errorf("sandbox blob %d after crash and reopen: %v, want ErrNoSuchObject", id, err)
		}
	}
}

// TestGoldenMasterStoreObjectsDieWithTheirSegments: a snapshot makes the
// master's segments persistent, so once the snapshot is dropped and the
// master unreferenced their store objects go like anyone else's — while a
// sandbox cloned before the drop keeps reading what it shared.
func TestGoldenMasterStoreObjectsDieWithTheirSegments(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	tc := sys.InitThread()
	root := sys.Kern.RootContainer()
	pub := label.New(label.L1)
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	before, free := st.Stats().LiveObjects, st.FreeBytes()
	var master []kernel.ID
	img, err := sys.BakeGolden("img", nil, func(tc *kernel.ThreadCall, sandbox kernel.ID) error {
		for i := 0; i < 3; i++ {
			id, err := tc.SegmentCreate(sandbox, pub, "blob", 4096)
			if err != nil {
				return err
			}
			master = append(master, id)
			if err := tc.SegmentWrite(kernel.CEnt{Container: sandbox, Object: id}, 0, bytes.Repeat([]byte{byte('a' + i)}, 4096)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := tc.ContainerCreate(root, pub, "scratch", 0, kernel.QuotaInfinite)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.SpawnFromGolden(tc, img, scratch, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Three apiece: the master's segments, the clone's, and the snapshot's
	// segment images — aliases under ids of their own, store objects like
	// the rest.
	if got := st.Stats().LiveObjects; got != before+9 {
		t.Fatalf("live store objects with master, snapshot and clone = %d, want %d", got, before+9)
	}

	if err := sys.Kern.DropSnapshot(img.Snapshot); err != nil {
		t.Fatal(err)
	}
	if err := tc.Unref(root, img.Root); err != nil {
		t.Fatal(err)
	}
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, id := range master {
		if _, err := st.Get(uint64(id)); !errors.Is(err, store.ErrNoSuchObject) {
			t.Errorf("master segment %d after the drop and the unref: %v, want ErrNoSuchObject", id, err)
		}
	}
	if got := st.Stats().LiveObjects; got != before+3 {
		t.Errorf("live store objects = %d, want %d: what there was before the bake and the live clone", got, before+3)
	}
	sys.EvictFileCache()
	for i, id := range master {
		ce := kernel.CEnt{Container: res.Root, Object: res.IDMap[id]}
		want := bytes.Repeat([]byte{byte('a' + i)}, 4096)
		if got, err := tc.SegmentRead(ce, 0, 4096); err != nil || !bytes.Equal(got, want) {
			t.Errorf("clone of blob %d reads %.4q, %v", i, got, err)
		}
		if got, err := st.Get(uint64(ce.Object)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("clone of blob %d in the store: %.4q, %v", i, got, err)
		}
	}
	if err := tc.Unref(root, scratch); err != nil {
		t.Fatal(err)
	}
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().LiveObjects; got != before {
		t.Errorf("live store objects after the clone's teardown = %d, want %d as before the bake", got, before)
	}
	if got := st.FreeBytes(); got != free {
		t.Errorf("free bytes after the clone's teardown = %d, want %d as before the bake", got, free)
	}
}

// TestGoldenBakeAndSpawnCommits: a bake is one checkpoint and one alias
// commit for all of its segments, and a spawn one commit — not one per
// segment, every commit a flush.
func TestGoldenBakeAndSpawnCommits(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	tc := sys.InitThread()
	root := sys.Kern.RootContainer()
	pub := label.New(label.L1)
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	ckpts, commits := st.Stats().Checkpoints, st.WALStats().Commits
	img, err := sys.BakeGolden("img", nil, func(tc *kernel.ThreadCall, sandbox kernel.ID) error {
		for i := 0; i < 3; i++ {
			id, err := tc.SegmentCreate(sandbox, pub, "blob", 4096)
			if err != nil {
				return err
			}
			if err := tc.SegmentWrite(kernel.CEnt{Container: sandbox, Object: id}, 0, bytes.Repeat([]byte{byte('a' + i)}, 4096)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c, w := st.Stats().Checkpoints-ckpts, st.WALStats().Commits-commits; c != 1 || w != 1 {
		t.Errorf("baking 3 segments: %d checkpoints and %d WAL commits, want 1 and 1 (one alias frame; the seal writes nothing)", c, w)
	}
	commits = st.WALStats().Commits
	if _, err := sys.SpawnFromGolden(tc, img, root, nil); err != nil {
		t.Fatal(err)
	}
	if w := st.WALStats().Commits - commits; w != 1 {
		t.Errorf("a spawn of 3 segments: %d WAL commits, want 1", w)
	}
}

// TestSpawnFromRottedGoldenFailsTyped: once the store has found a golden
// image's shared bytes rotted, a spawn from it fails — with the kernel's
// ErrCorrupt and the store's own typed error in one chain — and publishes
// nothing; the image's undamaged siblings would still have spawned, but a
// sandbox is all of its segments or none.
func TestSpawnFromRottedGoldenFailsTyped(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	tc := sys.InitThread()
	root := sys.Kern.RootContainer()
	pub := label.New(label.L1)
	marker := bytes.Repeat([]byte("golden-blob-to-rot/"), 200)
	img, err := sys.BakeGolden("img", nil, func(tc *kernel.ThreadCall, sandbox kernel.ID) error {
		for _, data := range [][]byte{marker, []byte("an undamaged sibling")} {
			id, err := tc.SegmentCreate(sandbox, pub, "blob", len(data))
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
	scratch, err := tc.ContainerCreate(root, pub, "scratch", 0, kernel.QuotaInfinite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SpawnFromGolden(tc, img, scratch, nil); err != nil {
		t.Fatalf("spawn from the healthy image: %v", err)
	}
	// Flip one bit of the blob where it lies on the device (one extent: the
	// master, the snapshot's image and the first sandbox all name it), and let
	// a scrub find it.
	d := st.Disk()
	chunk := make([]byte, 1<<20+len(marker))
	at := int64(-1)
	for off := int64(0); off < d.Size() && at < 0; off += 1 << 20 {
		n, _ := d.ReadAt(chunk[:min(int64(len(chunk)), d.Size()-off)], off)
		if i := bytes.Index(chunk[:n], marker); i >= 0 {
			at = off + int64(i)
		}
	}
	if at < 0 {
		t.Fatal("the blob is nowhere on the device")
	}
	if _, err := d.WriteAt([]byte{marker[7] ^ 0x10}, at+7); err != nil {
		t.Fatal(err)
	}
	if sc, err := st.Scrub(); err != nil || sc.ObjectsQuarantined != 3 {
		t.Fatalf("scrub = %+v, %v; want the extent's three referents quarantined", sc, err)
	}
	second, err := tc.ContainerCreate(root, pub, "second", 0, kernel.QuotaInfinite)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	live := st.Stats().LiveObjects
	_, err = sys.SpawnFromGolden(tc, img, second, nil)
	if !errors.Is(err, kernel.ErrCorrupt) || !errors.Is(err, store.ErrQuarantined) {
		t.Fatalf("spawn from the rotted image: %v; want kernel.ErrCorrupt and store.ErrQuarantined", err)
	}
	if ents, err := tc.ContainerList(kernel.Self(second)); err != nil || len(ents) != 0 {
		t.Errorf("the failed spawn published %v, %v", ents, err)
	}
	if err := tc.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().LiveObjects; got != live {
		t.Errorf("the failed spawn left %d store objects behind", got-live)
	}
}

// TestMappedAndRingWritesReachACheckpoint: the kernel marks a segment dirty
// at the one gate every mutation passes, so a store through a mapping and a
// bare ring write — neither of which comes through the library's writeAt —
// are in the next checkpoint like any other.
func TestMappedAndRingWritesReachACheckpoint(t *testing.T) {
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
	r := p.TC.NewRing()
	r.Submit(kernel.RingEntry{Op: kernel.OpSegmentWrite, Seg: f.File, Off: 32, Data: []byte("ring")})
	if comps, err := r.Wait(1); err != nil || comps[0].Err != nil {
		t.Fatalf("ring write: %v, %v", err, comps)
	}
	if err := p.GroupSync(); err != nil {
		t.Fatal(err)
	}
	got, err := crashAndReopen(t, st).Get(uint64(f.File.Object))
	if err != nil || len(got) != 64 || string(got[8:14]) != "mapped" || string(got[32:36]) != "ring" {
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
	if after := st.Stats(); after.Puts != before.Puts || after.ObjectSyncs != before.ObjectSyncs {
		t.Errorf("the store moved under bob: puts %d → %d, syncs %d → %d",
			before.Puts, after.Puts, before.ObjectSyncs, after.ObjectSyncs)
	}
	if err := alice.FsyncPath("/tmp/guarded"); err != nil {
		t.Fatal(err)
	}
	if after := st.Stats(); after.Puts != before.Puts+1 || after.ObjectSyncs != before.ObjectSyncs+1 {
		t.Errorf("alice's fsync: puts %d → %d, syncs %d → %d; want one of each",
			before.Puts, after.Puts, before.ObjectSyncs, after.ObjectSyncs)
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
// access, whichever path makes it — a read, a ring read, a load through a
// mapping, a write — and a home extent that has rotted meanwhile fails that
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
		{"ring read", func(p *Process, seg kernel.CEnt) error {
			r := p.TC.NewRing()
			r.Submit(kernel.RingEntry{Op: kernel.OpSegmentRead, Seg: seg, Len: 16})
			comps, err := r.Wait(1)
			if err != nil {
				return err
			}
			return comps[0].Err
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
			st, err := store.Format(fdisk, store.Options{LogSize: 256 << 10, MetaAreaSize: 256 << 10})
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
