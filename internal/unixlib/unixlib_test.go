package unixlib

import (
	"bytes"
	"errors"
	"testing"

	"histar/internal/disk"
	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/store"
	"histar/internal/vclock"
)

func bootSys(t testing.TB) *System {
	t.Helper()
	sys, err := Boot(BootOptions{KernelConfig: kernel.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func bootSysPersist(t *testing.T) (*System, *store.Store, *vclock.Clock) {
	t.Helper()
	clk := &vclock.Clock{}
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, clk)
	st, err := store.Format(d, store.Options{LogSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Boot(BootOptions{Persist: st, KernelConfig: kernel.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return sys, st, clk
}

func TestBootCreatesStandardDirectories(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("root")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := p.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"tmp": false, "bin": false, "etc": false, "home": false, "dev": false}
	for _, e := range entries {
		if _, ok := want[e.Name]; ok {
			want[e.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("missing /%s", name)
		}
	}
}

func TestFileCreateWriteReadStat(t *testing.T) {
	sys := bootSys(t)
	p, _ := sys.NewInitProcess("alice")
	fd, err := p.Create("/tmp/hello.txt", label.Label{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, []byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, []byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	data, err := p.ReadFile("/tmp/hello.txt")
	if err != nil || string(data) != "hello world" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	fi, err := p.Stat("/tmp/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 11 || fi.IsDir {
		t.Errorf("Stat = %+v", fi)
	}
	// Creating the same file again fails.
	if _, err := p.Create("/tmp/hello.txt", label.Label{}); !errors.Is(err, ErrExist) {
		t.Errorf("duplicate create: %v", err)
	}
	// Opening a missing file fails.
	if _, err := p.Open("/tmp/missing", ORead); !errors.Is(err, ErrNotExist) {
		t.Errorf("open missing: %v", err)
	}
}

func TestSeekAndPartialIO(t *testing.T) {
	sys := bootSys(t)
	p, _ := sys.NewInitProcess("alice")
	fd, _ := p.Create("/tmp/seek.dat", label.Label{})
	p.Write(fd, []byte("0123456789"))
	if pos, err := p.Seek(fd, 2, SeekSet); err != nil || pos != 2 {
		t.Fatalf("Seek = %d, %v", pos, err)
	}
	buf := make([]byte, 4)
	n, err := p.Read(fd, buf)
	if err != nil || n != 4 || string(buf) != "2345" {
		t.Fatalf("Read after seek = %q (%d), %v", buf, n, err)
	}
	if pos, _ := p.Seek(fd, -2, SeekEnd); pos != 8 {
		t.Errorf("SeekEnd pos = %d", pos)
	}
	n, _ = p.Read(fd, buf)
	if n != 2 || string(buf[:n]) != "89" {
		t.Errorf("tail read = %q", buf[:n])
	}
	// Pread/Pwrite do not move the seek position.
	if _, err := p.Pwrite(fd, []byte("AB"), 0); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 2)
	if _, err := p.Pread(fd, out, 0); err != nil || string(out) != "AB" {
		t.Errorf("Pread = %q, %v", out, err)
	}
}

func TestMkdirReadDirUnlinkRename(t *testing.T) {
	sys := bootSys(t)
	p, _ := sys.NewInitProcess("alice")
	if err := p.Mkdir("/tmp/work", label.Label{}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.txt", "b.txt", "c.txt"} {
		if err := p.WriteFile("/tmp/work/"+name, []byte(name), label.Label{}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := p.ReadDir("/tmp/work")
	if err != nil || len(entries) != 3 {
		t.Fatalf("ReadDir = %d entries, %v", len(entries), err)
	}
	// Rename within the directory.
	if err := p.Rename("/tmp/work/a.txt", "/tmp/work/z.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stat("/tmp/work/a.txt"); !errors.Is(err, ErrNotExist) {
		t.Error("old name should be gone")
	}
	if data, err := p.ReadFile("/tmp/work/z.txt"); err != nil || string(data) != "a.txt" {
		t.Errorf("renamed file contents = %q, %v", data, err)
	}
	// Cross-directory rename.
	if err := p.Mkdir("/tmp/other", label.Label{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Rename("/tmp/work/b.txt", "/tmp/other/b.txt"); err != nil {
		t.Fatal(err)
	}
	if data, err := p.ReadFile("/tmp/other/b.txt"); err != nil || string(data) != "b.txt" {
		t.Errorf("moved file = %q, %v", data, err)
	}
	// Unlink.
	if err := p.Unlink("/tmp/work/c.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stat("/tmp/work/c.txt"); !errors.Is(err, ErrNotExist) {
		t.Error("unlinked file still present")
	}
	// Removing a non-empty directory fails.
	if err := p.Unlink("/tmp/other"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("unlink non-empty dir: %v", err)
	}
	// Unlink remaining file then the directory.
	p.Unlink("/tmp/other/b.txt")
	if err := p.Unlink("/tmp/other"); err != nil {
		t.Errorf("unlink empty dir: %v", err)
	}
}

func TestChdirRelativePaths(t *testing.T) {
	sys := bootSys(t)
	p, _ := sys.NewInitProcess("alice")
	p.Mkdir("/tmp/project", label.Label{})
	if err := p.Chdir("/tmp/project"); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("notes.txt", []byte("relative"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	if data, err := p.ReadFile("/tmp/project/notes.txt"); err != nil || string(data) != "relative" {
		t.Errorf("relative create landed wrong: %q, %v", data, err)
	}
	if err := p.Chdir("/tmp/missing"); !errors.Is(err, ErrNotExist) && !errors.Is(err, ErrNotDir) {
		t.Errorf("chdir to missing: %v", err)
	}
}

func TestUserFileProtection(t *testing.T) {
	sys := bootSys(t)
	alice, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := sys.NewInitProcess("bob")
	if err != nil {
		t.Fatal(err)
	}
	// Alice writes a private file in her home directory.
	if err := alice.WriteFile("/home/alice/secret.txt", []byte("top secret"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	// Bob cannot read Alice's home directory or the file.
	if _, err := bob.ReadFile("/home/alice/secret.txt"); err == nil {
		t.Error("bob must not read alice's file")
	}
	// Bob cannot write into Alice's home directory either.
	if err := bob.WriteFile("/home/alice/evil.txt", []byte("x"), label.Label{}); err == nil {
		t.Error("bob must not create files in alice's home")
	}
	// Alice can read her own data.
	if data, err := alice.ReadFile("/home/alice/secret.txt"); err != nil || string(data) != "top secret" {
		t.Errorf("alice read own file: %q, %v", data, err)
	}
	// A world-readable file in /tmp is readable by both.
	if err := alice.WriteFile("/tmp/public.txt", []byte("hi"), label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	if data, err := bob.ReadFile("/tmp/public.txt"); err != nil || string(data) != "hi" {
		t.Errorf("bob reading public file: %q, %v", data, err)
	}
}

func TestPipes(t *testing.T) {
	sys := bootSys(t)
	p, _ := sys.NewInitProcess("alice")
	r, w, err := p.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("through the pipe")
	done := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 64)
		n, err := p.Read(r, buf)
		if err != nil {
			done <- nil
			return
		}
		done <- buf[:n]
	}()
	if _, err := p.Write(w, msg); err != nil {
		t.Fatal(err)
	}
	if got := <-done; !bytes.Equal(got, msg) {
		t.Errorf("pipe read = %q", got)
	}
	// Closing the write end makes reads return EOF.
	if err := p.Close(w); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := p.Read(r, buf)
	if err != nil || n != 0 {
		t.Errorf("read after writer close = %d, %v", n, err)
	}
	// A pipe has no offsets: positional I/O is invalid, as Seek is.
	if _, err := p.Pread(r, buf, 0); !errors.Is(err, ErrInvalid) {
		t.Errorf("Pread on a pipe: %v, want ErrInvalid", err)
	}
	// Writing to a pipe whose reader is closed fails.
	r2, w2, _ := p.Pipe()
	p.Close(r2)
	if _, err := p.Write(w2, []byte("x")); !errors.Is(err, ErrPipeClosed) {
		t.Errorf("write to closed pipe: %v", err)
	}
}

// TestPipeMovesRunsNotBytes pins what a pipe transfer costs in kernel calls:
// one read of both ends' words, the bytes in one call — two where the ring
// wraps — the end's position and the wake.  That is 4 a side for an 8-byte
// round trip and 5 a side for one that straddles the end of the buffer, whose
// bytes must still come back in order.
func TestPipeMovesRunsNotBytes(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := p.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(msg []byte) uint64 {
		t.Helper()
		before := p.TC.SyscallsIssued()
		if n, err := p.Write(w, msg); err != nil || n != len(msg) {
			t.Fatalf("Write of %d bytes = %d, %v", len(msg), n, err)
		}
		buf := make([]byte, len(msg))
		if n, err := p.Read(r, buf); err != nil || !bytes.Equal(buf[:n], msg) {
			t.Fatalf("Read = %q, %v; want %q", buf[:n], err, msg)
		}
		return p.TC.SyscallsIssued() - before
	}
	if got := roundTrip([]byte("8 bytes!")); got != 2*4 {
		t.Errorf("an 8-byte round trip issued %d kernel calls, want %d", got, 2*4)
	}
	roundTrip(make([]byte, pipeBufferSize-8-4)) // to 4 bytes short of the end
	if got := roundTrip([]byte("wraps around")); got != 2*5 {
		t.Errorf("a round trip across the end of the buffer issued %d kernel calls, want %d", got, 2*5)
	}
}

// TestPipeRefusesPositionsOutOfStep has a peer store end positions no pipe
// could reach: a read position ahead of the write position, then a write
// position more than a buffer ahead of the read position.  Both sides must
// fail with ErrInvalid and write nothing — in particular no run past the end
// of the ring, which would grow the segment.
func TestPipeRefusesPositionsOutOfStep(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := p.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	fd, err := p.getFD(w)
	if err != nil {
		t.Fatal(err)
	}
	pipe := fd.Pipe
	setPos := func(rd, wr uint64) {
		t.Helper()
		if err := p.pipeSetPos(pipe, pipeRdWordOff, rd); err != nil {
			t.Fatal(err)
		}
		if err := p.pipeSetPos(pipe, pipeWrWordOff, wr); err != nil {
			t.Fatal(err)
		}
	}
	// Reader a whole buffer ahead, writer one byte short of the ring's end:
	// a write trusting the words would put its second run past the end.
	setPos(2*pipeBufferSize-1, pipeBufferSize-1)
	if n, err := p.Write(w, make([]byte, 2*pipeBufferSize)); !errors.Is(err, ErrInvalid) || n != 0 {
		t.Errorf("Write behind the read position = %d, %v; want 0, ErrInvalid", n, err)
	}
	if got, err := p.TC.SegmentLen(pipe.Seg); err != nil || got != pipeDataOff+pipeBufferSize {
		t.Errorf("pipe segment is %d bytes (%v), want %d", got, err, pipeDataOff+pipeBufferSize)
	}
	setPos(0, 2*pipeBufferSize)
	if n, err := p.Read(r, make([]byte, 8)); !errors.Is(err, ErrInvalid) || n != 0 {
		t.Errorf("Read two buffers behind the write position = %d, %v; want 0, ErrInvalid", n, err)
	}
}

func TestSpawnWaitExitStatus(t *testing.T) {
	sys := bootSys(t)
	err := sys.RegisterProgram("/bin/true", func(p *Process, args []string) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	sys.RegisterProgram("/bin/false", func(p *Process, args []string) int { return 1 })
	p, _ := sys.NewInitProcess("alice")

	child, err := p.Spawn("/bin/true", nil)
	if err != nil {
		t.Fatal(err)
	}
	status, err := p.Wait(child)
	if err != nil || status != 0 {
		t.Errorf("wait(/bin/true) = %d, %v", status, err)
	}
	child, err = p.Spawn("/bin/false", nil)
	if err != nil {
		t.Fatal(err)
	}
	status, err = p.Wait(child)
	if err != nil || status != 1 {
		t.Errorf("wait(/bin/false) = %d, %v", status, err)
	}
	if _, err := p.Spawn("/bin/nonexistent", nil); !errors.Is(err, ErrNoProgram) {
		t.Errorf("spawn missing program: %v", err)
	}
}

func TestForkExecWait(t *testing.T) {
	sys := bootSys(t)
	sys.RegisterProgram("/bin/true", func(p *Process, args []string) int { return 0 })
	p, _ := sys.NewInitProcess("alice")
	before := sys.Kern.SyscallTotal()
	child, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Exec("/bin/true", nil); err != nil {
		t.Fatal(err)
	}
	status, err := p.Wait(child)
	if err != nil || status != 0 {
		t.Fatalf("fork/exec/wait = %d, %v", status, err)
	}
	forkExecCalls := sys.Kern.SyscallTotal() - before

	before = sys.Kern.SyscallTotal()
	child2, _ := p.Spawn("/bin/true", nil)
	p.Wait(child2)
	spawnCalls := sys.Kern.SyscallTotal() - before
	if forkExecCalls <= spawnCalls {
		t.Errorf("fork/exec (%d syscalls) should cost more than spawn (%d)", forkExecCalls, spawnCalls)
	}
}

func TestSpawnedChildSharesParentPipe(t *testing.T) {
	sys := bootSys(t)
	sys.RegisterProgram("/bin/echo-pipe", func(p *Process, args []string) int {
		// The child writes into fd named by convention (the write end the
		// parent created before spawning).
		wfd := -1
		for _, n := range p.FDTable() {
			fd, _ := p.getFD(n)
			if fd.Pipe != nil && fd.WriteEnd {
				wfd = n
			}
		}
		if wfd < 0 {
			return 2
		}
		if _, err := p.Write(wfd, []byte("from child")); err != nil {
			return 1
		}
		return 0
	})
	p, _ := sys.NewInitProcess("alice")
	r, _, err := p.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	child, err := p.Spawn("/bin/echo-pipe", nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := p.Read(r, buf)
	if err != nil || string(buf[:n]) != "from child" {
		t.Errorf("parent read = %q, %v", buf[:n], err)
	}
	if status, _ := p.Wait(child); status != 0 {
		t.Errorf("child exit status = %d", status)
	}
}

func TestSignals(t *testing.T) {
	sys := bootSys(t)
	p, _ := sys.NewInitProcess("alice")
	q, _ := sys.NewInitProcess("alice") // same user: may signal

	got := make(chan int, 1)
	q.Signal(SIGUSR1, func(sig int) { got <- sig })
	if err := p.Kill(q, SIGUSR1); err != nil {
		t.Fatal(err)
	}
	if n := q.HandlePendingSignals(); n != 1 {
		t.Errorf("handled %d signals", n)
	}
	select {
	case sig := <-got:
		if sig != SIGUSR1 {
			t.Errorf("sig = %d", sig)
		}
	default:
		t.Error("handler never ran")
	}

	// A different user may not signal alice's process.
	mallory, _ := sys.NewInitProcess("mallory")
	if err := mallory.Kill(q, SIGKILL); err == nil {
		t.Error("cross-user kill must fail")
	}
}

func TestFsyncAndGroupSyncDurability(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	p, _ := sys.NewInitProcess("alice")
	fd, err := p.Create("/tmp/durable.txt", label.New(label.L1))
	if err != nil {
		t.Fatal(err)
	}
	p.Write(fd, []byte("must survive"))
	if err := p.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	p.Close(fd)
	p.WriteFile("/tmp/volatile.txt", []byte("may vanish"), label.New(label.L1))

	// Simulate a crash: lose the disk write cache and reopen the store.
	d := st.Disk().(*disk.Disk)
	d.Crash()
	st2, err := store.Open(d, store.Options{LogSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fi, err := p.Stat("/tmp/durable.txt")
	if err != nil {
		t.Fatal(err)
	}
	data, err := st2.Get(uint64(fi.ID))
	if err != nil || string(data) != "must survive" {
		t.Errorf("synced file after crash: %q, %v", data, err)
	}
	// What was never synced never left the kernel.
	vol, err := p.Stat("/tmp/volatile.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Get(uint64(vol.ID)); !errors.Is(err, store.ErrNoSuchObject) {
		t.Errorf("unsynced file after crash: %v, want ErrNoSuchObject", err)
	}
	// Group sync makes everything durable at once.
	if err := p.GroupSync(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Checkpoints == 0 {
		t.Error("group sync should checkpoint the store")
	}
	if data, err := crashAndReopen(t, st).Get(uint64(vol.ID)); err != nil || string(data) != "may vanish" {
		t.Errorf("group-synced file after crash: %q, %v", data, err)
	}
}

func TestSpawnedProcessCountsSyscalls(t *testing.T) {
	sys := bootSys(t)
	sys.RegisterProgram("/bin/true", func(p *Process, args []string) int { return 0 })
	p, _ := sys.NewInitProcess("alice")
	sys.Kern.ResetSyscallCounts()
	child, _ := p.Spawn("/bin/true", nil)
	p.Wait(child)
	if sys.Kern.SyscallTotal() < 20 {
		t.Errorf("spawn+wait issued only %d syscalls; the process machinery should cost more", sys.Kern.SyscallTotal())
	}
}

// TestCorruptExtentSurfacesAsEIO proves the integrity plumbing end to end:
// bit rot in a persisted file's home extent is detected by the store on
// page-in, quarantined, surfaced to the file API as EIO, and visible
// through the kernel's storage-integrity stats — while other files keep
// reading normally.
func TestCorruptExtentSurfacesAsEIO(t *testing.T) {
	clk := &vclock.Clock{}
	d := disk.New(disk.Params{Sectors: 1 << 15, WriteCache: true}, clk) // 16 MB
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
	pattern := bytes.Repeat([]byte("ROTTENBITS"), 400) // recognizable on the platter
	fd, err := p.Create("/tmp/victim", label.Label{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, pattern); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/tmp/bystander", []byte("healthy"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	// Whole-system sync writes home extents (with contents CRCs); evicting
	// the cache forces the next read to page in from disk.
	if err := p.GroupSync(); err != nil {
		t.Fatal(err)
	}
	sys.EvictFileCache()

	// Locate the victim's home extent on the device and rot one bit of it.
	img := make([]byte, fdisk.Size())
	if _, err := fdisk.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	off := int64(bytes.Index(img, pattern))
	if off < 0 {
		t.Fatal("victim extent not found on the device")
	}
	if err := fdisk.RotBits(disk.Region{Off: off, Len: int64(len(pattern))}, 1, 17); err != nil {
		t.Fatal(err)
	}

	if _, err := p.ReadFile("/tmp/victim"); !errors.Is(err, ErrIO) {
		t.Fatalf("ReadFile of rotted file = %v; want ErrIO", err)
	}
	if data, err := p.ReadFile("/tmp/bystander"); err != nil || string(data) != "healthy" {
		t.Fatalf("bystander read = %q, %v", data, err)
	}
	if q, n := st.QuarantinedObjects(), st.Stats().CorruptionsDetected; len(q) != 1 || n == 0 {
		t.Fatalf("store quarantined %v with %d corruptions detected; want one object", q, n)
	}
}
