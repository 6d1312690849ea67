package unixlib

// Multi-process concurrency: with the kernel's sharded object table (PR 2)
// and the store's sharded cache + group commit underneath, the library's
// remaining serialization points are its own tables.  These tests race many
// processes through file creation, I/O, fsync, spawn/wait, signals, shared
// descriptors and mount tables; CI runs them under -race.

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"histar/internal/label"
)

// TestConcurrentProcessesFileWorkload races per-process private directories
// against a shared read-only file and per-file fsyncs through the group
// committer, then checkpoints and verifies every file.
func TestConcurrentProcessesFileWorkload(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	root, err := sys.NewInitProcess("root")
	if err != nil {
		t.Fatal(err)
	}
	shared := []byte("shared read-only contents")
	if err := root.WriteFile("/tmp/shared", shared, label.New(label.L1)); err != nil {
		t.Fatal(err)
	}

	const (
		workers      = 6
		filesPerProc = 8
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := sys.NewInitProcess(fmt.Sprintf("worker%d", w))
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			dir := fmt.Sprintf("/tmp/w%d", w)
			if err := p.Mkdir(dir, label.New(label.L1)); err != nil {
				t.Errorf("worker %d mkdir: %v", w, err)
				return
			}
			for i := 0; i < filesPerProc; i++ {
				path := fmt.Sprintf("%s/f%d", dir, i)
				data := []byte(fmt.Sprintf("worker %d file %d", w, i))
				if err := p.WriteFile(path, data, label.New(label.L1)); err != nil {
					t.Errorf("worker %d write: %v", w, err)
					return
				}
				// fsync through the store's group committer: concurrent
				// workers share WAL commits.
				if err := p.FsyncPath(path); err != nil {
					t.Errorf("worker %d fsync: %v", w, err)
					return
				}
				got, err := p.ReadFile(path)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("worker %d readback: %q, %v", w, got, err)
					return
				}
				if got, err := p.ReadFile("/tmp/shared"); err != nil || !bytes.Equal(got, shared) {
					t.Errorf("worker %d shared read: %v", w, err)
					return
				}
			}
			if i := w % filesPerProc; i >= 0 {
				if err := p.Unlink(fmt.Sprintf("%s/f%d", dir, i)); err != nil {
					t.Errorf("worker %d unlink: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if ws := st.WALStats(); ws.Commits == 0 {
		t.Error("no WAL commits made by concurrent fsyncs")
	}
	if err := root.GroupSync(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < filesPerProc; i++ {
			path := fmt.Sprintf("/tmp/w%d/f%d", w, i)
			got, err := root.ReadFile(path)
			if i == w%filesPerProc {
				if err == nil {
					t.Errorf("%s should be unlinked", path)
				}
				continue
			}
			want := []byte(fmt.Sprintf("worker %d file %d", w, i))
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s = %q, %v", path, got, err)
			}
		}
	}
}

// TestConcurrentSpawnWaitAndPrograms races program registration/lookup, PID
// allocation, spawn and wait across goroutines.
func TestConcurrentSpawnWaitAndPrograms(t *testing.T) {
	sys := bootSys(t)
	if err := sys.RegisterProgram("/bin/true", func(p *Process, args []string) int { return 0 }); err != nil {
		t.Fatal(err)
	}
	const workers = 5
	var wg sync.WaitGroup
	pids := make([][]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := sys.NewInitProcess("spawner")
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			if err := sys.RegisterProgram(fmt.Sprintf("/bin/w%d", w), func(p *Process, args []string) int { return w }); err != nil {
				t.Errorf("worker %d register: %v", w, err)
				return
			}
			for i := 0; i < 4; i++ {
				child, err := p.Spawn("/bin/true", nil)
				if err != nil {
					t.Errorf("worker %d spawn: %v", w, err)
					return
				}
				pids[w] = append(pids[w], child.PID)
				if st, err := p.Wait(child); err != nil || st != 0 {
					t.Errorf("worker %d wait: %d, %v", w, st, err)
					return
				}
			}
			own, err := p.Spawn(fmt.Sprintf("/bin/w%d", w), nil)
			if err != nil {
				t.Errorf("worker %d spawn own: %v", w, err)
				return
			}
			if st, err := p.Wait(own); err != nil || st != w {
				t.Errorf("worker %d own program exited %d, %v", w, st, err)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	seen := make(map[int]bool)
	for _, ps := range pids {
		for _, pid := range ps {
			if seen[pid] {
				t.Fatalf("pid %d allocated twice", pid)
			}
			seen[pid] = true
		}
	}
}

// TestSharedDescriptorSeekIsAtomic forks a child and has both processes read
// the same descriptor concurrently: the shared seek lock must hand each
// reader a distinct, non-overlapping chunk of the file.
func TestSharedDescriptorSeekIsAtomic(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("root")
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 16
	const chunks = 64
	data := make([]byte, chunk*chunks)
	for i := range data {
		data[i] = byte(i / chunk)
	}
	if err := p.WriteFile("/tmp/seekfile", data, label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	fd, err := p.Open("/tmp/seekfile", ORead)
	if err != nil {
		t.Fatal(err)
	}
	child, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		firsts []byte
		wg     sync.WaitGroup
	)
	reader := func(proc *Process) {
		defer wg.Done()
		buf := make([]byte, chunk)
		for {
			n, err := proc.Read(fd, buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if n == 0 {
				return
			}
			if n != chunk {
				t.Errorf("short read: %d", n)
				return
			}
			for _, b := range buf[1:] {
				if b != buf[0] {
					t.Errorf("torn read: chunk mixes %d and %d", buf[0], b)
					return
				}
			}
			mu.Lock()
			firsts = append(firsts, buf[0])
			mu.Unlock()
		}
	}
	wg.Add(2)
	go reader(p)
	go reader(child)
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(firsts) != chunks {
		t.Fatalf("read %d chunks, want %d", len(firsts), chunks)
	}
	seen := make(map[byte]bool)
	for _, f := range firsts {
		if seen[f] {
			t.Fatalf("chunk %d read twice: shared seek position raced", f)
		}
		seen[f] = true
	}
}

// TestConcurrentMountTables races mount-table mutation in one process with
// resolution through cloned tables in others.
func TestConcurrentMountTables(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("root")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Mkdir("/tmp/target", label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/tmp/target/inside", []byte("mounted"), label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	fi, err := p.Stat("/tmp/target")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				prefix := fmt.Sprintf("/mnt%d", w)
				p.Mounts().Mount(prefix, fi.ID)
				if got, err := p.ReadFile(prefix + "/inside"); err != nil || string(got) != "mounted" {
					t.Errorf("worker %d: read through mount: %q, %v", w, got, err)
					return
				}
				clone := p.Mounts().Clone()
				if _, ok := clone.Lookup(prefix); !ok {
					t.Errorf("worker %d: clone lost the mount", w)
					return
				}
				p.Mounts().Unmount(prefix)
			}
		}(w)
	}
	wg.Wait()
}

// TestPipePingPongNoLostWakeup bounces a message between two goroutines over
// a pair of pipes.  Every round trip has each side publish and wake while
// its peer is between its emptiness check and its futex wait; a pipe that
// waits on a word only the waiter itself changes loses such a wake-up and
// hangs within a few thousand rounds on two cores.  It then closes a pipe
// whose reader is already blocked: the close alone must wake it with EOF.
func TestPipePingPongNoLostWakeup(t *testing.T) {
	rounds := 200000
	if testing.Short() {
		rounds = 20000
	}
	sys := bootSys(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	r1, w1, err := p.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	r2, w2, err := p.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	// Echo server: pipe 1 → pipe 2 until pipe 1 reports EOF.
	echoDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 8)
		for {
			n, err := p.Read(r1, buf)
			if err != nil || n == 0 {
				echoDone <- err
				return
			}
			if _, err := p.Write(w2, buf[:n]); err != nil {
				echoDone <- err
				return
			}
		}
	}()
	var done atomic.Int64
	clientDone := make(chan error, 1)
	go func() {
		msg := []byte("8bytes!!")
		buf := make([]byte, 8)
		for i := 0; i < rounds; i++ {
			if _, err := p.Write(w1, msg); err != nil {
				clientDone <- err
				return
			}
			if n, err := p.Read(r2, buf); err != nil || !bytes.Equal(buf[:n], msg) {
				clientDone <- fmt.Errorf("round %d: read %q, %v", i, buf[:n], err)
				return
			}
			done.Add(1)
		}
		clientDone <- nil
	}()
	// A deadline on progress rather than on the whole run, so a slow host
	// (or -race) is not mistaken for a hang.
	const stall = 20 * time.Second
	tick := time.NewTicker(stall)
	defer tick.Stop()
	for last, running := int64(-1), true; running; {
		select {
		case err := <-clientDone:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		case <-tick.C:
			if n := done.Load(); n == last {
				t.Fatalf("ping-pong stuck after %d of %d round trips: a wake-up was lost", n, rounds)
			} else {
				last = n
			}
		}
	}
	// The echo server is now blocked (or about to block) reading the empty
	// pipe 1; closing its write end is the only event that can wake it.
	if err := p.Close(w1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-echoDone:
		if err != nil {
			t.Fatalf("echo server: %v", err)
		}
	case <-time.After(stall):
		t.Fatal("reader blocked on an empty pipe was not woken by the close of its write end")
	}
}
