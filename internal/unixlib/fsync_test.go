package unixlib

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"histar/internal/disk"
	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/store"
	"histar/internal/vclock"
)

// batchRecs is the store's group-commit record bound: the tests below sync
// more files than that, so the ⌈N/batch⌉ commit math is visible.
const batchRecs = 128

// bootSysGroup boots a persistent system.
func bootSysGroup(t *testing.T) (*System, *store.Store) {
	t.Helper()
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
	st, err := store.Format(d, store.Options{LogSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Boot(BootOptions{Persist: st, KernelConfig: kernel.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return sys, st
}

func TestPwritevFsyncFansOutAndGroupCommits(t *testing.T) {
	const nFiles = 2*batchRecs + 10
	sys, st := bootSysGroup(t)
	p, err := sys.NewInitProcess("root")
	if err != nil {
		t.Fatal(err)
	}
	fds := make([]int, nFiles)
	for i := range fds {
		fd, err := p.Create(fmt.Sprintf("/tmp/rv%d", i), label.Label{})
		if err != nil {
			t.Fatal(err)
		}
		fds[i] = fd
	}

	// Two positional writes per file; the second overlaps the first so
	// same-file op order is observable.  One write is larger than the
	// segment slack to drive writeAt's quota_move retry.
	var ops []WriteOp
	want := make(map[int][]byte)
	big := bytes.Repeat([]byte("B"), 64<<10)
	for i, fd := range fds {
		first := []byte(fmt.Sprintf("file-%02d-aaaa", i))
		ops = append(ops, WriteOp{FD: fd, Off: 0, Data: first})
		w := append([]byte(nil), first...)
		if i == 3 {
			ops = append(ops, WriteOp{FD: fd, Off: 4, Data: big})
			w = append(w[:4], big...)
		} else {
			second := []byte("ZZ")
			ops = append(ops, WriteOp{FD: fd, Off: 4, Data: second})
			copy(w[4:], second)
		}
		want[fd] = w
	}

	before := st.WALStats().Commits
	n, err := p.PwritevFsync(ops)
	if err != nil {
		t.Fatalf("PwritevFsync: %v", err)
	}
	wantBytes := 0
	for _, op := range ops {
		wantBytes += len(op.Data)
	}
	if n != wantBytes {
		t.Errorf("wrote %d bytes, want %d", n, wantBytes)
	}
	commits := st.WALStats().Commits - before
	if max := uint64((nFiles + batchRecs - 1) / batchRecs); commits == 0 || commits > max {
		t.Errorf("%d-file fan-out took %d WAL commits, want 1..%d", nFiles, commits, max)
	}
	for i, fd := range fds {
		got, err := p.ReadFile(fmt.Sprintf("/tmp/rv%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[fd]) {
			t.Errorf("file %d contents = %d bytes, want %d (mismatch at %d)",
				i, len(got), len(want[fd]), firstDiff(got, want[fd]))
		}
		// The writes reached the store by the fan-out's own sync.
		f, _ := p.getFD(fd)
		if synced, err := st.Get(uint64(f.File.Object)); err != nil || !bytes.Equal(synced, want[fd]) {
			t.Errorf("store contents of file %d = %d bytes, %v; want the %d written", i, len(synced), err, len(want[fd]))
		}
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func TestFsyncManyGroupCommits(t *testing.T) {
	const nFiles = 2*batchRecs + 12
	sys, st := bootSysGroup(t)
	p, err := sys.NewInitProcess("root")
	if err != nil {
		t.Fatal(err)
	}
	fds := make([]int, nFiles)
	for i := range fds {
		fd, err := p.Create(fmt.Sprintf("/tmp/fm%d", i), label.Label{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Write(fd, []byte(fmt.Sprintf("payload %d", i))); err != nil {
			t.Fatal(err)
		}
		fds[i] = fd
	}
	before := st.WALStats().Commits
	if err := p.FsyncMany(fds); err != nil {
		t.Fatalf("FsyncMany: %v", err)
	}
	commits := st.WALStats().Commits - before
	if max := uint64((nFiles + batchRecs - 1) / batchRecs); commits == 0 || commits > max {
		t.Errorf("FsyncMany of %d files took %d WAL commits, want 1..%d", nFiles, commits, max)
	}
	// Each file's synced bytes must be in the store under its object ID.
	for i, fd := range fds {
		f, err := p.getFD(fd)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Get(uint64(f.File.Object))
		if err != nil || !bytes.Equal(got, []byte(fmt.Sprintf("payload %d", i))) {
			t.Errorf("store contents of file %d = (%q, %v)", i, got, err)
		}
	}
}

// TestFsyncOfAPipeSyncsNothing: a pipe end has no file segment, so Fsync and
// FsyncMany refuse it with ErrInvalid and checkpoint nothing — its zero
// File must not read as a directory's descriptor — while a directory's
// descriptor still checkpoints and a file beside a pipe end is still synced.
func TestFsyncOfAPipeSyncsNothing(t *testing.T) {
	sys, st := bootSysGroup(t)
	p, err := sys.NewInitProcess("root")
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := p.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	file, err := p.Create("/tmp/beside-a-pipe", label.Label{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(file, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	ckpts := st.Stats().Checkpoints
	for _, fd := range []int{r, w} {
		if err := p.Fsync(fd); !errors.Is(err, ErrInvalid) {
			t.Errorf("Fsync(pipe end %d) = %v, want ErrInvalid", fd, err)
		}
	}
	if err := p.FsyncMany([]int{r, file, w}); !errors.Is(err, ErrInvalid) {
		t.Errorf("FsyncMany(pipe ends and a file) = %v, want ErrInvalid", err)
	}
	if got := st.Stats().Checkpoints - ckpts; got != 0 {
		t.Errorf("fsync of pipe ends ran %d checkpoints, want 0", got)
	}
	f, err := p.getFD(file)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get(uint64(f.File.Object)); err != nil || string(got) != "kept" {
		t.Errorf("store contents of the file synced beside the pipe = (%q, %v), want kept", got, err)
	}

	dir, err := p.Open("/tmp", ORead)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Fsync(dir); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Checkpoints - ckpts; got != 1 {
		t.Errorf("fsync of a directory ran %d checkpoints, want 1", got)
	}
}
