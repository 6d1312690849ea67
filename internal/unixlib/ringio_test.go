package unixlib

import (
	"bytes"
	"fmt"
	"testing"

	"histar/internal/disk"
	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/store"
	"histar/internal/vclock"
)

// bootSysGroup boots a persistent system with a small group-commit record
// bound, so the ⌈N/batch⌉ commit math is visible with few files.
func bootSysGroup(t *testing.T, batchRecs int) (*System, *store.Store) {
	t.Helper()
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
	st, err := store.Format(d, store.Options{LogSize: 8 << 20, GroupCommitRecords: batchRecs})
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
	const batchRecs, nFiles = 4, 10
	sys, st := bootSysGroup(t, batchRecs)
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
	// segment slack to drive the quota_move fallback path.
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
		// The ring's writes reached the store by the fan-out's own sync.
		f, _ := p.getFD(fd)
		if synced, err := st.Get(uint64(f.File.Object)); err != nil || !bytes.Equal(synced, want[fd]) {
			t.Errorf("store contents of file %d = %d bytes, %v; want the %d written", i, len(synced), err, len(want[fd]))
		}
	}
	rs := sys.Kern.RingStats()
	if rs.SyncGroups == 0 || rs.SyncEntries < nFiles {
		t.Errorf("ring sync stats = %+v, want one group covering %d files", rs, nFiles)
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
	const batchRecs, nFiles = 4, 12
	sys, st := bootSysGroup(t, batchRecs)
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
