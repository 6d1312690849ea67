package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/store"
	"histar/internal/unixlib"
)

const (
	lfsDirs      = 8
	lfsFileSize  = 1024
	lfsOverwrite = 256
	lfsFanout    = 16 // files per PwritevFsync
	lfsFanBytes  = 128
	lfsChunk     = 8192
	lfsBigSize   = 4 << 20

	// The expensive phases stop growing with N at the sizes the issue fixed.
	lfsBigWrites   = 64  // 8 KiB sync writes into the 4 MiB file
	lfsSeqWrites   = 256 // 8 KiB appends: a 2 MiB file
	lfsSyncUnlinks = 200
)

// lfsFile is the benchmark's model of one file: the bytes it must hold and,
// once known, the object ID and label Stat reported for it.
type lfsFile struct {
	path string
	data []byte
	id   kernel.ID
	lbl  label.Label
}

// lfs is the state both lfs workloads share: one process on a store-backed
// system, 8 directories, and the model.
type lfs struct {
	t   *trial
	r   *rig
	p   *unixlib.Process
	c   *client
	rng *rand.Rand

	files []*lfsFile // nil entries are unlinked
	// gone lists the object IDs of files the workload unlinked after their
	// ID was learned; they must stay gone after recovery.
	gone []kernel.ID
}

func newLFS(t *trial) (*lfs, error) {
	r, err := newStoreRig()
	if err != nil {
		return nil, err
	}
	t.rig = r
	l := &lfs{t: t, r: r, p: r.proc, c: t.clients[0], rng: rand.New(rand.NewSource(t.spec.Seed))}
	for d := 0; d < lfsDirs; d++ {
		if err := l.p.Mkdir(lfsDir(d), label.Label{}); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func lfsDir(d int) string { return fmt.Sprintf("/tmp/d%d", d) }

func lfsPath(i int) string { return fmt.Sprintf("%s/f%05d", lfsDir(i%lfsDirs), i) }

func (l *lfs) payload(n int) []byte {
	b := make([]byte, n)
	l.rng.Read(b)
	return b
}

// create writes file i with n fresh bytes (zero label = the process default,
// {ur3, uw0, 1} for the bench user) and records it in the model.
func (l *lfs) create(i, n int) error {
	f := &lfsFile{path: lfsPath(i), data: l.payload(n)}
	for len(l.files) <= i {
		l.files = append(l.files, nil)
	}
	l.files[i] = f
	l.t.userBytes += uint64(n)
	return l.c.call("unixlib.create", func() error { return l.p.WriteFile(f.path, f.data, label.Label{}) })
}

// read reads file i back under the given call kind and checks every byte.
func (l *lfs) read(kind string, f *lfsFile) error {
	var got []byte
	err := l.c.call(kind, func() (err error) {
		got, err = l.p.ReadFile(f.path)
		return err
	})
	if err != nil {
		return err
	}
	return l.c.check(f.path, got, f.data)
}

func (l *lfs) groupSync() {
	l.c.op(func() error { return l.c.call("unixlib.groupsync", l.p.GroupSync) })
}

// learnIDs records, untimed, the object ID and label Stat reports for every
// live file that has none yet — what the post-crash check looks up.
func (l *lfs) learnIDs() error {
	var err error
	l.c.untimed(func() {
		for _, f := range l.files {
			if f == nil || f.id != kernel.NilID {
				continue
			}
			var fi unixlib.FileInfo
			if fi, err = l.p.Stat(f.path); err != nil {
				return
			}
			f.id, f.lbl = fi.ID, fi.Label
		}
	})
	return err
}

// forget drops file i from the model ahead of its unlink and returns its path.
func (l *lfs) forget(i int) string {
	f := l.files[i]
	l.files[i] = nil
	if f.id != kernel.NilID {
		l.gone = append(l.gone, f.id)
	}
	return f.path
}

// runLFSSync is the per-file-sync durability path: unixlib mirror →
// SyncObject/SyncObjects → WAL group commit → one flush per op.  With N = n:
// n creates each followed by FsyncPath, n random overwrites (Pwrite+Fsync),
// n random cached reads, n/8 PwritevFsync fan-outs over 16 files, and
// min(64, n/16) random 8 KiB Pwrite+Fsync into one 4 MiB file.
func setupLFSSync(t *trial) (func() error, error) {
	l, err := newLFS(t)
	if err != nil {
		return nil, err
	}
	big := &lfsFile{path: "/tmp/big", data: l.payload(lfsBigSize)}
	bigFD, err := l.p.Create(big.path, label.Label{})
	if err != nil {
		return nil, err
	}
	if _, err := l.p.Pwrite(bigFD, big.data, 0); err != nil {
		return nil, err
	}
	if err := l.p.Fsync(bigFD); err != nil {
		return nil, err
	}
	return func() error { return l.syncWindow(big, bigFD) }, nil
}

func (l *lfs) syncWindow(big *lfsFile, bigFD int) error {
	t, p, c, n := l.t, l.p, l.c, l.t.spec.N
	bigWrites := min(lfsBigWrites, n/16)
	t.beginWindow(3*n + n/8 + bigWrites)
	for i := 0; i < n; i++ {
		c.op(func() error {
			if err := l.create(i, lfsFileSize); err != nil {
				return err
			}
			return c.call("unixlib.fsync", func() error { return p.FsyncPath(l.files[i].path) })
		})
	}
	for k := 0; k < n; k++ {
		f := l.files[l.rng.Intn(n)]
		off := l.rng.Intn(lfsFileSize - lfsOverwrite)
		data := l.payload(lfsOverwrite)
		c.op(func() error {
			fd, err := p.Open(f.path, unixlib.OWrite)
			if err != nil {
				return err
			}
			defer p.Close(fd)
			copy(f.data[off:], data)
			t.userBytes += lfsOverwrite
			return c.call("unixlib.overwrite", func() error {
				if _, err := p.Pwrite(fd, data, int64(off)); err != nil {
					return err
				}
				return p.Fsync(fd)
			})
		})
	}
	for k := 0; k < n; k++ {
		f := l.files[l.rng.Intn(n)]
		c.op(func() error { return l.read("unixlib.read_cached", f) })
	}
	for k := 0; k < n/8; k++ {
		c.op(func() error {
			ops := make([]unixlib.WriteOp, lfsFanout)
			for j := range ops {
				f := l.files[l.rng.Intn(n)]
				fd, err := p.Open(f.path, unixlib.OWrite)
				if err != nil {
					return err
				}
				defer p.Close(fd)
				off := l.rng.Intn(lfsFileSize - lfsFanBytes)
				ops[j] = unixlib.WriteOp{FD: fd, Off: int64(off), Data: l.payload(lfsFanBytes)}
				copy(f.data[off:], ops[j].Data)
			}
			t.userBytes += lfsFanout * lfsFanBytes
			return c.call("unixlib.pwritev_fsync", func() error {
				_, err := p.PwritevFsync(ops)
				return err
			})
		})
	}
	for k := 0; k < bigWrites; k++ {
		off := l.rng.Intn(lfsBigSize/lfsChunk) * lfsChunk
		data := l.payload(lfsChunk)
		c.op(func() error {
			copy(big.data[off:], data)
			t.userBytes += lfsChunk
			return c.call("unixlib.bigfile_sync_write", func() error {
				if _, err := p.Pwrite(bigFD, data, int64(off)); err != nil {
					return err
				}
				return p.Fsync(bigFD)
			})
		})
	}
	l.files = append(l.files, big)
	if err := l.learnIDs(); err != nil {
		return err
	}
	t.endWindow()
	return l.crashAndVerify()
}

// runLFSCkpt uses the same store the other way: the WAL carries a few dozen
// commits while SEAL/BODY/FINISH checkpoints, the segment writer and cleaner,
// metadata snapshots and cold reads do the work.  With N = n: n async
// creates with a GroupSync every 500; an uncached ReadFile of all n; 2n
// unlink/recreate churn ops with a GroupSync every 400; one file written
// sequentially in min(256, n/8) Writes of 8 KiB, then Fsync; min(200, n/10)+1
// synchronous unlinks (Unlink + FsyncPath of the directory, the paper's worst
// case).  The last op is a checkpoint, so everything the model holds was
// acknowledged durable.
func setupLFSCkpt(t *trial) (func() error, error) {
	l, err := newLFS(t)
	if err != nil {
		return nil, err
	}
	return l.ckptWindow, nil
}

func (l *lfs) ckptWindow() error {
	t, p, c, n := l.t, l.p, l.c, l.t.spec.N
	seqWrites, syncUnlinks := min(lfsSeqWrites, n/8), min(lfsSyncUnlinks, n/10)+1
	t.beginWindow(n + n/500 + 1 + n + 2*n + 2*n/400 + seqWrites + 1 + syncUnlinks)
	for i := 0; i < n; i++ {
		c.op(func() error { return l.create(i, lfsFileSize) })
		if i%500 == 499 {
			l.groupSync()
		}
	}
	l.groupSync()
	if err := l.learnIDs(); err != nil {
		return err
	}
	c.untimed(l.r.sys.EvictFileCache)
	for i := 0; i < n; i++ {
		c.op(func() error { return l.read("unixlib.read_uncached", l.files[i]) })
	}
	for k := 0; k < 2*n; k++ {
		i := l.rng.Intn(n)
		c.op(func() error {
			if l.files[i] != nil {
				path := l.forget(i)
				return c.call("unixlib.unlink", func() error { return p.Unlink(path) })
			}
			return l.create(i, 512+l.rng.Intn(3073))
		})
		if k%400 == 399 {
			l.groupSync()
		}
	}
	seq := &lfsFile{path: "/tmp/seq"}
	seqFD, err := p.Create(seq.path, label.Label{})
	if err != nil {
		return err
	}
	for k := 0; k < seqWrites; k++ {
		data := l.payload(lfsChunk)
		c.op(func() error {
			seq.data = append(seq.data, data...)
			t.userBytes += lfsChunk
			return c.call("unixlib.seq_append", func() error {
				_, err := p.Write(seqFD, data)
				return err
			})
		})
	}
	c.op(func() error { return c.call("unixlib.fsync", func() error { return p.Fsync(seqFD) }) })
	l.files = append(l.files, seq)
	if err := l.learnIDs(); err != nil {
		return err
	}
	for k, i := 0, 0; k < syncUnlinks; i++ {
		if l.files[i%n] == nil {
			continue
		}
		k++
		c.op(func() error {
			path := l.forget(i % n)
			return c.call("unixlib.unlink_sync", func() error {
				if err := p.Unlink(path); err != nil {
					return err
				}
				return p.FsyncPath(lfsDir(i % lfsDirs))
			})
		})
	}
	t.endWindow()
	return l.crashAndVerify()
}

// crashAndVerify drops the disk's unflushed writes, reopens the store, and
// checks that every object the workload was told is durable comes back with
// its bytes and its label, and that every unlinked object stays gone.  The
// reopened store replaces the rig's, so the store probes run on it.
func (l *lfs) crashAndVerify() error {
	r, c := l.r, l.c
	var liveBytes int
	for _, f := range l.files {
		if f != nil {
			liveBytes += len(f.data)
		}
	}
	l.t.post["lfs.space_per_live_byte"] = ratio(float64(r.dk.Size()-r.st.FreeBytes()), float64(liveBytes))

	r.dk.Crash()
	sim0, t0 := r.diskClock.Now(), time.Now()
	s := c.tr.begin("store.open")
	st, err := store.Open(r.dk, lfsStoreOptions)
	c.tr.end(s)
	if err != nil {
		return fmt.Errorf("store.Open after crash: %w", err)
	}
	l.t.post["store.open_wall_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	l.t.post["lfs.recover_sim_ms"] = float64(r.diskClock.Now()-sim0) / float64(time.Millisecond)
	l.t.post["wal.records_replayed"] = float64(st.RecoveryReport().WALRecordsReplayed)
	r.st = st

	s = c.tr.begin("verify")
	defer c.tr.end(s)
	lost := func(format string, args ...any) {
		l.t.lostAcked++
		if c.firstErr == "" {
			c.firstErr = "after crash: " + fmt.Sprintf(format, args...)
		}
	}
	for _, f := range l.files {
		if f == nil {
			continue
		}
		got, err := st.Get(uint64(f.id))
		if err != nil {
			lost("%s (object %d): %v", f.path, f.id, err)
			continue
		}
		if !bytes.Equal(got, f.data) {
			lost("%s (object %d): %d bytes came back, differing from the %d written", f.path, f.id, len(got), len(f.data))
			continue
		}
		if lbl, ok := st.Label(uint64(f.id)); !ok || !lbl.Equal(f.lbl) {
			lost("%s (object %d): label %v, want %v", f.path, f.id, lbl, f.lbl)
		}
	}
	for _, id := range l.gone {
		if _, err := st.Get(uint64(id)); !errors.Is(err, store.ErrNoSuchObject) {
			lost("unlinked object %d came back (err %v)", id, err)
		}
	}
	return nil
}
