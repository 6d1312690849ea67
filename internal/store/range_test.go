package store

// Range records: a sync logs the bytes pushed since the object's last record
// when it can build on a whole record of the current log generation, and
// never otherwise.

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"histar/internal/disk"
	"histar/internal/vclock"
	"histar/internal/wal"
)

// TestRangeRecordLogsChangedBytes follows one 64 KiB object through the
// record kinds: whole at first, then only what each push changed (the union of
// two pushes, or none at all), whole again after a length change and after a
// checkpoint seal — every sync one commit — and after a crash it reads back
// exactly, label included.
func TestRangeRecordLogsChangedBytes(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 16, WriteCache: true}, &vclock.Clock{})
	opts := Options{LogSize: 1 << 20}
	s, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	lbl := rotLabel(3)
	data := bytes.Repeat([]byte("w"), 64<<10)
	put := func(lo, hi int) {
		t.Helper()
		if err := s.PutLabeled(7, lbl, data, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	// logged syncs the object and returns the bytes its one commit logged.
	logged := func() uint64 {
		t.Helper()
		before, commits := s.Stats().BytesLogged, s.WALStats().Commits
		if err := s.SyncObject(7); err != nil {
			t.Fatal(err)
		}
		if n := s.WALStats().Commits - commits; n != 1 {
			t.Fatalf("a sync made %d commits, want 1", n)
		}
		return s.Stats().BytesLogged - before
	}
	patch := func(off int, b string) {
		copy(data[off:], b)
		put(off, off+len(b))
	}
	put(0, whole)
	if got := logged(); got != 64<<10 {
		t.Fatalf("first sync logged %d bytes, want the whole object", got)
	}
	patch(1000, string(bytes.Repeat([]byte("8"), 8192)))
	if got := logged(); got != 8+8192 {
		t.Fatalf("an 8 KiB overwrite logged %d bytes, want 8 + 8192", got)
	}
	patch(100, "a")
	patch(5000, "b")
	if got := logged(); got != 8+4901 {
		t.Fatalf("two pushes logged %d bytes, want 8 + their union's 4901", got)
	}
	put(0, 0)
	if got := logged(); got != 8 {
		t.Fatalf("an unchanged object logged %d bytes, want an empty range", got)
	}
	data = append(data, "tail"...)
	put(len(data)-4, len(data))
	if got := logged(); got != uint64(len(data)) {
		t.Fatalf("a longer object logged %d bytes, want all %d", got, len(data))
	}
	patch(20, "after the length change")
	if got := logged(); got != 8+23 {
		t.Fatalf("a range after the length change logged %d bytes, want 8 + 23", got)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	patch(40, "after the seal")
	if got := logged(); got != uint64(len(data)) {
		t.Fatalf("the first sync after a seal logged %d bytes, want all %d", got, len(data))
	}
	patch(60, "and a range on top")
	if got := logged(); got != 8+18 {
		t.Fatalf("a range after the seal logged %d bytes, want 8 + 18", got)
	}
	d.Crash()
	s2, err := Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(7); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("after the crash: %d bytes, %v; want the %d synced", len(got), err, len(data))
	}
	if got, ok := s2.Label(7); !ok || !got.Equal(lbl) {
		t.Fatalf("after the crash the label is %v, %v", got, ok)
	}
	if n := s2.RecoveryReport().WALRecordsReplayed; n != 2 {
		t.Fatalf("replayed %d records, want the whole one after the seal and its range", n)
	}
}

// TestRangeRecordAfterFailedCommit: a failed commit of an object's whole
// record ends the log generation, so the partial overwrite synced next
// cannot go down as a range record over a base the log never took — it is
// whole when sealed after the failure, and sent to a checkpoint when it was
// already queued behind the failed record.  Either way the acknowledged state
// reads back after a crash.  A whole record too large for the log ends the
// generation the same way.
func TestRangeRecordAfterFailedCommit(t *testing.T) {
	v1 := bytes.Repeat([]byte("1"), 4096)
	v2 := append([]byte(nil), v1...)
	copy(v2[100:200], bytes.Repeat([]byte("2"), 100))
	errFlush := errors.New("flush failed")
	setup := func(t *testing.T, opts Options) (*Store, *disk.Disk) {
		t.Helper()
		d := disk.New(disk.Params{Sectors: 1 << 16, WriteCache: true}, &vclock.Clock{})
		s, err := Format(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutLabeled(1, rotLabel(1), v1, 0, whole); err != nil {
			t.Fatal(err)
		}
		return s, d
	}
	readsBack := func(t *testing.T, d *disk.Disk, opts Options) {
		t.Helper()
		d.Crash()
		s2, err := Open(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s2.Get(1); err != nil || !bytes.Equal(got, v2) {
			t.Fatalf("after the crash: %q…, %v; want the acknowledged overwrite", got[:min(len(got), 8)], err)
		}
	}
	t.Run("sealed-after", func(t *testing.T) {
		opts := Options{LogSize: 1 << 20}
		s, d := setup(t, opts)
		d.FailNextFlush(errFlush)
		if err := s.SyncObject(1); !errors.Is(err, errFlush) {
			t.Fatalf("sync over a failed flush = %v", err)
		}
		if err := s.PutLabeled(1, rotLabel(1), v2, 100, 200); err != nil {
			t.Fatal(err)
		}
		logged := s.Stats().BytesLogged
		if err := s.SyncObject(1); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().BytesLogged - logged; got != uint64(len(v2)) {
			t.Fatalf("the sync after the failed commit logged %d bytes, want the whole %d", got, len(v2))
		}
		readsBack(t, d, opts)
	})
	t.Run("queued-behind", func(t *testing.T) {
		opts := Options{LogSize: 1 << 20}
		s, d := setup(t, opts)
		s.comm.maxRecs = 1
		s.holdGroupCommit()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		launch := func(i int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = s.SyncObject(1)
			}()
			deadline := time.Now().Add(10 * time.Second)
			for s.groupQueueLen() <= i {
				if time.Now().After(deadline) {
					t.Fatalf("sync %d never queued", i)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		launch(0)
		if err := s.PutLabeled(1, rotLabel(1), v2, 100, 200); err != nil {
			t.Fatal(err)
		}
		launch(1)
		logged, ckpts := s.Stats().BytesLogged, s.Stats().Checkpoints
		d.FailNextFlush(errFlush)
		s.releaseGroupCommit()
		wg.Wait()
		if !errors.Is(errs[0], errFlush) || errs[1] != nil {
			t.Fatalf("syncs = %v, %v; want the flush error, then success", errs[0], errs[1])
		}
		st := s.Stats()
		if st.BytesLogged != logged || st.Checkpoints != ckpts+1 {
			t.Fatalf("the queued range record: %d bytes logged, %d checkpoints; want none logged and one checkpoint", st.BytesLogged-logged, st.Checkpoints-ckpts)
		}
		readsBack(t, d, opts)
	})
	t.Run("too-large", func(t *testing.T) {
		d := disk.New(disk.Params{Sectors: 1 << 16, WriteCache: true}, &vclock.Clock{})
		s, err := Format(d, Options{LogSize: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		big := bytes.Repeat([]byte("1"), 128<<10)
		if err := s.PutLabeled(1, rotLabel(1), big, 0, whole); err != nil {
			t.Fatal(err)
		}
		// What a SyncObject does before its checkpoint fallback, twice, with a
		// partial overwrite between: a second syncer can seal in that window.
		s.ckptMu.RLock()
		defer s.ckptMu.RUnlock()
		if _, err := s.sealSync(1); !errors.Is(err, errRetryCheckpoint) {
			t.Fatalf("sealing an object larger than the log = %v", err)
		}
		copy(big[10:], "2")
		if err := s.PutLabeled(1, rotLabel(1), big, 10, 11); err != nil {
			t.Fatal(err)
		}
		if tk, err := s.sealSync(1); tk != nil || !errors.Is(err, errRetryCheckpoint) {
			t.Fatalf("the overwrite sealed as %+v, %v; want the whole object again, too large for the log", tk, err)
		}
	})
}

// TestRangePutSparesCheckpointSeal: a put patches the resident copy in place,
// but not while a checkpoint seal has captured it.  With the body held, an
// unsynced range put to a sealed object must leave the sealed bytes to be
// written home: after a crash the object reads back exactly them, verified.
func TestRangePutSparesCheckpointSeal(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 16, WriteCache: true}, &vclock.Clock{})
	opts := Options{LogSize: 1 << 20}
	s, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	sealed := bytes.Repeat([]byte("s"), 16<<10)
	if err := s.PutLabeled(1, rotLabel(1), sealed, 0, whole); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	s.ckptGate = func() {
		close(entered)
		<-release
	}
	done := make(chan error, 1)
	go func() { done <- s.Checkpoint() }()
	<-entered
	patched := append([]byte(nil), sealed...)
	copy(patched[4096:], "after the seal")
	if err := s.PutLabeled(1, rotLabel(1), patched, 4096, 4096+14); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	d.Crash()
	s2, err := Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(1); err != nil || !bytes.Equal(got, sealed) {
		t.Fatalf("after the crash: %q at 4096, %v; want the sealed bytes", got[4096:min(len(got), 4096+14)], err)
	}
	if q := s2.QuarantinedObjects(); len(q) != 0 {
		t.Fatalf("objects %v quarantined, want none", q)
	}
}

// TestRangePutSparesQueuedWholeRecord: a whole log record aliases the
// resident copy until it commits.  A range put while the record waits in the
// committer must not reach it: after a crash the object reads back the bytes
// the sync sealed.
func TestRangePutSparesQueuedWholeRecord(t *testing.T) {
	s, d := testStore(t)
	synced := bytes.Repeat([]byte("v"), 16<<10)
	if err := s.PutLabeled(1, rotLabel(1), synced, 0, whole); err != nil {
		t.Fatal(err)
	}
	s.holdGroupCommit()
	done := make(chan error, 1)
	go func() { done <- s.SyncObject(1) }()
	deadline := time.Now().Add(10 * time.Second)
	for s.groupQueueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the sync never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	patched := append([]byte(nil), synced...)
	copy(patched[100:], "queued")
	if err := s.PutLabeled(1, rotLabel(1), patched, 100, 106); err != nil {
		t.Fatal(err)
	}
	s.releaseGroupCommit()
	if err := <-done; err != nil {
		t.Fatalf("sync: %v", err)
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(1); err != nil || !bytes.Equal(got, synced) {
		t.Fatalf("after the crash: %q at 100, %v; want the synced bytes", got[100:min(len(got), 106)], err)
	}
}

// TestRangePutAllocatesRange: sixteen 8 KiB range puts into a resident 4 MiB
// object copy the ranges, not the object: well under 1 MiB allocated in all,
// against 64 MiB for a fresh copy per put.
func TestRangePutAllocatesRange(t *testing.T) {
	s, _ := testStore(t)
	lbl := rotLabel(1)
	data := make([]byte, 4<<20)
	if err := s.PutLabeled(1, lbl, data, 0, whole); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 16; i++ {
		off := i * 8192
		data[off] = byte(i + 1)
		if err := s.PutLabeled(1, lbl, data, off, off+8192); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("16 range puts allocated %d KiB, want under 1024", got>>10)
	}
	if got, err := s.Get(1); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after the range puts: %v, or the bytes differ", err)
	}
}

// TestRangeRecordWithoutBaseQuarantines: replay lays a range record only over
// a whole record it replayed.  One whose base is a home extent (with bytes or
// none), or which reaches past its base's end — the store writes neither —
// quarantines its object with a typed error instead of serving bytes no
// single state held.
func TestRangeRecordWithoutBaseQuarantines(t *testing.T) {
	s, d := testStore(t)
	for _, id := range []uint64{2, 4} {
		if err := s.Put(id, []byte("checkpointed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte("a whole record")); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncObject(1); err != nil {
		t.Fatal(err)
	}
	if err := s.l.Commit(s.epoch.Load(), []wal.Record{
		{ObjectID: 2, Range: true, Data: encodeRangeBody(0, []byte("X"))},
		{ObjectID: 4, Range: true, Data: encodeRangeBody(0, nil)},
		{ObjectID: 3, Data: []byte("short")},
		{ObjectID: 3, Range: true, Data: encodeRangeBody(3, []byte("overrun"))},
		{ObjectID: 1, Range: true, Data: encodeRangeBody(2, []byte("fresh"))},
	}); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(1); err != nil || string(got) != "a fresh record" {
		t.Fatalf("object 1 = %q, %v; want its whole record patched", got, err)
	}
	for _, id := range []uint64{2, 3, 4} {
		var qe *QuarantineError
		if got, err := s2.Get(id); !errors.As(err, &qe) || qe.ID != id {
			t.Errorf("object %d = %q, %v; want a QuarantineError", id, got, err)
		}
	}
	if q, n := s2.QuarantinedObjects(), s2.Stats().CorruptionsDetected; len(q) != 3 || n < 3 {
		t.Errorf("objects %v quarantined with %d corruptions detected; want three", q, n)
	}
}
