package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"histar/internal/disk"
	"histar/internal/vclock"
)

func testLog(t *testing.T, size int64) (*Log, *disk.Disk) {
	t.Helper()
	d := disk.New(disk.Params{Sectors: 1 << 15}, &vclock.Clock{})
	l, err := New(d, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	return l, d
}

func TestCommitAndRecover(t *testing.T) {
	l, d := testLog(t, 1<<20)
	l.Append(Record{ObjectID: 1, Data: []byte("object one")})
	l.Append(Record{ObjectID: 2, Data: []byte("object two")})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{ObjectID: 3, Delete: true})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}

	// Reattach (as after a reboot) and recover.
	l2 := Open(d, 0, 1<<20)
	recs, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("recovered %d records", len(recs))
	}
	if recs[0].ObjectID != 1 || !bytes.Equal(recs[0].Data, []byte("object one")) {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if !recs[2].Delete || recs[2].ObjectID != 3 {
		t.Errorf("record 2 = %+v", recs[2])
	}
}

func TestUncommittedRecordsAreNotRecovered(t *testing.T) {
	l, d := testLog(t, 1<<20)
	l.Append(Record{ObjectID: 1, Data: []byte("committed")})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{ObjectID: 2, Data: []byte("lost")})
	// No commit: a crash discards it.
	recs, err := Open(d, 0, 1<<20).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ObjectID != 1 {
		t.Errorf("recovered %+v", recs)
	}
}

func TestTruncate(t *testing.T) {
	l, d := testLog(t, 1<<20)
	l.Append(Record{ObjectID: 1, Data: make([]byte, 100)})
	l.Commit()
	if l.CommittedBytes() == 0 {
		t.Fatal("expected committed bytes")
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if l.CommittedBytes() != 0 {
		t.Error("truncate should reset committed bytes")
	}
	recs, err := Open(d, 0, 1<<20).Recover()
	if err != nil || len(recs) != 0 {
		t.Errorf("recover after truncate: %d records, %v", len(recs), err)
	}
}

func TestLogFull(t *testing.T) {
	l, _ := testLog(t, 4096)
	// A record that would fit an empty region but not the remaining space:
	// recoverable, so Commit reports ErrFull and keeps it pending.
	if err := l.Append(Record{ObjectID: 1, Data: make([]byte, 2500)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{ObjectID: 2, Data: make([]byte, 2500)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); !errors.Is(err, ErrFull) {
		t.Errorf("commit into full log: err=%v", err)
	}
	// A record that could never fit is rejected at Append instead.
	if err := l.Append(Record{ObjectID: 3, Data: make([]byte, 8192)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("append of oversize record: err=%v", err)
	}
}

func TestEmptyCommitIsNoop(t *testing.T) {
	l, _ := testLog(t, 1<<20)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Commits != 0 {
		t.Errorf("empty commit counted: %d", st.Commits)
	}
}

func TestCorruptRecordDetected(t *testing.T) {
	l, d := testLog(t, 1<<20)
	l.Append(Record{ObjectID: 7, Data: []byte("good record")})
	l.Append(Record{ObjectID: 8, Data: []byte("to be damaged")})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's data area.
	evil := []byte{0xff}
	if _, err := d.WriteAt(evil, 16+19+11+19+4); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 1<<20).Recover()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v (recs=%d)", err, len(recs))
	}
	if len(recs) != 1 || recs[0].ObjectID != 7 {
		t.Errorf("records before damage should survive: %+v", recs)
	}
}

func TestCorruptRecoverySealsValidPrefix(t *testing.T) {
	l, d := testLog(t, 1<<20)
	l.Append(Record{ObjectID: 1, Data: []byte("keep me")})
	l.Append(Record{ObjectID: 2, Data: []byte("damage me")})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte{0xff}, 16+19+7+19+2); err != nil {
		t.Fatal(err)
	}
	l2 := Open(d, 0, 1<<20)
	if _, err := l2.Recover(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
	// The log was resealed to the valid prefix: new commits append after it
	// and a fresh recovery sees prefix + new records with no error.
	l2.Append(Record{ObjectID: 3, Data: []byte("after reseal")})
	if err := l2.Commit(); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 1<<20).Recover()
	if err != nil {
		t.Fatalf("recovery after reseal: %v", err)
	}
	if len(recs) != 2 || recs[0].ObjectID != 1 || recs[1].ObjectID != 3 {
		t.Errorf("recovered %+v", recs)
	}
}

func TestCorruptCommittedLengthRejected(t *testing.T) {
	l, d := testLog(t, 1<<16)
	l.Append(Record{ObjectID: 1, Data: []byte("x")})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	// Scribble an impossible committed length into the header.
	var evil [8]byte
	for i := range evil {
		evil[i] = 0xff
	}
	if _, err := d.WriteAt(evil[:], 8); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 1<<16).Recover()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v (%d recs)", err, len(recs))
	}
}

func TestLabelRecordsRoundTrip(t *testing.T) {
	l, d := testLog(t, 1<<20)
	lblBytes := []byte{2, 1, 17, 0, 0, 0, 0, 0, 0, 0, 3} // canonical {17:3} at default 2
	l.Append(Record{ObjectID: 5, Data: []byte("tainted contents"), Label: lblBytes})
	l.Append(Record{ObjectID: 6, Data: []byte("plain contents")})
	l.Append(Record{ObjectID: 5, Delete: true})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 1<<20).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("recovered %d records", len(recs))
	}
	if !bytes.Equal(recs[0].Label, lblBytes) || !bytes.Equal(recs[0].Data, []byte("tainted contents")) {
		t.Errorf("labeled record = %+v", recs[0])
	}
	if recs[1].Label != nil {
		t.Errorf("unlabeled record grew a label: %+v", recs[1])
	}
	if !recs[2].Delete || recs[2].Label != nil {
		t.Errorf("tombstone = %+v", recs[2])
	}
}

func TestRecoverFreshRegion(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 12}, &vclock.Clock{})
	l := Open(d, 0, 1<<16)
	recs, err := l.Recover()
	if err != nil || len(recs) != 0 {
		t.Errorf("fresh region: %d recs, %v", len(recs), err)
	}
}

func TestGroupCommitBatchesManyRecords(t *testing.T) {
	l, _ := testLog(t, 1<<22)
	for i := 0; i < 1000; i++ {
		l.Append(Record{ObjectID: uint64(i), Data: make([]byte, 64)})
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Commits != 1 || st.Appended != 1000 {
		t.Errorf("commits=%d appended=%d", st.Commits, st.Appended)
	}
}

func TestErrFullKeepsRecordsPendingForRetry(t *testing.T) {
	l, d := testLog(t, 4096)
	// Fill most of the region, then overflow it.
	l.Append(Record{ObjectID: 1, Data: make([]byte, 3000)})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{ObjectID: 2, Data: make([]byte, 2000)})
	if err := l.Commit(); !errors.Is(err, ErrFull) {
		t.Fatalf("overflowing commit: err=%v", err)
	}
	// Truncate (as the store's checkpoint fallback does) and retry WITHOUT
	// re-appending: the pending record commits exactly once.
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 4096).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ObjectID != 2 {
		t.Fatalf("after retry: %+v", recs)
	}
}

func TestOversizeRecordRejectedAtAppend(t *testing.T) {
	l, d := testLog(t, 4096)
	// Never-committable records are refused before they enter the pending
	// set, so they can neither wedge the log nor be lost by a concurrent
	// caller's commit.
	if err := l.Append(Record{ObjectID: 1, Data: make([]byte, 64*1024)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize data: err=%v, want ErrTooLarge", err)
	}
	if err := l.Append(Record{ObjectID: 3, Label: make([]byte, 70000)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize label: err=%v, want ErrTooLarge", err)
	}
	// The log is unaffected: small records commit cleanly.
	if err := l.Append(Record{ObjectID: 2, Data: []byte("fits")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 4096).Recover()
	if err != nil || len(recs) != 1 || recs[0].ObjectID != 2 {
		t.Fatalf("recover: %+v, %v", recs, err)
	}
	if st := l.Stats(); st.Appended != 1 {
		t.Errorf("rejected records counted as appended: %d", st.Appended)
	}
}

func TestUnsupportedVersionRefusedWithoutErasure(t *testing.T) {
	const region = 1 << 16
	l, d := testLog(t, region)
	if err := l.Append(Record{ObjectID: 1, Data: []byte("other format's records")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	// Pretend another format wrote this log: restamp the version byte and
	// fix up the header CRC the way that code would have.
	setVersion := func(v byte) {
		hdr := make([]byte, logHeaderSize)
		if _, err := d.ReadAt(hdr, 0); err != nil {
			t.Fatal(err)
		}
		hdr[4] = v
		binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(hdr[:16], castagnoli))
		if _, err := d.WriteAt(hdr, 0); err != nil {
			t.Fatal(err)
		}
	}
	image := func() []byte {
		img := make([]byte, region)
		if _, err := d.ReadAt(img, 0); err != nil {
			t.Fatal(err)
		}
		return img
	}
	// Every version but the current one — the retired 0, 2 and 3 as much
	// as a future 9 — is refused, and the refusal writes nothing.
	for _, v := range []byte{0, 2, 3, 9} {
		setVersion(v)
		before := image()
		if recs, err := Open(d, 0, region).Recover(); !errors.Is(err, ErrVersion) || len(recs) != 0 {
			t.Fatalf("version %d: %d records, err=%v, want ErrVersion", v, len(recs), err)
		}
		if !bytes.Equal(before, image()) {
			t.Fatalf("version %d: refusal modified the region", v)
		}
	}
	// Restoring the version byte recovers the records.
	setVersion(logVersion)
	recs, err := Open(d, 0, region).Recover()
	if err != nil || len(recs) != 1 || string(recs[0].Data) != "other format's records" {
		t.Fatalf("after restoring version: %+v, %v", recs, err)
	}
}

func TestFlippedVersionByteIsCorruptionNotFutureFormat(t *testing.T) {
	// A bare version-byte flip (without a matching header CRC) is bit rot,
	// not another format: the log must report ErrCorrupt rather than refuse
	// the mount as ErrVersion — whatever the rotted byte happens to spell.
	for _, v := range []byte{0, 2, 3, 9} {
		l, d := testLog(t, 1<<16)
		if err := l.Append(Record{ObjectID: 1, Data: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.WriteAt([]byte{v}, 4); err != nil {
			t.Fatal(err)
		}
		if recs, err := Open(d, 0, 1<<16).Recover(); !errors.Is(err, ErrCorrupt) || len(recs) != 0 {
			t.Fatalf("version byte rotted to %d: %d records, err=%v, want ErrCorrupt", v, len(recs), err)
		}
	}
}

func TestDamagedMagicIsCorruptionNotFresh(t *testing.T) {
	l, d := testLog(t, 1<<16)
	if err := l.Append(Record{ObjectID: 7, Data: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte{0xde}, 1); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 1<<16).Recover()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rotted magic must be ErrCorrupt, got %v (recs=%d)", err, len(recs))
	}
	// The reseal leaves a mountable empty log.
	recs, err = Open(d, 0, 1<<16).Recover()
	if err != nil || len(recs) != 0 {
		t.Fatalf("after reseal: %d recs, %v", len(recs), err)
	}
}

func TestAppendBatchCommitsAtomically(t *testing.T) {
	l, d := testLog(t, 1<<20)
	batch := []Record{
		{ObjectID: 1, Data: []byte("batched one")},
		{ObjectID: 2, Data: []byte("batched two"), Label: []byte{2, 0}},
		{ObjectID: 3, Delete: true},
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Commits != 1 || st.Batches != 1 || st.BatchRecords != 3 || st.MaxBatch != 3 {
		t.Errorf("stats = %+v", st)
	}
	recs, err := Open(d, 0, 1<<20).Recover()
	if err != nil || len(recs) != 3 {
		t.Fatalf("recover: %d records, %v", len(recs), err)
	}
	if recs[1].ObjectID != 2 || !bytes.Equal(recs[1].Label, []byte{2, 0}) {
		t.Errorf("batched label record = %+v", recs[1])
	}
	if !recs[2].Delete {
		t.Errorf("batched tombstone = %+v", recs[2])
	}
}

func TestAppendBatchRejectsWholeBatchOnOversizeRecord(t *testing.T) {
	l, _ := testLog(t, 4096)
	batch := []Record{
		{ObjectID: 1, Data: []byte("fits")},
		{ObjectID: 2, Data: make([]byte, 8192)}, // could never commit
	}
	if err := l.AppendBatch(batch); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize batch: err=%v", err)
	}
	if n := l.PendingBytes(); n != 0 {
		t.Errorf("rejected batch left %d pending bytes", n)
	}
	if st := l.Stats(); st.Appended != 0 || st.Batches != 0 {
		t.Errorf("rejected batch counted: %+v", st)
	}
}

func TestDropPendingDiscardsUncommittedRecords(t *testing.T) {
	l, d := testLog(t, 1<<20)
	if err := l.Append(Record{ObjectID: 1, Data: []byte("committed")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([]Record{{ObjectID: 2, Data: []byte("abandoned")}}); err != nil {
		t.Fatal(err)
	}
	l.DropPending()
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 1<<20).Recover()
	if err != nil || len(recs) != 1 || recs[0].ObjectID != 1 {
		t.Fatalf("recover after drop: %+v, %v", recs, err)
	}
}
