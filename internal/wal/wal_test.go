package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
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
	if err := l.Commit([]Record{
		{ObjectID: 1, Data: []byte("object one")},
		{ObjectID: 2, Data: []byte("object two")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit([]Record{{ObjectID: 3, Delete: true}}); err != nil {
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
	l, d := testLog(t, 4096)
	if err := l.Commit([]Record{{ObjectID: 1, Data: make([]byte, 3000)}}); err != nil {
		t.Fatal(err)
	}
	// A commit the log refused wrote nothing: a crash finds only the first.
	if err := l.Commit([]Record{{ObjectID: 2, Data: make([]byte, 2000)}}); !errors.Is(err, ErrFull) {
		t.Fatalf("overflowing commit: err=%v", err)
	}
	recs, err := Open(d, 0, 4096).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ObjectID != 1 {
		t.Errorf("recovered %+v", recs)
	}
}

func TestTruncate(t *testing.T) {
	l, d := testLog(t, 1<<20)
	l.Commit([]Record{{ObjectID: 1, Data: make([]byte, 100)}})
	if l.LiveBytes() == 0 {
		t.Fatal("expected live bytes")
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if l.LiveBytes() != 0 {
		t.Error("truncate should reset live bytes")
	}
	recs, err := Open(d, 0, 1<<20).Recover()
	if err != nil || len(recs) != 0 {
		t.Errorf("recover after truncate: %d records, %v", len(recs), err)
	}
}

func TestLogFull(t *testing.T) {
	l, _ := testLog(t, 4096)
	// A record that would fit an empty region but not the remaining space:
	// Commit reports ErrFull, and keeps nothing to commit later.
	if err := l.Commit([]Record{{ObjectID: 1, Data: make([]byte, 2500)}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit([]Record{{ObjectID: 2, Data: make([]byte, 2500)}}); !errors.Is(err, ErrFull) {
		t.Errorf("commit into full log: err=%v", err)
	}
	// A record that could never fit is ErrTooLarge instead.
	if err := l.Commit([]Record{{ObjectID: 3, Data: make([]byte, 8192)}}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("commit of oversize record: err=%v", err)
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(nil); err != nil || l.LiveBytes() != 0 || l.Stats().Commits != 1 {
		t.Errorf("a refused commit left something behind: err=%v, %d live bytes, %+v", err, l.LiveBytes(), l.Stats())
	}
}

func TestEmptyCommitIsNoop(t *testing.T) {
	l, _ := testLog(t, 1<<20)
	if err := l.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Commits != 0 {
		t.Errorf("empty commit counted: %d", st.Commits)
	}
}

func TestCorruptRecordDetected(t *testing.T) {
	l, d := testLog(t, 1<<20)
	if err := l.Commit([]Record{
		{ObjectID: 7, Data: []byte("good record")},
		{ObjectID: 8, Data: []byte("to be damaged")},
	}); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's data area.
	evil := []byte{0xff}
	if _, err := d.WriteAt(evil, logHeaderSize+2*descSize+19+11+19+4); err != nil {
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
	if err := l.Commit([]Record{
		{ObjectID: 1, Data: []byte("keep me")},
		{ObjectID: 2, Data: []byte("damage me")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte{0xff}, logHeaderSize+2*descSize+19+7+19+2); err != nil {
		t.Fatal(err)
	}
	l2 := Open(d, 0, 1<<20)
	if _, err := l2.Recover(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
	// The log was resealed to the valid prefix: new commits append after it
	// and a fresh recovery sees prefix + new records with no error.
	if err := l2.Commit([]Record{{ObjectID: 3, Data: []byte("after reseal")}}); err != nil {
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

func TestCorruptGenerationRejected(t *testing.T) {
	l, d := testLog(t, 1<<16)
	if err := l.Commit([]Record{{ObjectID: 1, Data: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	// Scribble over the header's generation field: the records are orphaned,
	// and the header CRC says so.
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
	if err := l.Commit([]Record{
		{ObjectID: 5, Data: []byte("tainted contents"), Label: lblBytes},
		{ObjectID: 6, Data: []byte("plain contents")},
		{ObjectID: 5, Delete: true},
	}); err != nil {
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
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = Record{ObjectID: uint64(i), Data: make([]byte, 64)}
	}
	if err := l.Commit(recs); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Commits != 1 {
		t.Errorf("commits=%d", st.Commits)
	}
}

func TestOversizeRecordRejectedAtAppend(t *testing.T) {
	l, d := testLog(t, 4096)
	// Never-committable records are refused before anything is written, so
	// they cannot wedge the log.
	if err := l.Commit([]Record{{ObjectID: 1, Data: make([]byte, 64*1024)}}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize data: err=%v, want ErrTooLarge", err)
	}
	if err := l.Commit([]Record{{ObjectID: 3, Label: make([]byte, 70000)}}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize label: err=%v, want ErrTooLarge", err)
	}
	// The log is unaffected: small records commit cleanly.
	if err := l.Commit([]Record{{ObjectID: 2, Data: []byte("fits")}}); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 4096).Recover()
	if err != nil || len(recs) != 1 || recs[0].ObjectID != 2 {
		t.Fatalf("recover: %+v, %v", recs, err)
	}
	if st := l.Stats(); st.Commits != 1 {
		t.Errorf("rejected records counted as commits: %d", st.Commits)
	}
}

func TestUnsupportedVersionRefusedWithoutErasure(t *testing.T) {
	const region = 1 << 16
	l, d := testLog(t, region)
	if err := l.Commit([]Record{{ObjectID: 1, Data: []byte("other format's records")}}); err != nil {
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
	// Every version but the current one — the retired 0, 2, 3, 4 and 5 as
	// much as a future 9 — is refused, and the refusal writes nothing.
	for _, v := range []byte{0, 2, 3, 4, 5, 9} {
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
	for _, v := range []byte{0, 2, 3, 4, 9} {
		l, d := testLog(t, 1<<16)
		if err := l.Commit([]Record{{ObjectID: 1, Data: []byte("x")}}); err != nil {
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
	if err := l.Commit([]Record{{ObjectID: 7, Data: []byte("y")}}); err != nil {
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
	if err := l.Commit(batch); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Commits != 1 {
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
	if err := l.Commit(batch); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize batch: err=%v", err)
	}
	if st := l.Stats(); st.Commits != 0 || l.LiveBytes() != 0 {
		t.Errorf("rejected batch counted, or wrote something: %+v, %d live bytes", st, l.LiveBytes())
	}
}

// recoverIDs reopens the region the way a reboot would and returns the
// recovered records, failing the test on any error: none of the v5 tests
// below tolerate a false damage report.
func recoverIDs(t *testing.T, d *disk.Disk, size int64) (*Log, []Record) {
	t.Helper()
	l := Open(d, 0, size)
	recs, err := l.Recover()
	if err != nil {
		t.Fatalf("recover: %v (%d records)", err, len(recs))
	}
	return l, recs
}

// wantIDs checks the non-marker records' object IDs, in order.
func wantIDs(t *testing.T, what string, recs []Record, want ...uint64) {
	t.Helper()
	var got []uint64
	for _, r := range recs {
		if !r.Mark {
			got = append(got, r.ObjectID)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: recovered objects %v, want %v", what, got, want)
	}
}

// commitOne commits one record whose frame is exactly frameLen bytes.
func commitOne(t *testing.T, l *Log, id uint64, frameLen int) {
	t.Helper()
	if err := l.Commit([]Record{{ObjectID: id, Data: make([]byte, frameLen-frameOverhead-recHeaderSize)}}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleGenerationNeverReplays lines new frames up exactly on the
// boundaries of frames a Truncate or a compaction left behind — the stale
// bytes verify in every respect but their generation — and checks that
// recovery stops where the new log ends.
func TestStaleGenerationNeverReplays(t *testing.T) {
	const (
		region   = 1 << 16
		markLen  = frameOverhead + recHeaderSize // 115: a marker's frame
		frameLen = 10 * markLen                  // so every boundary is a multiple of markLen
	)
	t.Run("truncate", func(t *testing.T) {
		l, d := testLog(t, region)
		for id := uint64(1); id <= 20; id++ {
			commitOne(t, l, id, frameLen)
		}
		if err := l.Truncate(); err != nil {
			t.Fatal(err)
		}
		commitOne(t, l, 99, frameLen) // ends where stale frame 2 begins
		_, recs := recoverIDs(t, d, region)
		wantIDs(t, "after truncate", recs, 99)
	})
	t.Run("reclaim-and-compact", func(t *testing.T) {
		l, d := testLog(t, region)
		for id := uint64(1); id <= 20; id++ {
			commitOne(t, l, id, frameLen)
		}
		if err := l.AppendMark(7); err != nil {
			t.Fatal(err)
		}
		commitOne(t, l, 21, frameLen)
		commitOne(t, l, 22, frameLen)
		if err := l.ReclaimBefore(7); err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.Reclaims != 1 || st.Compactions != 1 {
			t.Fatalf("expected one reclaim and one compaction: %+v", st)
		}
		// The moved frames come back from their new offsets.
		l2, recs := recoverIDs(t, d, region)
		wantIDs(t, "after compaction", recs, 21, 22)
		if start, ok := l2.ReplayStart(7); !ok || start != 1 {
			t.Fatalf("ReplayStart(7) = %d, %v after compaction", start, ok)
		}
		// Nine more markers bring the tail to 3×frameLen, where frame 4 of
		// the old generation still lies.
		for i := 0; i < 9; i++ {
			if err := l.AppendMark(8); err != nil {
				t.Fatal(err)
			}
		}
		if l.LiveBytes() != 3*frameLen {
			t.Fatalf("tail at %d, want %d", l.LiveBytes(), 3*frameLen)
		}
		_, recs = recoverIDs(t, d, region)
		wantIDs(t, "after compaction and markers", recs, 21, 22)
		if len(recs) != 12 {
			t.Fatalf("recovered %d records, want 12 (2 objects, 10 markers)", len(recs))
		}
	})
}

// TestForgedFramesInStaleRecordsNeverReplay: record contents are written by
// untrusted code, and after a Truncate they lie past the tail.  Here a record
// is filled with well-formed frames, each addressed to the offset it lies at
// and stamped with every generation a guesser could derive from the current
// one; the log is truncated and a frame committed that ends exactly where a
// forged one begins.  Generations are random, so none of them replays.
func TestForgedFramesInStaleRecordsNeverReplay(t *testing.T) {
	const region = 1 << 16
	l, d := testLog(t, region)
	const forgedLen = frameOverhead + recHeaderSize + 8
	const dataStart = 2*descSize + recHeaderSize + 40 // body offset of the first forged frame, after some padding
	data := make([]byte, 40)
	for i, guess := range []uint64{l.gen, l.gen + 1, l.gen + 2, 1, 2, 0} {
		evil := Open(d, 0, region) // only an encoder here: it writes nothing
		data = append(data, evil.frame([]Record{{ObjectID: 666, Data: []byte("injected")}}, guess, int64(dataStart+i*forgedLen))...)
	}
	if err := l.Commit([]Record{{ObjectID: 1, Data: data}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := l.Truncate(); err != nil {
			t.Fatal(err)
		}
		commitOne(t, l, 2, dataStart+i*forgedLen) // the tail now lies on forged frame i
		d.Crash()
		_, recs := recoverIDs(t, d, region)
		wantIDs(t, fmt.Sprintf("tail on forged frame %d", i), recs, 2)
	}
}

// TestFailedFlushFrameIsOverwritten: a frame that reached the platter whole
// while its flush reported failure was never acknowledged, and the store
// drops it.  The tail did not move, so the next frame — shorter, or a bare
// marker — lands on its first descriptor and it never replays.
func TestFailedFlushFrameIsOverwritten(t *testing.T) {
	const region = 1 << 16
	errFlush := errors.New("flush failed")
	for _, next := range []string{"nothing", "shorter-frame", "marker"} {
		d := disk.New(disk.Params{Sectors: 1 << 12, WriteCache: true}, &vclock.Clock{})
		l, err := New(d, 0, region)
		if err != nil {
			t.Fatal(err)
		}
		commitOne(t, l, 1, 300)
		a := []Record{{ObjectID: 10, Data: make([]byte, 600)}, {ObjectID: 11, Data: make([]byte, 600)}}
		d.FailFlushAfter(frameOverhead+a[0].EncodedSize()+a[1].EncodedSize(), errFlush)
		if err := l.Commit(a); !errors.Is(err, errFlush) {
			t.Fatalf("%s: commit across a failed flush: %v", next, err)
		}
		want := []uint64{1}
		switch next {
		case "nothing":
			// The premise: the whole frame did reach the platter.
			want = []uint64{1, 10, 11}
		case "shorter-frame":
			commitOne(t, l, 20, 200)
			want = []uint64{1, 20}
		case "marker":
			if err := l.AppendMark(5); err != nil {
				t.Fatal(err)
			}
		}
		d.Crash()
		_, recs := recoverIDs(t, d, region)
		wantIDs(t, next, recs, want...)
	}
}

// TestTornFrameIsAllOrNothing tears a 16-record, multi-sector frame at every
// sector boundary of its destage: recovery returns all of it or none of it,
// never reports damage for a commit nobody was told about, and the next
// commit lands where the torn frame began.
func TestTornFrameIsAllOrNothing(t *testing.T) {
	const region = 1 << 16
	errPower := errors.New("power failed mid-destage")
	batch := make([]Record, 16)
	frameLen := int64(frameOverhead)
	for i := range batch {
		batch[i] = Record{ObjectID: uint64(100 + i), Data: bytes.Repeat([]byte{byte(i)}, 200)}
		frameLen += batch[i].EncodedSize()
	}
	sawAll, sawNone := false, false
	for budget := int64(0); budget <= frameLen+disk.SectorSize; budget += disk.SectorSize / 2 {
		d := disk.New(disk.Params{Sectors: 1 << 12, WriteCache: true}, &vclock.Clock{})
		l, err := New(d, 0, region)
		if err != nil {
			t.Fatal(err)
		}
		commitOne(t, l, 1, 300)
		d.FailFlushAfter(budget, errPower)
		if err := l.Commit(batch); !errors.Is(err, errPower) {
			t.Fatalf("budget %d: commit across a torn flush: %v", budget, err)
		}
		d.Crash()
		l2, recs := recoverIDs(t, d, region)
		want := []uint64{1}
		if len(recs) > 1 {
			for _, r := range batch {
				want = append(want, r.ObjectID)
			}
			sawAll = true
		} else {
			sawNone = true
		}
		wantIDs(t, fmt.Sprintf("budget %d", budget), recs, want...)
		commitOne(t, l2, 999, 150)
		d.Crash()
		_, recs = recoverIDs(t, d, region)
		wantIDs(t, fmt.Sprintf("budget %d, after the next commit", budget), recs, append(want, 999)...)
	}
	if !sawAll || !sawNone {
		t.Fatalf("budgets did not cover both outcomes: all=%v none=%v", sawAll, sawNone)
	}
}

// TestCommitIsOneSequentialWrite holds the point of format 5 in tier-1: on
// the paper's disk with its write cache on, a commit is one write and one
// flush at the tail, and back-to-back commits never move the head.
func TestCommitIsOneSequentialWrite(t *testing.T) {
	p := disk.PaperDisk()
	p.Sectors, p.WriteCache = 1<<12, true
	d := disk.New(p, &vclock.Clock{})
	l, err := New(d, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	for i := 0; i < 1000; i++ {
		if err := l.Commit([]Record{{ObjectID: uint64(i), Data: make([]byte, 100)}}); err != nil {
			t.Fatal(err)
		}
	}
	after := d.Stats()
	if w, f, s := after.Writes-before.Writes, after.Flushes-before.Flushes, after.Seeks-before.Seeks; w != 1000 || f != 1000 || s > 1 {
		t.Fatalf("1000 commits cost %d writes, %d flushes, %d seeks; want 1000, 1000, at most 1", w, f, s)
	}
	if err := l.AppendMark(3); err != nil {
		t.Fatal(err)
	}
	if w, f := d.Stats().Writes-after.Writes, d.Stats().Flushes-after.Flushes; w != 1 || f != 1 {
		t.Fatalf("AppendMark cost %d writes, %d flushes; want 1, 1", w, f)
	}
}

// nullDev takes every write and allocates nothing doing so.
type nullDev struct{ size int64 }

func (nullDev) ReadAt(p []byte, off int64) (int, error)  { return len(p), nil }
func (nullDev) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }
func (nullDev) Flush() error                             { return nil }
func (d nullDev) Size() int64                            { return d.size }

// TestCommitAllocatesNothing: the log has no buffer between commits, only the
// last frame's array, which the next frame reuses.
func TestCommitAllocatesNothing(t *testing.T) {
	l, err := New(nullDev{1 << 30}, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{{ObjectID: 1, Data: make([]byte, 100)}, {ObjectID: 2, Data: make([]byte, 100), Label: []byte{1, 0}}}
	if n := testing.AllocsPerRun(100, func() { l.Commit(recs) }); n != 0 {
		t.Errorf("Commit allocates %v times in the steady state", n)
	}
	if n := testing.AllocsPerRun(100, func() { l.AppendMark(3) }); n != 0 {
		t.Errorf("AppendMark allocates %v times in the steady state", n)
	}
}

// flaky fails one chosen Flush of the disk under it, after destaging budget
// bytes of the cache: an error is returned, but the machine stays up and the
// caller carries on — a failed barrier, not a power cut.
type flaky struct {
	*disk.Disk
	failAt int   // the failAt-th Flush from now fails; 0 is never
	budget int64 // bytes that reach the platter all the same
}

var errFlaky = errors.New("flush failed")

func (f *flaky) Flush() error {
	if f.failAt > 0 {
		if f.failAt--; f.failAt == 0 {
			f.Disk.FailFlushAfter(f.budget, errFlaky)
		}
	}
	return f.Disk.Flush()
}

// TestFailedHeaderWriteLosesNothing: a commit never rewrites the header, so
// nothing heals a header write that failed.  Whichever one does — Truncate's,
// ReclaimBefore's, or either barrier of a compaction — and whether the disk
// dropped the write or made it durable before reporting the failure, what is
// acknowledged afterwards must be found after a crash.  Where the header on
// the platter has become unknown that means acknowledging nothing (ErrFull)
// until a header is written.
func TestFailedHeaderWriteLosesNothing(t *testing.T) {
	const region = 1 << 16
	reclaim := func(l *Log) error { return l.ReclaimBefore(7) }
	old := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, tc := range []struct {
		name    string
		live    int // 300-byte frames after the marker: more than 8 and nothing compacts
		failAt  int
		op      func(l *Log) error
		refuses bool // the header is in doubt: no commit until the retry
		// The earlier frames recovery still returns, by what became of the write.
		dropped, written []uint64
	}{
		{"truncate", 1, 1, (*Log).Truncate, true, old, nil},
		{"reclaim-header", 9, 1, reclaim, false, old, nil},
		{"compaction-frames", 2, 2, reclaim, false, nil, nil},
		{"compaction-header", 2, 3, reclaim, true, nil, nil},
	} {
		for _, budget := range []int64{0, region} {
			what, before := tc.name+"/dropped", tc.dropped
			if budget > 0 {
				what, before = tc.name+"/written", tc.written
			}
			d := disk.New(disk.Params{Sectors: 1 << 12, WriteCache: true}, &vclock.Clock{})
			fd := &flaky{Disk: d, budget: budget}
			l, err := New(fd, 0, region)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range old {
				commitOne(t, l, id, 300)
			}
			if err := l.AppendMark(7); err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(before)
			for i := 0; i < tc.live; i++ {
				commitOne(t, l, uint64(21+i), 300)
				if tc.name != "truncate" || budget == 0 {
					want = append(want, uint64(21+i))
				}
			}
			fd.failAt = tc.failAt
			if err := tc.op(l); !errors.Is(err, errFlaky) {
				t.Fatalf("%s: operation across a failed flush: %v", what, err)
			}
			switch err := l.Commit([]Record{{ObjectID: 99, Data: make([]byte, 100)}}); {
			case tc.refuses && !errors.Is(err, ErrFull):
				t.Fatalf("%s: commit with the header in doubt: %v, want ErrFull", what, err)
			case !tc.refuses && err != nil:
				t.Fatalf("%s: commit after the failure: %v", what, err)
			case !tc.refuses:
				want = append(want, 99)
			}
			d.Crash()
			l2, recs := recoverIDs(t, d, region)
			wantIDs(t, what+": after the failure, a commit and a crash", recs, want...)
			// And the operation works when retried.
			if err := tc.op(l2); err != nil {
				t.Fatalf("%s: retry: %v", what, err)
			}
			if tc.name == "truncate" {
				want = nil
			} else {
				want = want[slices.Index(want, 21):]
			}
			commitOne(t, l2, 100, 200)
			d.Crash()
			_, recs = recoverIDs(t, d, region)
			wantIDs(t, what+": after the retry", recs, append(want, 100)...)
		}
	}
	// Without a reboot in between: the retried Truncate lifts the refusal,
	// and the records that were refused commit when handed over again.
	d := disk.New(disk.Params{Sectors: 1 << 12, WriteCache: true}, &vclock.Clock{})
	fd := &flaky{Disk: d, failAt: 2}
	l, err := New(fd, 0, region)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(); !errors.Is(err, errFlaky) {
		t.Fatal(err)
	}
	refused := []Record{{ObjectID: 5, Data: []byte("refused once")}}
	if err := l.Commit(refused); !errors.Is(err, ErrFull) {
		t.Fatalf("commit with the header in doubt: %v, want ErrFull", err)
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(refused); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	_, recs := recoverIDs(t, d, region)
	wantIDs(t, "after the retried truncate", recs, 5)
}

// TestResealIsCrashSafe cuts the power at every sector the reseal after rot
// writes — the salvaged frame, then the header that adopts it — and reboots:
// the second recovery returns what the first did, either cleanly (the
// reseal had completed) or with ErrCorrupt again (the old log, judged the
// same way), and never fewer records without saying so.
func TestResealIsCrashSafe(t *testing.T) {
	const region = 1 << 14
	const frameLen = 700
	build := func(t *testing.T, reclaim bool) *disk.Disk {
		d := disk.New(disk.Params{Sectors: region / disk.SectorSize}, &vclock.Clock{})
		l, err := New(d, 0, region)
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(1); id <= 4; id++ {
			commitOne(t, l, id, frameLen)
		}
		if err := l.AppendMark(7); err != nil {
			t.Fatal(err)
		}
		for id := uint64(5); id <= 10; id++ {
			commitOne(t, l, id, frameLen)
		}
		if reclaim {
			if err := l.ReclaimBefore(7); err != nil {
				t.Fatal(err)
			}
			if st := l.Stats(); st.Reclaims != 1 || st.Compactions != 0 {
				t.Fatalf("want a reclaimed, uncompacted prefix: %+v", st)
			}
		}
		return d
	}
	const markLen = frameOverhead + recHeaderSize
	frame := func(i int64) int64 { // device offset of the i-th 700-byte frame after the marker
		return logHeaderSize + 4*frameLen + markLen + i*frameLen
	}
	for _, tc := range []struct {
		name    string
		reclaim bool
		damage  func(img []byte)
		want    []uint64
	}{
		// Salvage does not fit the dead prefix (there is none): it goes after the rotted frame.
		{"rotted-payload", false, func(img []byte) { img[frame(2)+2*descSize+recHeaderSize+5] ^= 0x10 }, []uint64{1, 2, 3, 4, 5, 6}},
		// Salvage fits the dead prefix: it goes to the front of the region.
		{"rotted-payload-dead-prefix", true, func(img []byte) { img[frame(1)+2*descSize+recHeaderSize+5] ^= 0x10 }, []uint64{5}},
		// Both leading descriptors gone: the frames behind them are found one read on.
		{"lost-leading-pair", false, func(img []byte) { clear(img[frame(3) : frame(3)+2*descSize]) }, []uint64{1, 2, 3, 4, 5, 6, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := make([]byte, region)
			if _, err := build(t, tc.reclaim).ReadAt(img, 0); err != nil {
				t.Fatal(err)
			}
			tc.damage(img)
			boot := func() *disk.Disk {
				d := disk.New(disk.Params{Sectors: region / disk.SectorSize}, &vclock.Clock{})
				d.WriteAt(img, 0)
				return d
			}
			// Once without a fault, to learn what the reseal writes.
			count := disk.NewFaultDisk(boot())
			recs, err := Open(count, 0, region).Recover()
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("first recovery: %v", err)
			}
			wantIDs(t, "first recovery", recs, tc.want...)
			total := count.BytesWritten()
			if total < frameLen {
				t.Fatalf("reseal wrote only %d bytes", total)
			}
			for _, mode := range []disk.FaultMode{disk.FaultTorn, disk.FaultOmit} {
				for limit := int64(0); limit <= total; limit += disk.SectorSize / 4 {
					d := boot()
					fd := disk.NewFaultDisk(d)
					fd.Arm(limit, mode)
					Open(fd, 0, region).Recover() // dies somewhere in the reseal
					what := fmt.Sprintf("%v after %d of %d bytes", mode, limit, total)
					recs, err := Open(d, 0, region).Recover()
					if err != nil && !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: second recovery: %v", what, err)
					}
					wantIDs(t, what+", second recovery", recs, tc.want...)
					l3, recs := recoverIDs(t, d, region)
					wantIDs(t, what+", third recovery", recs, tc.want...)
					if start, ok := l3.ReplayStart(7); !ok || (tc.reclaim && start != 1) || (!tc.reclaim && start != 5) {
						t.Fatalf("%s: ReplayStart(7) = %d, %v", what, start, ok)
					}
					commitOne(t, l3, 50, 200)
					_, recs = recoverIDs(t, d, region)
					wantIDs(t, what+", after a commit", recs, append(tc.want, 50)...)
				}
			}
		})
	}
}

// TestResealWithoutRoomLeavesTheLogAlone: when the salvaged records fit
// neither the dead prefix nor the space after the damage, the region is not
// touched — recovering again gives the same verdict — and nothing can be
// appended behind the rot until a Truncate opens a new generation.
func TestResealWithoutRoomLeavesTheLogAlone(t *testing.T) {
	const region = 1 << 12
	l, d := testLog(t, region)
	for id := uint64(1); id <= 5; id++ {
		commitOne(t, l, id, 700)
	}
	img := make([]byte, region)
	d.ReadAt(img, 0)
	img[logHeaderSize+4*700+2*descSize+recHeaderSize+9] ^= 0x04 // in the last frame's data
	d.WriteAt(img, 0)
	for round := 0; round < 2; round++ {
		l = Open(d, 0, region)
		recs, err := l.Recover()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("round %d: %v", round, err)
		}
		wantIDs(t, "recovered", recs, 1, 2, 3, 4)
	}
	after := make([]byte, region)
	d.ReadAt(after, 0)
	if !bytes.Equal(img, after) {
		t.Fatal("a reseal with no room wrote to the region")
	}
	refused := []Record{{ObjectID: 9, Data: []byte("x")}}
	if err := l.Commit(refused); !errors.Is(err, ErrFull) {
		t.Fatalf("commit behind unresealed rot: %v, want ErrFull", err)
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(refused); err != nil {
		t.Fatal(err)
	}
	_, recs := recoverIDs(t, d, region)
	wantIDs(t, "after the truncate", recs, 9)
}
