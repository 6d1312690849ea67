package store

// The bit-rot injection harness: silent single- and multi-bit corruption is
// injected into every on-disk structure (superblock copies, bases, the
// chain's run headers and deltas, object extents, write-ahead log) and the
// tests assert the right rung of the degradation ladder fires — detection
// everywhere, backup superblock fallback, previous-snapshot-plus-retained-log
// fallback with zero committed-sync loss, and per-object quarantine.
//
// Injections use odd bit counts: CRC32C's generator polynomial has a factor
// of x+1, so every odd-weight error burst inside one checksummed span is
// detected with certainty, making these tests deterministic rather than
// probabilistic (RotBits may land two flips on the same bit, but an odd
// multiset always leaves an odd — hence nonzero and detectable — net flip).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/vclock"
	"histar/internal/wal"
)

const rotLogSize = 128 << 10

// rotStore formats a store on a FaultDisk-wrapped 8 MB device.  Small
// segments put the checkpointed objects into the log-structured region, so
// the ladder's object-extent rungs exercise rot inside sealed segments.
func rotStore(t testing.TB) (*Store, *disk.FaultDisk) {
	t.Helper()
	base := disk.New(disk.Params{Sectors: 1 << 14, WriteCache: true}, &vclock.Clock{})
	fd := disk.NewFaultDisk(base)
	s, err := Format(fd, Options{LogSize: rotLogSize, SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return s, fd
}

// rebase runs a checkpoint that writes a base, whatever the chain holds.
func rebase(t testing.TB, s *Store) {
	t.Helper()
	s.base.renew = true
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func rotLabel(cat uint64) label.Label {
	return label.New(label.L1, label.P(label.Category(cat), label.L3))
}

// populateGenerations drives the store through the full lifecycle the
// fallback ladder depends on: a first checkpointed generation, a second
// generation synced then checkpointed (its log frames retained, in the
// previous snapshot's epoch), and a tail of syncs in the current epoch.  Every
// mutation is synced, so recovery on any rung must reproduce the returned
// contents exactly.
func populateGenerations(t *testing.T, s *Store) map[uint64]string {
	return populateGenerationsWith(t, s, nil)
}

// populateGenerationsWith is populateGenerations calling more, when it is not
// nil, at the end of the second generation (before the checkpoint that seals
// it) and of the third, with the contents every acknowledgement promises.
func populateGenerationsWith(t *testing.T, s *Store, more func(gen int, want map[uint64]string)) map[uint64]string {
	t.Helper()
	want := make(map[uint64]string)
	put := func(id uint64, v string) {
		t.Helper()
		if err := s.PutLabeled(id, rotLabel(id%7), []byte(v), 0, whole); err != nil {
			t.Fatal(err)
		}
		if err := s.SyncObject(id); err != nil {
			t.Fatal(err)
		}
		want[id] = v
	}
	for i := uint64(0); i < 10; i++ {
		put(i, fmt.Sprintf("gen0-object-%d", i))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(10); i < 20; i++ {
		put(i, fmt.Sprintf("gen1-object-%d", i))
	}
	put(0, "gen1-overwrite-of-object-0")
	if more != nil {
		more(1, want)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(20); i < 25; i++ {
		put(i, fmt.Sprintf("gen2-object-%d", i))
	}
	if more != nil {
		more(2, want)
	}
	return want
}

// rangeGenerations gives populateGenerationsWith range records on both sides
// of the seal between generations 1 and 2, checking each sync's logged bytes:
// in generation 1 objects 30 and 31 get a whole record and then a range, and
// 30 a last push that no sync logs, which the checkpoint carries home; after
// the seal each one's first sync is whole again and its next a range, and
// object 32 starts out whole.
func rangeGenerations(t *testing.T, s *Store) func(gen int, want map[uint64]string) {
	cur := make(map[uint64][]byte)
	return func(gen int, want map[uint64]string) {
		t.Helper()
		// put pushes b at off into id (all of a new object's 3000 bytes) and,
		// when sync, syncs it and checks it logged all or only b.
		put := func(id uint64, off int, b string, sync, whole bool) {
			t.Helper()
			lo, hi := off, off+len(b)
			if cur[id] == nil {
				cur[id], lo, hi = bytes.Repeat([]byte{byte('a' + id%26)}, 3000), 0, 3000
			}
			copy(cur[id][off:], b)
			if err := s.PutLabeled(id, rotLabel(id%7), cur[id], lo, hi); err != nil {
				t.Fatal(err)
			}
			if !sync {
				return
			}
			logged := s.Stats().BytesLogged
			if err := s.SyncObject(id); err != nil {
				t.Fatal(err)
			}
			want[id] = string(cur[id])
			n := uint64(8 + len(b))
			if whole {
				n = uint64(len(cur[id]))
			}
			if got := s.Stats().BytesLogged - logged; got != n {
				t.Fatalf("generation %d, object %d: the sync logged %d bytes, want %d", gen, id, got, n)
			}
		}
		switch gen {
		case 1:
			put(30, 0, "", true, true)
			put(30, 100, "gen1 range of 30", true, false)
			put(31, 0, "", true, true)
			put(31, 500, "gen1 range of 31", true, false)
			put(30, 1000, "pushed, never logged: the checkpoint carries it home", false, false)
		case 2:
			put(30, 2000, "gen2, after the seal", true, true)
			put(30, 10, "gen2 range of 30", true, false)
			put(31, 600, "gen2, after the seal", true, true)
			put(31, 700, "gen2 range of 31", true, false)
			put(32, 0, "", true, true)
			put(32, 50, "gen2 range of 32", true, false)
		}
	}
}

func checkAll(t *testing.T, s *Store, want map[uint64]string) {
	t.Helper()
	for id, v := range want {
		got, err := s.Get(id)
		if err != nil || string(got) != v {
			t.Fatalf("object %d = %q, %v; want %q", id, got, err, v)
		}
	}
}

// readRecord reads and decodes the chain record, a base or a delta, at
// extent at, failing the test unless its CRC holds and it decodes.
func readRecord(t *testing.T, d disk.Device, at extent) record {
	t.Helper()
	b := make([]byte, at.size)
	if _, err := d.ReadAt(b, at.off); err != nil {
		t.Fatal(err)
	}
	if _, ok := recordSum(b); !ok {
		t.Fatalf("the record at %d fails its checksum", at.off)
	}
	r, err := decodeRecord(b, at.off)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// recordHeaderSize is the record's fixed fields: epoch, chain id, next run
// header's sector.
const recordHeaderSize = 24

// TestBitRotEveryCoveredFlipDetected is acceptance criterion (a): a single
// silent bit flip anywhere in the superblock copies or the current base is
// always detected — the reopen either degrades (and still
// serves every committed object correctly) or counts the corruption; it
// never serves wrong data silently.
func TestBitRotEveryCoveredFlipDetected(t *testing.T) {
	type target struct {
		name   string
		region func(s *Store, fd *disk.FaultDisk) disk.Region
	}
	targets := []target{
		{"superblock-primary", func(*Store, *disk.FaultDisk) disk.Region {
			return disk.Region{Off: superblockOffset, Len: sbCopySize}
		}},
		{"superblock-backup", func(*Store, *disk.FaultDisk) disk.Region {
			return disk.Region{Off: superblockOffset + sbBackupOff, Len: sbCopySize}
		}},
		{"meta-header", func(s *Store, _ *disk.FaultDisk) disk.Region {
			return disk.Region{Off: s.base.ext.off, Len: recordHeaderSize}
		}},
		{"meta-payload", func(s *Store, _ *disk.FaultDisk) disk.Region {
			return disk.Region{Off: s.base.ext.off + recordHeaderSize, Len: s.base.ext.size - recordHeaderSize}
		}},
	}
	for _, tgt := range targets {
		tgt := tgt
		t.Run(tgt.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				s, fd := rotStore(t)
				want := populateGenerations(t, s)
				if err := fd.RotBits(tgt.region(s, fd), 1, seed); err != nil {
					t.Fatal(err)
				}
				s2, err := Open(fd, Options{})
				if err != nil {
					t.Fatalf("seed %d: single flip in %s must stay mountable: %v", seed, tgt.name, err)
				}
				if rep := s2.RecoveryReport(); s2.Stats().CorruptionsDetected == 0 && !rep.Degraded() {
					t.Fatalf("seed %d: flip in %s went undetected: %+v", seed, tgt.name, rep)
				}
				checkAll(t, s2, want)
			}
		})
	}
}

func TestBitRotSuperblockPrimaryFallsBackToBackup(t *testing.T) {
	s, fd := rotStore(t)
	want := populateGenerations(t, s)
	if err := fd.RotBits(disk.Region{Off: superblockOffset, Len: sbCopySize}, 5, 42); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := s2.RecoveryReport()
	if !rep.SuperblockFallback {
		t.Fatalf("expected superblock fallback, got %+v", rep)
	}
	if rep.MetaFallback {
		t.Fatalf("metadata should not have needed fallback: %+v", rep)
	}
	checkAll(t, s2, want)
}

func TestBitRotBothSuperblockCopiesRefused(t *testing.T) {
	s, fd := rotStore(t)
	populateGenerations(t, s)
	_ = s
	if err := fd.RotBits(disk.Region{Off: superblockOffset, Len: sbCopySize}, 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := fd.RotBits(disk.Region{Off: superblockOffset + sbBackupOff, Len: sbCopySize}, 5, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fd, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with both superblock copies rotted = %v; want ErrCorrupt", err)
	}
}

// TestBitRotMetaFallbackZeroCommittedSyncLoss is acceptance criterion (b):
// when the current base rots at its extent, Open falls back to the previous
// base the superblock names and follows its chain, which runs on into the
// current base's, to the same snapshot, then replays the log forward — every
// synced mutation from both generations survives, range records included
// (rangeGenerations), on both sides of the seal.
func TestBitRotMetaFallbackZeroCommittedSyncLoss(t *testing.T) {
	s, fd := rotStore(t)
	ranges := rangeGenerations(t, s)
	want := populateGenerationsWith(t, s, func(gen int, want map[uint64]string) {
		ranges(gen, want)
		s.base.renew = true // the checkpoint sealing generation 1 writes a base
	})
	epoch := s.metaEpoch
	if len(s.chain) != 1 || s.base.epoch != epoch {
		t.Fatalf("the last checkpoint wrote no base (%d deltas since): the fallback would not need the older chain", len(s.chain)-1)
	}
	if err := fd.RotBits(disk.Region{Off: s.base.ext.off, Len: s.base.ext.size}, 3, 7); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := s2.RecoveryReport()
	if !rep.MetaFallback {
		t.Fatalf("expected metadata fallback, got %+v", rep)
	}
	if rep.MetaEpoch != epoch {
		t.Fatalf("fallback epoch = %d, want %d", rep.MetaEpoch, epoch)
	}
	// The current generation (5 + 6 records).
	if rep.WALRecordsReplayed != 11 {
		t.Fatalf("replayed %d records, want 11", rep.WALRecordsReplayed)
	}
	checkAll(t, s2, want)
	// The mount pins the base it loaded and nothing before it: a scrub
	// checks that one base, and it is whole.
	if st, err := s2.Scrub(); err != nil || st.BasesChecked != 1 || st.BasesOK != 1 {
		t.Fatalf("scrub of the fallback mount: %+v, %v; want 1 base checked and whole", st, err)
	}
	// The degraded mount must heal itself: the next checkpoint writes a base
	// and flips both superblock copies, and a further reopen is clean.
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s3.RecoveryReport().Degraded() {
		t.Fatalf("reopen after healing checkpoint still degraded: %+v", s3.RecoveryReport())
	}
	checkAll(t, s3, want)
}

// TestBitRotBothBasesRefused: with the current base and the previous one
// both rotted at the extents the superblock names, no intact copy remains,
// and Open refuses.
func TestBitRotBothBasesRefused(t *testing.T) {
	s, fd := rotStore(t)
	populateGenerations(t, s)
	for i, at := range []extent{s.base.ext, s.prevBase} {
		if err := fd.RotBits(disk.Region{Off: at.off, Len: at.size}, 3, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(fd, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with both bases rotted = %v; want ErrCorrupt", err)
	}
}

// TestSuperblockBaseExtentsChecked: the primary superblock copy, its
// checksum re-sealed, names a base extent no base could have: in the log,
// off a sector boundary, empty, or past the device.  The first three are
// refused with the copy, and the backup carries the mount; a base past the
// device is refused when Open reads it, and the previous base carries it.
// Either way every synced object comes back.
func TestSuperblockBaseExtentsChecked(t *testing.T) {
	cases := []struct {
		name   string
		field  int
		value  func(s *Store) uint64
		sbRung bool // SuperblockFallback, else MetaFallback
	}{
		{"base-in-the-log", sbBaseOff, func(*Store) uint64 { return logOffset }, true},
		{"base-off-a-sector", sbBaseOff, func(s *Store) uint64 { return uint64(s.base.ext.off + 8) }, true},
		{"base-empty", sbBaseOff + 8, func(*Store) uint64 { return 0 }, true},
		{"previous-in-the-log", sbPrevOff, func(*Store) uint64 { return logOffset }, true},
		{"base-past-the-device", sbBaseOff, func(s *Store) uint64 { return uint64(s.d.Size()) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, fd := rotStore(t)
			want := populateGenerations(t, s)
			b := make([]byte, sbCopySize)
			if _, err := fd.ReadAt(b, superblockOffset); err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(b[tc.field:], tc.value(s))
			binary.LittleEndian.PutUint32(b[sbCRCOff:], crc32c(b[:sbCRCOff]))
			if _, err := fd.WriteAt(b, superblockOffset); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(fd, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep := s2.RecoveryReport(); rep.SuperblockFallback != tc.sbRung || rep.MetaFallback == tc.sbRung {
				t.Fatalf("%+v; want SuperblockFallback %v, MetaFallback %v", rep, tc.sbRung, !tc.sbRung)
			}
			checkAll(t, s2, want)
		})
	}
}

// lockedHome reads id's home record under mu.
func lockedHome(s *Store, id uint64) (home, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.homeOf(id)
}

// TestBitRotDataExtentQuarantinesOnlyThatObject is acceptance criterion
// (d): rot in one object's home extent quarantines exactly that object with
// a typed error while every other object keeps serving.
func TestBitRotDataExtentQuarantinesOnlyThatObject(t *testing.T) {
	s, fd := rotStore(t)
	want := populateGenerations(t, s)
	if err := s.Checkpoint(); err != nil { // drain the log: cold reads come from extents
		t.Fatal(err)
	}
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const victim = uint64(13)
	h, ok := lockedHome(s2, victim)
	if !ok {
		t.Fatal("victim has no home extent")
	}
	if err := fd.RotBits(disk.Region{Off: h.off, Len: h.size}, 1, 5); err != nil {
		t.Fatal(err)
	}
	_, gerr := s2.Get(victim)
	if !errors.Is(gerr, ErrQuarantined) || !errors.Is(gerr, ErrCorrupt) {
		t.Fatalf("Get(victim) = %v; want ErrQuarantined matching ErrCorrupt", gerr)
	}
	var qe *QuarantineError
	if !errors.As(gerr, &qe) || qe.ID != victim {
		t.Fatalf("quarantine error does not identify the victim: %v", gerr)
	}
	// A repeated access answers from the quarantine verdict, still typed.
	if _, err := s2.Get(victim); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("second Get(victim) = %v", err)
	}
	for id, v := range want {
		if id == victim {
			continue
		}
		got, err := s2.Get(id)
		if err != nil || string(got) != v {
			t.Fatalf("bystander object %d = %q, %v; want %q", id, got, err, v)
		}
	}
	if q := s2.QuarantinedObjects(); len(q) != 1 || q[0] != victim {
		t.Fatalf("QuarantinedObjects = %v; want [%d]", q, victim)
	}
	if st := s2.Stats(); st.QuarantineEvents != 1 || st.CorruptionsDetected == 0 {
		t.Fatalf("integrity counters: %d quarantine events, %d corruptions", st.QuarantineEvents, st.CorruptionsDetected)
	}
	// Syncing the quarantined object must refuse rather than persist
	// unverifiable bytes.
	if err := s2.SyncObject(victim); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("SyncObject(victim) = %v; want ErrQuarantined", err)
	}
	if errs := s2.SyncObjects([]uint64{victim}); !errors.Is(errs[0], ErrQuarantined) {
		t.Fatalf("SyncObjects([victim]) = %v; want ErrQuarantined like SyncObject", errs[0])
	}
	// A rewrite replaces the damaged contents and lifts the quarantine.
	if err := s2.Put(victim, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(victim); err != nil || string(got) != "rewritten" {
		t.Fatalf("Get after rewrite = %q, %v", got, err)
	}
	if q := s2.QuarantinedObjects(); len(q) != 0 {
		t.Fatalf("quarantine not lifted by rewrite: %v", q)
	}
}

// TestBitRotWALTailReplaysValidPrefix: rot in the last committed log record
// is detected, the valid prefix replays, and the mount reports the damage.
func TestBitRotWALTailReplaysValidPrefix(t *testing.T) {
	s, fd := rotStore(t)
	for i := uint64(1); i <= 3; i++ {
		if err := s.Put(i, []byte(fmt.Sprintf("walled-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := s.SyncObject(i); err != nil {
			t.Fatal(err)
		}
	}
	// The log records no committed length: the tail is where the log's own
	// walk ends.  Its last 40 bytes are the third frame's trailing
	// descriptor; damage the end of the record under it.
	live := s.l.LiveBytes()
	if live < 3*(120+19) {
		t.Fatalf("log holds %d bytes, expected three frames", live)
	}
	tail := disk.Region{Off: logOffset + 32 + live - 40 - 16, Len: 16}
	if err := fd.RotBits(tail, 1, 11); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := s2.RecoveryReport()
	if !rep.WALDamaged {
		t.Fatalf("expected WAL damage report, got %+v", rep)
	}
	// The first two records precede the damage and must have replayed.
	for i := uint64(1); i <= 2; i++ {
		got, err := s2.Get(i)
		if err != nil || string(got) != fmt.Sprintf("walled-%d", i) {
			t.Fatalf("object %d from valid prefix = %q, %v", i, got, err)
		}
	}
	if _, err := s2.Get(3); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("object in damaged suffix: %v (want ErrNoSuchObject)", err)
	}
	if s2.Stats().CorruptionsDetected == 0 {
		t.Fatal("WAL damage not counted")
	}
}

func TestScrubCleanStoreFindsNothing(t *testing.T) {
	s, _ := rotStore(t)
	want := populateGenerations(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.CorruptionsFound != 0 || st.ObjectsQuarantined != 0 {
		t.Fatalf("clean scrub found damage: %+v", st)
	}
	if st.SuperblockCopiesOK != 2 {
		t.Fatalf("superblock copies OK = %d, want 2", st.SuperblockCopiesOK)
	}
	if st.BasesChecked != 2 || st.BasesOK != 2 {
		t.Fatalf("bases checked/OK = %d/%d, want 2/2", st.BasesChecked, st.BasesOK)
	}
	if st.ObjectsChecked != len(want) {
		t.Fatalf("objects checked = %d, want %d", st.ObjectsChecked, len(want))
	}
	if st.BytesVerified == 0 {
		t.Fatal("scrub verified zero bytes")
	}
	if n := s.Stats().CorruptionsDetected; n != 0 {
		t.Fatalf("a clean scrub counted %d corruptions", n)
	}
}

// TestScrubDetectsRotAndQuarantines: a scrub pass finds silently rotted
// extents before any access does, and quarantines them.
func TestScrubDetectsRotAndQuarantines(t *testing.T) {
	s, fd := rotStore(t)
	want := populateGenerations(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const victim = uint64(4)
	h, _ := lockedHome(s2, victim)
	if err := fd.RotBits(disk.Region{Off: h.off, Len: h.size}, 1, 3); err != nil {
		t.Fatal(err)
	}
	st, err := s2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.ObjectsQuarantined != 1 || st.CorruptionsFound != 1 {
		t.Fatalf("scrub after rot: %+v", st)
	}
	if q := s2.QuarantinedObjects(); len(q) != 1 || q[0] != victim {
		t.Fatalf("QuarantinedObjects = %v", q)
	}
	if _, err := s2.Get(victim); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Get(victim) after scrub = %v", err)
	}
	// A second pass finds the same damage but quarantines nothing new.
	st2, err := s2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st2.ObjectsQuarantined != 0 || st2.CorruptionsFound != 1 {
		t.Fatalf("second scrub: %+v", st2)
	}
	for id, v := range want {
		if id == victim {
			continue
		}
		if got, err := s2.Get(id); err != nil || string(got) != v {
			t.Fatalf("bystander %d = %q, %v", id, got, err)
		}
	}
	// Rot in the chain's last delta: the scrub that walks it counts it.
	if err := s2.Put(999, []byte("a delta to rot")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(s2.chain) < 2 {
		t.Fatal("no delta since the base for the scrub to find rotted")
	}
	if err := fd.RotBits(deltaRegion(s2, len(s2.chain)-1), 1, 9); err != nil {
		t.Fatal(err)
	}
	detected := s2.Stats().CorruptionsDetected
	st3, err := s2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st3.CorruptionsFound != 2 || s2.Stats().CorruptionsDetected != detected+2 {
		t.Fatalf("scrub after rot in the delta: %+v, %d corruptions counted (%d before)", st3, s2.Stats().CorruptionsDetected, detected)
	}
}

// homeRegion is the device region of object id's home.
func homeRegion(s *Store, id uint64) disk.Region {
	h, _ := s.homeOf(id)
	return disk.Region{Off: h.off, Len: h.size}
}

// deltaRegion and runHeaderRegion are the device regions of the chain's k-th
// delta (from 1) and of the run header before it; the caller holds no lock.
func deltaRegion(s *Store, k int) disk.Region {
	return disk.Region{Off: s.chain[k].off, Len: s.chain[k].size - runHeaderSize}
}

func runHeaderRegion(s *Store, k int) disk.Region {
	prev := s.chain[k-1]
	return disk.Region{Off: prev.off + prev.size - runHeaderSize, Len: rhCRCOff}
}

// chainStore builds a store whose snapshot is a base and a chain of three
// deltas, every mutation synced, with a sync after the last delta.  The last
// delta also homes object 3999, over half a segment, in a segment of its own
// above the delta, which its commit flushes first.  It returns the contents
// the syncs acknowledged and each delta's epoch.
func chainStore(t testing.TB) (*Store, *disk.FaultDisk, map[uint64]string, []uint64) {
	s, fd := rotStore(t)
	want := make(map[uint64]string)
	put := func(id uint64, v string) {
		t.Helper()
		if err := s.PutLabeled(id, rotLabel(id%7), []byte(v), 0, whole); err != nil {
			t.Fatal(err)
		}
		if err := s.SyncObject(id); err != nil {
			t.Fatal(err)
		}
		want[id] = v
	}
	for id := uint64(0); id < 300; id++ {
		put(id, fmt.Sprintf("base-object-%d", id))
	}
	rebase(t, s)
	epochs := []uint64{s.metaEpoch}
	for g := uint64(1); g <= 3; g++ {
		for i := uint64(0); i < 4; i++ {
			put(1000*g+i, fmt.Sprintf("delta-%d-object-%d", g, i))
		}
		put(g, fmt.Sprintf("object %d overwritten in delta %d", g, g))
		if g == 3 {
			put(3999, strings.Repeat("homed above the last delta ", 2<<10))
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, s.metaEpoch)
	}
	if h, _ := s.homeOf(3999); h.off < s.chain[3].off {
		t.Fatalf("object 3999 homed at %d, below the last delta at %d", h.off, s.chain[3].off)
	}
	put(5000, "synced after the last delta")
	if len(s.chain) != 4 {
		t.Fatalf("%d deltas since the base, want 3", len(s.chain)-1)
	}
	return s, fd, want, epochs
}

// TestBitRotChain rots one record of a three-delta chain.  Rot in the last
// delta is what a crash tearing it leaves: the chain ends a delta early and
// the log replays from there, losing no committed sync.  Rot in a home the
// last delta installs, above it or below, keeps the delta: a whole delta
// implies its data, so the rot is the home's, and a read of that object
// finds it.  Rot in the last run header
// loses none either, and the mount names it, as it does rot in a mid-chain
// run header, or in a mid-chain delta whose next run header still verifies:
// the chain is cut there, never silently.  Rot in the base, at its extent in
// the data region, sends the mount to the previous base, whose chain runs on
// into this one's, to the same epoch; with both bases rotted, Open refuses.
func TestBitRotChain(t *testing.T) {
	cases := []struct {
		name   string
		region func(*Store) disk.Region
		links  int  // the deltas the mount keeps
		named  bool // RecoveryReport.ChainTruncated
		whole  bool // every acknowledged sync comes back
	}{
		{"last-delta", func(s *Store) disk.Region { return deltaRegion(s, 3) }, 2, false, true},
		{"last-data", func(s *Store) disk.Region { return homeRegion(s, 3002) }, 3, false, false},
		{"last-data-above", func(s *Store) disk.Region { return homeRegion(s, 3999) }, 3, false, false},
		{"last-run-header", func(s *Store) disk.Region { return runHeaderRegion(s, 3) }, 2, true, true},
		{"mid-delta", func(s *Store) disk.Region { return deltaRegion(s, 2) }, 1, true, false},
		{"mid-run-header", func(s *Store) disk.Region { return runHeaderRegion(s, 2) }, 1, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				s, fd, want, epochs := chainStore(t)
				if err := fd.RotBits(tc.region(s), 3, seed); err != nil {
					t.Fatal(err)
				}
				s2, err := Open(fd, Options{})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				rep := s2.RecoveryReport()
				if len(s2.chain)-1 != tc.links || rep.MetaEpoch != epochs[tc.links] || rep.ChainTruncated != tc.named {
					t.Fatalf("seed %d: %d deltas kept, %+v; want %d, epoch %d, ChainTruncated %v", seed, len(s2.chain)-1, rep, tc.links, epochs[tc.links], tc.named)
				}
				if tc.named && s2.Stats().CorruptionsDetected == 0 {
					t.Fatalf("seed %d: the cut chain counted no corruption", seed)
				}
				if tc.whole {
					checkAll(t, s2, want)
				}
				// The mount heals: a checkpoint, and the store reopens clean.
				if err := s2.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				s3, err := Open(fd, Options{})
				if err != nil || s3.RecoveryReport().Degraded() {
					t.Fatalf("seed %d: reopen after a checkpoint: %v, %+v", seed, err, s3.RecoveryReport())
				}
			}
		})
	}
	t.Run("base", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			s, fd, want, epochs := chainStore(t)
			if err := fd.RotBits(disk.Region{Off: s.base.ext.off, Len: s.base.ext.size}, 3, seed); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(fd, Options{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if rep := s2.RecoveryReport(); !rep.MetaFallback || rep.ChainTruncated || rep.MetaEpoch != epochs[3] {
				t.Fatalf("seed %d: %+v; want MetaFallback at epoch %d", seed, rep, epochs[3])
			}
			checkAll(t, s2, want)
			if err := fd.RotBits(disk.Region{Off: s.prevBase.off, Len: s.prevBase.size}, 3, seed); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(fd, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("seed %d: open with both bases rotted = %v; want ErrCorrupt", seed, err)
			}
		}
	})
}

// TestRecordsRefuseRowsOfTheOtherKind: a base and a delta are one record
// format, and each kind refuses what only the other may hold, every checksum
// intact.  A base is applied to empty tables, so a row of it that leaves — a
// home at offset 0, a segment of size 0 — is corruption, and Open falls back
// to the previous base, whose chain runs on to the same epoch.  A delta
// pins nothing, so one that does ends the chain at the link before, and the
// log replays from there.  Either way every acknowledged sync comes back.
func TestRecordsRefuseRowsOfTheOtherKind(t *testing.T) {
	// rewrite re-encodes the record at extent at, changed, in place, and
	// returns its new CRC.
	rewrite := func(t *testing.T, fd *disk.FaultDisk, at extent, change func(*record)) uint32 {
		t.Helper()
		r := readRecord(t, fd, at)
		change(&r)
		b := appendRecord(nil, &r, at.size)
		if _, err := fd.WriteAt(b, at.off); err != nil {
			t.Fatal(err)
		}
		sum, _ := recordSum(b)
		return sum
	}
	for _, tc := range []struct {
		name   string
		change func(*record)
	}{
		{"base-home-leaves", func(r *record) { r.homes[len(r.homes)/2].off = 0 }},
		{"base-segment-leaves", func(r *record) { *r.segs[len(r.segs)-1] = segment{base: r.segs[len(r.segs)-1].base} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, fd, want, epochs := chainStore(t)
			rewrite(t, fd, s.base.ext, tc.change)
			if _, err := s.readBase(s.base.ext); err != nil {
				t.Fatalf("the changed base does not verify and decode: %v", err)
			}
			s2, err := Open(fd, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep := s2.RecoveryReport(); !rep.MetaFallback || rep.ChainTruncated || rep.MetaEpoch != epochs[3] || s2.Stats().CorruptionsDetected == 0 {
				t.Fatalf("%+v, %d corruptions; want MetaFallback at epoch %d, counted", rep, s2.Stats().CorruptionsDetected, epochs[3])
			}
			checkAll(t, s2, want)
		})
	}
	t.Run("delta-pins", func(t *testing.T) {
		s, fd, want, epochs := chainStore(t)
		reg := deltaRegion(s, 3)
		sum := rewrite(t, fd, extent{reg.Off, reg.Len}, func(r *record) { r.pins = []extent{s.prevBase} })
		// The run header before it vouches for the new bytes.
		rhAt := runHeaderRegion(s, 3).Off
		b := make([]byte, runHeaderSize)
		if _, err := fd.ReadAt(b, rhAt); err != nil {
			t.Fatal(err)
		}
		rh, _, _ := parseRunHeader(b, 0, 0)
		rh.sum = sum
		if _, err := fd.WriteAt(encodeRunHeader(rh), rhAt); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(fd, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep := s2.RecoveryReport(); !rep.ChainTruncated || rep.MetaFallback || len(s2.chain)-1 != 2 || rep.MetaEpoch != epochs[2] {
			t.Fatalf("%+v, %d deltas kept; want the chain cut before the third, at epoch %d", rep, len(s2.chain)-1, epochs[2])
		}
		checkAll(t, s2, want)
	})
}

// TestBitRotLastLinkWithTheLogHalfFull: the syncs before a checkpoint left
// the log over half full, and the checkpoint's FINISH keeps their frames all
// the same.  Rot in a home the last link installs, below its delta or above
// it, costs that object alone, quarantined and counted: the remount comes
// back at the checkpoint's epoch with every other acknowledged sync.  Rot in
// the last delta ends the chain at the link before, and the kept frames
// bring every acknowledged sync back; object 3999, which the checkpoint
// held and no sync did, goes with the link, as with a tear.
func TestBitRotLastLinkWithTheLogHalfFull(t *testing.T) {
	for _, rot := range []string{"home-below", "home-above", "delta"} {
		t.Run(rot, func(t *testing.T) {
			s, fd := rotStore(t)
			want := map[uint64]string{}
			put := func(id uint64, v string) {
				t.Helper()
				if err := s.PutLabeled(id, rotLabel(id%7), []byte(v), 0, whole); err != nil {
					t.Fatal(err)
				}
				if err := s.SyncObject(id); err != nil {
					t.Fatal(err)
				}
				want[id] = v
			}
			for id := uint64(0); id < 20; id++ {
				put(id, fmt.Sprintf("base-object-%d", id))
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			before := s.metaEpoch
			for id := uint64(100); id < 180; id++ {
				put(id, fmt.Sprintf("%01000d", id))
			}
			big := strings.Repeat("homed above the last delta ", 2<<10)
			if err := s.Put(3999, []byte(big)); err != nil { // checkpointed, not synced
				t.Fatal(err)
			}
			if s.l.LiveBytes() <= s.logSize/2 {
				t.Fatalf("the syncs left %d of %d log bytes live: the test needs the log over half full", s.l.LiveBytes(), s.logSize)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			last := s.chain[len(s.chain)-1]
			if h, _ := s.homeOf(150); h.off > last.off {
				t.Fatalf("object 150 homed at %d, above the last delta", h.off)
			}
			if h, _ := s.homeOf(3999); h.off < last.off {
				t.Fatalf("object 3999 homed at %d, below the last delta", h.off)
			}
			if len(s.chain) != 3 {
				t.Fatalf("%d deltas since the base; want 2", len(s.chain)-1)
			}
			want[3999] = big
			region, lost, epoch := homeRegion(s, 150), uint64(150), s.metaEpoch
			switch rot {
			case "home-above":
				region, lost = homeRegion(s, 3999), 3999
			case "delta":
				region, lost, epoch = deltaRegion(s, 2), 0, before
				delete(want, 3999) // the checkpoint held it, and no sync
			}
			if err := fd.RotBits(region, 3, 1); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(fd, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep := s2.RecoveryReport(); rep.MetaEpoch != epoch || rep.Degraded() {
				t.Fatalf("the remount came back %+v; want epoch %d, not degraded", rep, epoch)
			}
			if lost != 0 {
				if _, err := s2.Get(lost); !errors.Is(err, ErrQuarantined) {
					t.Fatalf("the rotted object reads %v; want ErrQuarantined", err)
				}
				if s2.Stats().CorruptionsDetected == 0 {
					t.Fatal("the rot counted no corruption")
				}
				delete(want, lost)
			}
			checkAll(t, s2, want)
		})
	}
}

// restampSuperblockCopy rewrites the version field of the superblock copy at
// off and re-seals its CRC, the way code speaking that version would have
// written it.  zeroTail instead zeroes everything from the version field on
// (version, epoch, CRC): the shape of a copy from before copies were
// checksummed.
func restampSuperblockCopy(t *testing.T, d disk.Device, off int64, version uint64, zeroTail bool) {
	t.Helper()
	b := make([]byte, sbCopySize)
	if _, err := d.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(b[sbVersionOff:], version)
	binary.LittleEndian.PutUint32(b[sbCRCOff:], crc32c(b[:sbCRCOff]))
	if zeroTail {
		for i := sbVersionOff; i < sbCopySize; i++ {
			b[i] = 0
		}
	}
	if _, err := d.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// legacyLabelDigest is the key the v≤4 fingerprint index sorted on: FNV-1a
// over the default level, then each explicit pair's category (8 bytes,
// little-endian) and level.
func legacyLabelDigest(lbl label.Label) uint64 {
	h := fnv.New64a()
	buf := []byte{byte(lbl.Default())}
	for _, p := range lbl.Pairs() {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Category))
		buf = append(buf, byte(p.Level))
	}
	h.Write(buf)
	return h.Sum64()
}

// restampBase rewrites the base at extent at as a well-formed base of an
// older version, the way code speaking that version would have written it,
// over the start of the extent: a 64-byte header — magic "HMET", version,
// epoch, payload length, section count, chain id, the sector of the chain's
// first run header, a CRC32C over the first 56 bytes — then the sections tags
// names, each [tag][length][CRC32C][payload], every CRC valid.  Versions up
// to 9 kept the labels apart from the object map, whose records ended at the
// CRC field: section 3 held (id, label) pairs, ascending by id, built here
// from the labels the base's own rows carry.  Versions up to 4 persisted the
// label fingerprint index as section 4 — (fingerprint, id) pairs in
// ascending order; versions 3 to 5 a table of snapshot pins as section 6,
// and versions up to 6 the free-extent list as section 2, both empty here.
// Versions 7 and 8 wrote sections 1, 3 and 5, but version 7's object map
// could name one extent twice (a clone alias); version 9 wrote sections 1 and
// 5, a whole image at every checkpoint, with no chain.  Version 10, the last
// before a base became a record like a delta, wrote the rows as this one
// does, each home with its label, in sections 1 and 5, and the pins in 7.
func restampBase(t *testing.T, d disk.Device, at extent, version uint64, tags ...uint64) {
	t.Helper()
	base := readRecord(t, d, at)
	objs, labels, labeled := appendU64(nil, uint64(len(base.homes))), []byte(nil), uint64(0)
	var pairs [][2]uint64
	for _, h := range base.homes {
		if version >= 10 {
			objs = appendHome(objs, h.id, h.home, h.lbl)
			continue
		}
		objs = appendU64(appendU64(appendU64(appendU64(objs, h.id), uint64(h.off)), uint64(h.size)), objCRCValid|uint64(h.crc))
		if h.lbl != nil {
			lbl, _, err := label.DecodeBinary(h.lbl)
			if err != nil {
				t.Fatal(err)
			}
			labels, labeled = append(appendU64(labels, h.id), h.lbl...), labeled+1
			pairs = append(pairs, [2]uint64{legacyLabelDigest(lbl), h.id})
		}
	}
	labels = append(appendU64(nil, labeled), labels...)
	sort.Slice(pairs, func(i, j int) bool {
		return pairs[i][0] < pairs[j][0] || pairs[i][0] == pairs[j][0] && pairs[i][1] < pairs[j][1]
	})
	index := appendU64(nil, uint64(len(pairs)))
	for _, p := range pairs {
		index = appendU64(appendU64(index, p[0]), p[1])
	}
	segs := appendU64(nil, uint64(len(base.segs)))
	for _, seg := range base.segs {
		segs = appendSeg(segs, seg)
	}
	pins := appendU64(nil, uint64(len(base.pins)))
	for _, e := range base.pins {
		pins = appendU64(appendU64(pins, uint64(e.off)), uint64(e.size))
	}
	var payload []byte
	for _, tag := range tags {
		body := map[uint64][]byte{1: objs, 2: appendU64(nil, 0), 3: labels, 4: index, 5: segs, 6: appendU64(nil, 0), 7: pins}[tag]
		payload = append(appendU64(appendU64(appendU64(payload, tag), uint64(len(body))), uint64(crc32c(body))), body...)
	}
	const legacyMagic = 0x484d4554 // "HMET"
	img := appendU64(appendU64(appendU64(nil, legacyMagic), version), base.epoch)
	img = appendU64(appendU64(appendU64(appendU64(img, uint64(len(payload))), uint64(len(tags))), base.chain), uint64(base.next))
	img = append(appendU64(img, uint64(crc32c(img))), payload...)
	if int64(len(img)) > at.size {
		t.Fatalf("a version %d base takes %d bytes, more than the %d of the extent", version, len(img), at.size)
	}
	if _, err := d.WriteAt(img, at.off); err != nil {
		t.Fatal(err)
	}
}

// TestOtherFormatVersionsRefusedNotLoaded: this code reads exactly one
// version of each structure.  A superblock copy stamped with any other
// version, or a base written as an older version wrote it, each intact in
// its own layout's checksums, is refused as corruption and handled by the
// ordinary ladder; nothing is ever loaded unverified.
func TestOtherFormatVersionsRefusedNotLoaded(t *testing.T) {
	superblocks := []struct {
		name     string
		version  uint64
		zeroTail bool
	}{
		{"v0", 0, false}, {"v1", 1, false}, {"v2", 2, false}, {"v3", 3, false}, {"v4", 4, false},
		{"v0-unchecksummed", 0, true},
	}
	for _, tc := range superblocks {
		t.Run("superblock-"+tc.name, func(t *testing.T) {
			s, fd := rotStore(t)
			want := populateGenerations(t, s)
			// One copy so stamped: the other carries the mount.
			restampSuperblockCopy(t, fd, superblockOffset, tc.version, tc.zeroTail)
			s2, err := Open(fd, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !s2.RecoveryReport().SuperblockFallback {
				t.Fatalf("expected superblock fallback, got %+v", s2.RecoveryReport())
			}
			checkAll(t, s2, want)
			// Both so stamped: refused.
			restampSuperblockCopy(t, fd, superblockOffset+sbBackupOff, tc.version, tc.zeroTail)
			if _, err := Open(fd, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open with both superblock copies stamped %s = %v; want ErrCorrupt", tc.name, err)
			}
		})
	}
	metas := []struct {
		name    string
		version uint64
		tags    []uint64
	}{
		{"v2", 2, []uint64{1, 2, 3, 4}}, {"v3", 3, []uint64{1, 2, 3, 4, 5}},
		{"v4", 4, []uint64{1, 2, 3, 4, 5, 6}}, {"v5", 5, []uint64{1, 2, 3, 5, 6}},
		{"v6", 6, []uint64{1, 2, 3, 5}}, {"v7", 7, []uint64{1, 3, 5}},
		{"v8", 8, []uint64{1, 3, 5}}, {"v9", 9, []uint64{1, 5}},
		{"v10", 10, []uint64{1, 5, 7}},
	}
	for _, tc := range metas {
		t.Run("metadata-"+tc.name, func(t *testing.T) {
			s, fd := rotStore(t)
			want := populateGenerations(t, s)
			restampBase(t, fd, s.base.ext, tc.version, tc.tags...)
			s2, err := Open(fd, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !s2.RecoveryReport().MetaFallback {
				t.Fatalf("expected metadata fallback, got %+v", s2.RecoveryReport())
			}
			checkAll(t, s2, want)
			restampBase(t, fd, s.prevBase, tc.version, tc.tags...)
			if _, err := Open(fd, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open with both bases stamped %s = %v; want ErrCorrupt", tc.name, err)
			}
		})
	}
	// The log has one version too, but no second copy to fall back on: an
	// intact header stamped with a retired format refuses the mount, and the
	// refusal leaves the region as it found it.  Version 8 is the one that
	// could hold clone-alias records, and 9 the last whose header held a
	// start offset.
	for _, v := range []byte{4, 5, 6, 8, 9} {
		t.Run(fmt.Sprintf("wal-v%d", v), func(t *testing.T) {
			s, fd := rotStore(t)
			populateGenerations(t, s)
			hdr := make([]byte, 32)
			if _, err := fd.ReadAt(hdr, logOffset); err != nil {
				t.Fatal(err)
			}
			hdr[4] = v
			binary.LittleEndian.PutUint32(hdr[16:], crc32c(hdr[:16]))
			if _, err := fd.WriteAt(hdr, logOffset); err != nil {
				t.Fatal(err)
			}
			region := func() []byte {
				b := make([]byte, rotLogSize)
				if _, err := fd.ReadAt(b, logOffset); err != nil {
					t.Fatal(err)
				}
				return b
			}
			before := region()
			if _, err := Open(fd, Options{}); !errors.Is(err, wal.ErrVersion) {
				t.Fatalf("open with the log stamped v%d = %v; want wal.ErrVersion", v, err)
			}
			if !bytes.Equal(before, region()) {
				t.Fatalf("refusing a v%d log modified the log region", v)
			}
		})
	}
	// A home row whose CRC field lacks the valid bit, in a base whose own
	// checksum is intact, would have to be read unverified: the base is
	// refused instead.
	t.Run("objmap-entry-without-crc", func(t *testing.T) {
		s, fd := rotStore(t)
		want := populateGenerations(t, s)
		rebase(t, s)
		b := make([]byte, s.base.ext.size)
		if _, err := fd.ReadAt(b, s.base.ext.off); err != nil {
			t.Fatal(err)
		}
		// The fixed fields and the home count, then (id, off, size,
		// crcField) quads: clear the first row's CRC field and re-seal the
		// record's checksum.
		binary.LittleEndian.PutUint64(b[recordHeaderSize+8+24:], 0)
		binary.LittleEndian.PutUint64(b[len(b)-8:], uint64(crc32c(b[:len(b)-8])))
		if _, err := fd.WriteAt(b, s.base.ext.off); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(fd, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !s2.RecoveryReport().MetaFallback {
			t.Fatalf("expected metadata fallback, got %+v", s2.RecoveryReport())
		}
		checkAll(t, s2, want)
	})
}
