package store

// The bit-rot injection harness: silent single- and multi-bit corruption is
// injected into every on-disk structure (superblock copies, metadata header
// and sections, object extents, write-ahead log) and the tests assert the
// right rung of the degradation ladder fires — detection everywhere, backup
// superblock fallback, previous-snapshot-plus-retained-log fallback with
// zero committed-sync loss, and per-object quarantine.
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
	"sort"
	"testing"

	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/vclock"
	"histar/internal/wal"
)

const (
	rotLogSize  = 128 << 10
	rotMetaSize = 256 << 10
)

// rotStore formats a store on a FaultDisk-wrapped 8 MB device.  Small
// segments put the checkpointed objects into the log-structured region, so
// the ladder's object-extent rungs exercise rot inside sealed segments.
func rotStore(t *testing.T) (*Store, *disk.FaultDisk) {
	t.Helper()
	base := disk.New(disk.Params{Sectors: 1 << 14, WriteCache: true}, &vclock.Clock{})
	fd := disk.NewFaultDisk(base)
	s, err := Format(fd, Options{LogSize: rotLogSize, MetaAreaSize: rotMetaSize, SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return s, fd
}

func rotLabel(cat uint64) label.Label {
	return label.New(label.L1, label.P(label.Category(cat), label.L3))
}

// populateGenerations drives the store through the full lifecycle the
// fallback ladder depends on: a first checkpointed generation, a second
// generation synced then checkpointed (retained behind the log's epoch
// marker), and a tail of syncs in the current log generation.  Every
// mutation is synced, so recovery on any rung must reproduce the returned
// contents exactly.
func populateGenerations(t *testing.T, s *Store) map[uint64]string {
	t.Helper()
	want := make(map[uint64]string)
	put := func(id uint64, v string) {
		t.Helper()
		if err := s.PutLabeled(id, rotLabel(id%7), []byte(v)); err != nil {
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
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(20); i < 25; i++ {
		put(i, fmt.Sprintf("gen2-object-%d", i))
	}
	return want
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

// metaPayloadLen reads the payload length out of a metadata area header.
func metaPayloadLen(t *testing.T, d disk.Device, areaOff int64) int64 {
	t.Helper()
	hdr := make([]byte, metaHeaderSize)
	if _, err := d.ReadAt(hdr, areaOff); err != nil {
		t.Fatal(err)
	}
	return int64(binary.LittleEndian.Uint64(hdr[mhPayloadOff:]))
}

// findSection walks a metadata area's section stream on disk and returns
// the device region of one section's payload.
func findSection(t *testing.T, d disk.Device, areaOff int64, wantTag uint64) disk.Region {
	t.Helper()
	payloadLen := metaPayloadLen(t, d, areaOff)
	payload := make([]byte, payloadLen)
	if _, err := d.ReadAt(payload, areaOff+metaHeaderSize); err != nil {
		t.Fatal(err)
	}
	off := int64(0)
	for off < payloadLen {
		tag := binary.LittleEndian.Uint64(payload[off:])
		slen := int64(binary.LittleEndian.Uint64(payload[off+8:]))
		off += 24
		if tag == wantTag {
			return disk.Region{Off: areaOff + metaHeaderSize + off, Len: slen}
		}
		off += slen
	}
	t.Fatalf("section %d not found in metadata area at %d", wantTag, areaOff)
	return disk.Region{}
}

// TestBitRotEveryCoveredFlipDetected is acceptance criterion (a): a single
// silent bit flip anywhere in the superblock copies or the referenced
// metadata area is always detected — the reopen either degrades (and still
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
			return disk.Region{Off: s.metaAreaOff(s.metaWhich), Len: metaHeaderSize}
		}},
		{"meta-payload", func(s *Store, fd *disk.FaultDisk) disk.Region {
			areaOff := s.metaAreaOff(s.metaWhich)
			return disk.Region{Off: areaOff + metaHeaderSize, Len: metaPayloadLen(t, fd, areaOff)}
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
				st := s2.IntegrityStats()
				if st.CorruptionsDetected == 0 && !st.Recovery.Degraded() {
					t.Fatalf("seed %d: flip in %s went undetected: %+v", seed, tgt.name, st.Recovery)
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
// when the referenced metadata area rots, Open falls back to the alternate
// (previous-checkpoint) snapshot and replays the retained log generation
// forward — every synced mutation from both generations survives.
func TestBitRotMetaFallbackZeroCommittedSyncLoss(t *testing.T) {
	s, fd := rotStore(t)
	want := populateGenerations(t, s)
	epoch := s.metaEpoch
	areaOff := s.metaAreaOff(s.metaWhich)
	if err := fd.RotBits(disk.Region{Off: areaOff, Len: mhCRCOff}, 3, 7); err != nil {
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
	if rep.MetaEpoch != epoch-1 {
		t.Fatalf("fallback epoch = %d, want %d", rep.MetaEpoch, epoch-1)
	}
	// Retained generation (11 records) plus the current one (5 records).
	if rep.WALRecordsReplayed != 16 {
		t.Fatalf("replayed %d records, want 16", rep.WALRecordsReplayed)
	}
	checkAll(t, s2, want)
	// The degraded mount must heal itself: the next checkpoint rewrites
	// both the snapshot and the superblock, and a further reopen is clean.
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

func TestBitRotBothMetaAreasRefused(t *testing.T) {
	s, fd := rotStore(t)
	populateGenerations(t, s)
	for which := 0; which < 2; which++ {
		if err := fd.RotBits(disk.Region{Off: s.metaAreaOff(which), Len: mhCRCOff}, 3, int64(which+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(fd, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with both metadata areas rotted = %v; want ErrCorrupt", err)
	}
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
	h, ok := s2.lookupHome(victim)
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
	st := s2.IntegrityStats()
	if st.QuarantineEvents != 1 || st.QuarantinedNow != 1 || st.CorruptionsDetected == 0 {
		t.Fatalf("integrity stats = %+v", st)
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
	// walk ends.  Its last 32 bytes are the third frame's trailing
	// descriptor; damage the end of the record under it.
	live := s.l.LiveBytes()
	if live < 3*(96+19) {
		t.Fatalf("log holds %d bytes, expected three frames", live)
	}
	tail := disk.Region{Off: logOffset + 32 + live - 32 - 16, Len: 16}
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
	if s2.IntegrityStats().CorruptionsDetected == 0 {
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
	if st.MetaAreasChecked != 2 || st.MetaAreasOK != 2 {
		t.Fatalf("meta areas checked/OK = %d/%d, want 2/2", st.MetaAreasChecked, st.MetaAreasOK)
	}
	if st.ObjectsChecked != len(want) {
		t.Fatalf("objects checked = %d, want %d", st.ObjectsChecked, len(want))
	}
	if st.BytesVerified == 0 {
		t.Fatal("scrub verified zero bytes")
	}
	is := s.IntegrityStats()
	if is.ScrubPasses != 1 || is.ScrubBytesVerified != uint64(st.BytesVerified) || is.LastScrub != st {
		t.Fatalf("scrub accounting: %+v", is)
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
	h, _ := s2.lookupHome(victim)
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

// restampMetaArea rewrites the metadata area at areaOff as a well-formed
// area of an older version, the way code speaking that version would have
// written it: the sections tags names, the header's version, section count
// and payload length to match, every CRC valid.  Versions up to 4 persisted
// the label fingerprint index as section 4 — (fingerprint, id) pairs in
// ascending order — which is rebuilt here from the area's own label section;
// versions 3 to 5 a table of snapshot pins as section 6, empty here.
func restampMetaArea(t *testing.T, d disk.Device, areaOff int64, version uint64, tags ...uint64) {
	t.Helper()
	section := func(tag uint64) []byte {
		reg := findSection(t, d, areaOff, tag)
		body := make([]byte, reg.Len)
		if _, err := d.ReadAt(body, reg.Off); err != nil {
			t.Fatal(err)
		}
		return body
	}
	labels := section(secLabels)
	var pairs [][2]uint64
	for n, rest := binary.LittleEndian.Uint64(labels), labels[8:]; n > 0; n-- {
		id := binary.LittleEndian.Uint64(rest)
		lbl, tail, err := label.DecodeBinary(rest[8:])
		if err != nil {
			t.Fatal(err)
		}
		pairs, rest = append(pairs, [2]uint64{uint64(lbl.Fingerprint()), id}), tail
	}
	sort.Slice(pairs, func(i, j int) bool {
		return pairs[i][0] < pairs[j][0] || pairs[i][0] == pairs[j][0] && pairs[i][1] < pairs[j][1]
	})
	index := appendU64(nil, uint64(len(pairs)))
	for _, p := range pairs {
		index = appendU64(appendU64(index, p[0]), p[1])
	}
	area := make([]byte, metaHeaderSize)
	for _, tag := range tags {
		var body []byte
		switch tag {
		case 4:
			body = index
		case 6:
			body = appendU64(nil, 0)
		default:
			body = section(tag)
		}
		area = appendU64(appendU64(appendU64(area, tag), uint64(len(body))), uint64(crc32c(body)))
		area = append(area, body...)
	}
	if _, err := d.ReadAt(area[:metaHeaderSize], areaOff); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(area[mhVersionOff:], version)
	binary.LittleEndian.PutUint64(area[mhPayloadOff:], uint64(len(area)-metaHeaderSize))
	binary.LittleEndian.PutUint64(area[mhSectionsOff:], uint64(len(tags)))
	binary.LittleEndian.PutUint32(area[mhCRCOff:], crc32c(area[:mhCRCOff]))
	if _, err := d.WriteAt(area, areaOff); err != nil {
		t.Fatal(err)
	}
}

// TestOtherFormatVersionsRefusedNotLoaded: this code reads exactly one
// version of each structure.  A superblock copy or metadata area that is
// intact — valid checksums throughout — but stamped with any other version
// is refused as corruption and handled by the ordinary ladder; nothing is
// ever loaded unverified.
func TestOtherFormatVersionsRefusedNotLoaded(t *testing.T) {
	superblocks := []struct {
		name     string
		version  uint64
		zeroTail bool
	}{
		{"v0", 0, false}, {"v1", 1, false}, {"v3", 3, false},
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
	}
	for _, tc := range metas {
		t.Run("metadata-"+tc.name, func(t *testing.T) {
			s, fd := rotStore(t)
			want := populateGenerations(t, s)
			restampMetaArea(t, fd, s.metaAreaOff(s.metaWhich), tc.version, tc.tags...)
			s2, err := Open(fd, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !s2.RecoveryReport().MetaFallback {
				t.Fatalf("expected metadata fallback, got %+v", s2.RecoveryReport())
			}
			checkAll(t, s2, want)
			restampMetaArea(t, fd, s.metaAreaOff(1-s.metaWhich), tc.version, tc.tags...)
			if _, err := Open(fd, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open with both metadata areas stamped %s = %v; want ErrCorrupt", tc.name, err)
			}
		})
	}
	// The log has one version too, but no second copy to fall back on: an
	// intact header stamped with a retired format refuses the mount, and the
	// refusal leaves the region as it found it.
	for _, v := range []byte{4, 5} {
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
	// An object-map entry whose CRC field lacks the valid bit, inside a
	// section whose own checksum is intact, would have to be read
	// unverified: the area is refused instead.
	t.Run("objmap-entry-without-crc", func(t *testing.T) {
		s, fd := rotStore(t)
		want := populateGenerations(t, s)
		sec := findSection(t, fd, s.metaAreaOff(s.metaWhich), secObjMap)
		body := make([]byte, sec.Len)
		if _, err := fd.ReadAt(body, sec.Off); err != nil {
			t.Fatal(err)
		}
		// [count] then (id, off, size, crcField) quads: clear the first
		// entry's CRC field and re-seal the section header's checksum.
		binary.LittleEndian.PutUint64(body[8+24:], 0)
		if _, err := fd.WriteAt(body, sec.Off); err != nil {
			t.Fatal(err)
		}
		if _, err := fd.WriteAt(appendU64(nil, uint64(crc32c(body))), sec.Off-8); err != nil {
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
