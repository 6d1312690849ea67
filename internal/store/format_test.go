package store

import (
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"testing"

	"histar/internal/disk"
	"histar/internal/vclock"
)

// formatImageSHA256 is the SHA-256 of the device image formatImageWorkload
// leaves behind.  It pins every on-disk layout at once — superblock copies,
// log header, frames and records, metadata header and sections, segment packing,
// alias records — so a change that alters any of them must change this
// constant, visibly.
const formatImageSHA256 = "e477d94166ffc75ec9228f261dda8d7a1c25cd878038e60a8e4d2c11b58f375c"

// formatImageWorkload drives one seeded, single-threaded pass over every
// structure the store writes: plain and labelled puts, deletes, per-object
// and batched syncs, a snapshot's holds and clones of them, two checkpoints,
// and a tail of log records after the last one.
func formatImageWorkload(t *testing.T, s *Store) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(12))
	payload := func() []byte {
		b := make([]byte, 1+rng.Intn(5000))
		rng.Read(b)
		return b
	}
	for id := uint64(1); id <= 40; id++ {
		if id%3 == 0 {
			must(s.PutLabeled(id, rotLabel(id%5), payload()))
		} else {
			must(s.Put(id, payload()))
		}
		if id%4 == 0 {
			must(s.SyncObject(id))
		}
	}
	must(s.Put(41, make([]byte, 100<<10))) // larger than half a segment: dedicated extent
	for _, id := range []uint64{2, 9, 16} {
		must(s.Delete(id))
	}
	must(s.SyncObject(9))
	must(s.Checkpoint())

	// A snapshot the way the kernel takes one — a checkpoint, then a hold on
	// each of four objects — and a clone of two of those.
	must(s.Checkpoint())
	for id := uint64(3); id <= 6; id++ {
		must(s.Alias(id, 60+id, rotLabel(id%5)))
	}
	must(s.Alias(63, 100, rotLabel(3)))
	must(s.Alias(64, 101, rotLabel(6)))
	for id := uint64(20); id <= 30; id++ {
		must(s.PutLabeled(id, rotLabel(id%7), payload()))
	}
	must(s.Put(100, payload())) // copy-on-write break of the clone
	for _, err := range s.SyncObjects([]uint64{20, 21, 22, 100}) {
		must(err)
	}
	must(s.Delete(25))
	must(s.Checkpoint())

	must(s.PutLabeled(50, rotLabel(2), payload()))
	must(s.SyncObject(50))
	must(s.Delete(30))
	must(s.SyncObject(30))
}

// TestOnDiskFormatUnchanged checks, rather than asserts, that the on-disk
// layouts are the ones formatImageSHA256 was recorded against.
func TestOnDiskFormatUnchanged(t *testing.T) {
	// A log header's generation is 64 random bits (see package wal); for the
	// image to repeat they come from a fixed stream here.
	defer func(r io.Reader) { crand.Reader = r }(crand.Reader)
	crand.Reader = rand.New(rand.NewSource(20))
	d := disk.New(disk.Params{Sectors: 1 << 14}, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: rotLogSize, MetaAreaSize: rotMetaSize, SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	formatImageWorkload(t, s)
	img := make([]byte, d.Size())
	if _, err := d.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(img)
	if got := hex.EncodeToString(sum[:]); got != formatImageSHA256 {
		t.Fatalf("device image SHA-256 = %s, want %s: an on-disk layout changed", got, formatImageSHA256)
	}
	// The image is also a valid one: it reopens clean.
	s2, err := Open(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.RecoveryReport().Degraded() {
		t.Fatalf("reopen of the format image degraded: %+v", s2.RecoveryReport())
	}
}

// TestDecodersRefuseDamagedPayloads drives every decoder that reads through
// the sticky sectionReader — the four metadata sections and the alias body
// of a clone record — with its own encoder's output and two damaged variants:
// cut short in the middle of a field, and with a count or length field that
// claims more than the payload holds (an absurd count must also return at
// once rather than loop).  The intact payload decodes; each damaged one
// comes back as a CorruptError, never a panic or a half-reported success.
func TestDecodersRefuseDamagedPayloads(t *testing.T) {
	src, fd := rotStore(t)
	populateGenerations(t, src)
	if err := src.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	section := func(tag uint64) []byte {
		reg := findSection(t, fd, src.metaAreaOff(src.metaWhich), tag)
		body := make([]byte, reg.Len)
		if _, err := fd.ReadAt(body, reg.Off); err != nil {
			t.Fatal(err)
		}
		return body
	}
	// overrun returns p with the u64 at off replaced by v.
	overrun := func(p []byte, off int, v uint64) []byte {
		q := append([]byte(nil), p...)
		binary.LittleEndian.PutUint64(q[off:], v)
		return q
	}
	cloneBody := encodeAliasBody(home{off: 8192, size: 10, crc: 7})
	cases := []struct {
		name    string
		payload []byte
		lenOff  int // offset of a count or length field to inflate
		decode  func(*Store, *sectionReader)
	}{
		{"objmap", section(secObjMap), 0, (*Store).decodeObjMapSection},
		{"free", section(secFree), 0, (*Store).decodeFreeSection},
		{"labels", section(secLabels), 0, (*Store).decodeLabelSection},
		{"segments", section(secSegs), 0, (*Store).decodeSegsSection},
		{"clone-body", cloneBody, -1, func(_ *Store, r *sectionReader) {
			if _, err := decodeAliasBody(r.buf); err != nil {
				r.err = err
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(payload []byte) error {
				r := &sectionReader{buf: payload, area: "metadata"}
				tc.decode(newStore(nil, Options{}), r)
				return r.err
			}
			if err := run(tc.payload); err != nil {
				t.Fatalf("intact payload refused: %v", err)
			}
			damaged := map[string][]byte{"truncated-mid-field": tc.payload[:len(tc.payload)-3]}
			if tc.lenOff >= 0 {
				damaged["overrunning-length"] = overrun(tc.payload, tc.lenOff, binary.LittleEndian.Uint64(tc.payload[tc.lenOff:])+1)
				damaged["absurd-length"] = overrun(tc.payload, tc.lenOff, ^uint64(0))
			} else {
				damaged["overlong"] = append(append([]byte(nil), tc.payload...), 0)
			}
			for name, payload := range damaged {
				var ce *CorruptError
				if err := run(payload); !errors.As(err, &ce) {
					t.Errorf("%s: decode = %v; want a CorruptError", name, err)
				}
			}
		})
	}
}
