package store

import (
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"runtime/metrics"
	"testing"

	"histar/internal/disk"
	"histar/internal/vclock"
)

// formatImageSHA256 is the SHA-256 of the device image formatImageWorkload
// leaves behind.  It pins every on-disk layout at once — superblock copies,
// log header, frames and records, base header and sections, run headers and
// deltas, segment packing, range records — so a change that alters any of
// them must change this constant, visibly.  The checkpoint seal walks the
// entries changed since the last seal in the order they changed, which fixes
// segment packing, and the object map, each record with its label, comes
// from the id-ordered home table.  Chain ids come from crypto/rand as log
// generations do, so every draw moves the ones after it.
const formatImageSHA256 = "9881d585f7ff1ad640dac30706c2d3ac6fe5dbef6640a27489dc18ab51fc164e"

// formatImageWorkload drives one seeded, single-threaded pass over every
// structure the store writes: plain and labelled puts, deletes, per-object
// and batched syncs, three checkpoints, and a tail of log records after the last one, a range record among them.
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
			must(s.PutLabeled(id, rotLabel(id%5), payload(), 0, whole))
		} else {
			must(s.Put(id, payload()))
		}
		if id%4 == 0 {
			must(s.SyncObject(id))
		}
	}
	must(s.Put(41, make([]byte, 100<<10))) // larger than half a segment: a segment of its own
	for _, id := range []uint64{2, 9, 16} {
		must(s.Delete(id))
	}
	must(s.SyncObject(9))
	must(s.Checkpoint())

	must(s.Checkpoint())
	for id := uint64(20); id <= 30; id++ {
		must(s.PutLabeled(id, rotLabel(id%7), payload(), 0, whole))
	}
	must(s.Put(100, payload()))
	for _, err := range s.SyncObjects([]uint64{20, 21, 22, 100}) {
		must(err)
	}
	must(s.Delete(25))
	must(s.Checkpoint())

	fifty := append(payload(), make([]byte, 32)...)
	must(s.PutLabeled(50, rotLabel(2), fifty, 0, whole))
	must(s.SyncObject(50))
	copy(fifty[8:], "range record")
	must(s.PutLabeled(50, rotLabel(2), fifty, 8, 20))
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
	s, err := Format(d, Options{LogSize: rotLogSize, SegmentSize: 64 << 10})
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
// the sticky sectionReader — the two metadata sections — with its own
// encoder's output and damaged variants: cut short in the middle of a field,
// and with a count or length field that claims more than the payload holds
// (an absurd count must also return at once rather than loop).  The object
// map gets two more: a record whose label does not decode, and one with a
// flag bit no version defines; the segment table one: an entry that starts
// inside the one before it.  The intact payload decodes; each damaged one
// comes back as a CorruptError, never a panic or a half-reported success.
//
// Then the layout every section decodes on its own but no run of the store
// could have written: a home overlapping another home, two homes naming one
// extent (an alias, which metadata version 7 allowed), a home outside the
// data region at either end, a home whose size field reads negative, a home
// past its segment's used mark, and a home in no segment.  Each would let the
// allocator hand out bytes a home still holds.  Deriving the free list refuses each with a CorruptError, and
// a base holding one, every checksum intact, sends Open to the previous base
// with no committed sync lost.
func TestDecodersRefuseDamagedPayloads(t *testing.T) {
	src, fd := rotStore(t)
	populateGenerations(t, src)
	rebase(t, src)
	section := func(tag uint64) []byte {
		reg := findSection(t, fd, src.base.ext.off, tag)
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
	// u64s encodes a section body: a count, then the fields.
	u64s := func(count int, fields ...uint64) []byte {
		b := appendU64(nil, uint64(count))
		for _, f := range fields {
			b = appendU64(b, f)
		}
		return b
	}
	h := homeIn(src, 1)
	cases := []struct {
		name    string
		payload []byte
		lenOff  int               // offset of a count or length field to inflate
		more    map[string][]byte // further damaged payloads
		decode  func(*Store, *sectionReader)
	}{
		{"objmap", section(secObjMap), 0, map[string][]byte{
			"undecodable-label": appendHome(appendU64(nil, 1), 1, h, []byte{0xff, 0}),
			"unknown-flag":      u64s(1, 1, uint64(h.off), uint64(h.size), objCRCValid|1<<34|uint64(h.crc)),
		}, (*Store).decodeObjMapSection},
		{"segments", section(secSegs), 0, map[string][]byte{
			"overlapping": u64s(2, 1<<20, 1<<20, 0, 3<<19, 1<<20, 0),
		}, (*Store).decodeSegsSection},
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
			damaged := map[string][]byte{
				"truncated-mid-field": tc.payload[:len(tc.payload)-3],
				"overrunning-length":  overrun(tc.payload, tc.lenOff, binary.LittleEndian.Uint64(tc.payload[tc.lenOff:])+1),
				"absurd-length":       overrun(tc.payload, tc.lenOff, ^uint64(0)),
			}
			for name, payload := range tc.more {
				damaged[name] = payload
			}
			for name, payload := range damaged {
				var ce *CorruptError
				if err := run(payload); !errors.As(err, &ce) {
					t.Errorf("%s: decode = %v; want a CorruptError", name, err)
				}
			}
		})
	}
	layouts := []struct {
		name   string
		damage func(s *Store)
	}{
		{"home-overlaps-home", func(s *Store) {
			putHome(s, 2, home{off: homeIn(s, 1).off, size: homeIn(s, 1).size + 1})
		}},
		{"homes-share-an-extent", func(s *Store) { putHome(s, 2, homeIn(s, 1)) }},
		{"home-outside-data-region", func(s *Store) {
			putHome(s, 1, home{off: logOffset, size: homeIn(s, 1).size})
		}},
		{"home-past-data-region-end", func(s *Store) {
			putHome(s, 1, home{off: s.d.Size() - 512, size: 1024})
		}},
		{"home-of-negative-size", func(s *Store) { // a size field of 2^64-512
			putHome(s, 1, home{off: homeIn(s, 1).off, size: -512})
		}},
		{"home-past-segment-used", func(s *Store) {
			// The segment's last home, so it overlaps no other.
			seg, last := s.segContaining(homeIn(s, 1).off), uint64(1)
			for _, h := range s.homes {
				if s.segContaining(h.off) == seg && h.off > homeIn(s, last).off {
					last = h.id
				}
			}
			h := homeIn(s, last)
			putHome(s, last, home{off: h.off, size: seg.base + seg.used - h.off + 1})
		}},
		{"home-in-no-segment", func(s *Store) {
			putHome(s, 1, home{off: s.free[len(s.free)-1].off, size: homeIn(s, 1).size})
		}},
	}
	for _, tc := range layouts {
		t.Run(tc.name, func(t *testing.T) {
			s, fd := rotStore(t)
			want := populateGenerations(t, s)
			rebase(t, s)
			s.mu.Lock()
			tc.damage(s)
			_, err := s.deriveFree(0, true)
			img := s.encodeMetadata(s.metaEpoch, s.base.chain)
			s.mu.Unlock()
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("deriving the free list = %v; want a CorruptError", err)
			}
			if int64(len(img)) > s.base.ext.size {
				t.Fatalf("the damaged base takes %d bytes, more than the %d of its extent", len(img), s.base.ext.size)
			}
			if _, err := fd.WriteAt(img, s.base.ext.off); err != nil {
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
}

// FuzzDecodeMetadata feeds every decoder of the superblock, the base and the
// chain — a superblock copy, the section stream, the three section decoders,
// the base header, the run header and the delta — the same bytes, seeded
// with a real base, the records of a three-delta chain and a real superblock
// copy.  Each must decode or return a CorruptError, never panic, and allocate
// no more than a small multiple of its input; a superblock copy it accepts
// names two bases in whole sectors past the log.
func FuzzDecodeMetadata(f *testing.F) {
	s, fd, _, _ := chainStore(f)
	read := func(off, n int64) []byte {
		b := make([]byte, n)
		if _, err := fd.ReadAt(b, off); err != nil {
			f.Fatal(err)
		}
		return b
	}
	base := read(s.base.ext.off, s.base.length)
	f.Add(base)
	f.Add(base[metaHeaderSize:])
	for k := 1; k < len(s.chain); k++ {
		f.Add(read(s.chain[k].off, s.chain[k].size-runHeaderSize))
		f.Add(read(runHeaderRegion(s, k).Off, runHeaderSize))
	}
	f.Add(read(superblockOffset, sbCopySize))
	link := s.base.chain
	f.Fuzz(func(t *testing.T, b []byte) {
		decodeAll := func() (errs []error) {
			if len(b) >= sbCopySize {
				sb, err := parseSuperblockCopy(b, 0)
				for _, e := range []extent{sb.base, sb.prev} {
					if err == nil && (e.off < logOffset+sb.logSize || e.off%512 != 0 || e.size <= 0 || e.size%512 != 0) {
						t.Fatalf("an accepted superblock copy names a base at %d (size %d), log size %d", e.off, e.size, sb.logSize)
					}
				}
				errs = append(errs, err)
			}
			if len(b) >= metaHeaderSize {
				_, err := parseMetaHeader(b, 0, 1<<30)
				errs = append(errs, err)
			}
			secs, err := parseSections(b, 0)
			errs = append(errs, err)
			for _, decode := range []func(*Store, *sectionReader){(*Store).decodeObjMapSection, (*Store).decodeSegsSection, (*Store).decodePinsSection} {
				for _, payload := range append(secs[:], b) {
					r := &sectionReader{buf: payload, area: "metadata"}
					decode(newStore(nil, Options{}), r)
					errs = append(errs, r.err)
				}
			}
			_, err = decodeDelta(b, 0)
			parseRunHeader(b, link, link)
			return append(errs, err)
		}
		for _, err := range decodeAll() {
			var ce *CorruptError
			if err != nil && !errors.As(err, &ce) {
				t.Fatalf("a decoder returned %v, not a CorruptError", err)
			}
		}
		// The heap counter is the process's, which the fuzzing engine
		// shares: only a bound exceeded on every one of three tries counts.
		allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		for try := 0; ; try++ {
			metrics.Read(allocs)
			before := allocs[0].Value.Uint64()
			decodeAll()
			metrics.Read(allocs)
			grew := allocs[0].Value.Uint64() - before
			if grew <= 64*uint64(len(b))+64<<10 {
				break
			} else if try == 2 {
				t.Fatalf("decoding %d bytes allocated %d", len(b), grew)
			}
		}
	})
}
