package store

import (
	"bytes"
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
// log header, frames and records, run headers, the chain records that are
// bases and deltas, segment packing, range records — so a change that alters
// any of them must change this constant, visibly.  The checkpoint seal walks
// the entries changed since the last seal in the order they changed, which
// fixes segment packing, and the home rows, each with its label, come from
// the id-ordered home table.  Chain ids come from crypto/rand as log
// generations do, so every draw moves the ones after it.
const formatImageSHA256 = "28b6882660fa9bd42210f18210993ea24941464bc5500b0e994d83f87ac3bf88"

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

// TestDecodersRefuseDamagedPayloads drives the record decoder, which reads
// through the sticky rowReader, with its own encoder's output and damaged
// variants — a record of home rows, and one of segment rows: cut short in
// the middle of a field, and with a count that claims more rows than the
// record holds (an absurd count must also return at once rather than loop).
// The home rows get two more: a row whose label does not decode, and one
// with a flag bit no version defines; the segment rows one: a row that
// starts inside the one before it.  The intact record decodes; each damaged
// one comes back as a CorruptError, never a panic or a half-reported
// success.
//
// Then the layout every row decodes on its own but no run of the store could
// have written: a home overlapping another home, two homes naming one
// extent (an alias, which metadata version 7 allowed), a home outside the
// data region at either end, a home whose size field reads negative, a home
// past its segment's used mark, and a home in no segment.  Each would let
// the allocator hand out bytes a home still holds.  Deriving the free list
// refuses each with a CorruptError, and a base holding one, its checksum
// intact, sends Open to the previous base with no committed sync lost.
func TestDecodersRefuseDamagedPayloads(t *testing.T) {
	src, fd := rotStore(t)
	populateGenerations(t, src)
	rebase(t, src)
	base := readRecord(t, fd, src.base.ext)
	// encode is a record of r's rows with an empty CRC slot, as the decoder
	// takes it.
	encode := func(r *record) []byte { return append(appendRecord(nil, r, 0), make([]byte, 8)...) }
	// overrun returns p with the u64 at off replaced by v.
	overrun := func(p []byte, off int, v uint64) []byte {
		q := append([]byte(nil), p...)
		binary.LittleEndian.PutUint64(q[off:], v)
		return q
	}
	h := homeIn(src, 1)
	const homesAt, segsAt = recordHeaderSize, recordHeaderSize + 8 // the counts, in a record of only those rows
	flagged := encode(&record{homes: []homedObject{{id: 1, home: h}}})
	binary.LittleEndian.PutUint64(flagged[homesAt+8+24:], objCRCValid|1<<34|uint64(h.crc))
	cases := []struct {
		name   string
		record []byte
		lenOff int               // offset of the count to inflate
		more   map[string][]byte // further damaged records
	}{
		{"objmap", encode(&record{homes: base.homes}), homesAt, map[string][]byte{
			"undecodable-label": encode(&record{homes: []homedObject{{id: 1, home: h, lbl: []byte{0xff, 0}}}}),
			"unknown-flag":      flagged,
		}},
		{"segments", encode(&record{segs: base.segs}), segsAt, map[string][]byte{
			"overlapping": encode(&record{segs: []*segment{{base: 1 << 20, size: 1 << 20}, {base: 3 << 19, size: 1 << 20}}}),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeRecord(tc.record, 0); err != nil {
				t.Fatalf("intact record refused: %v", err)
			}
			damaged := map[string][]byte{
				"truncated-mid-field": tc.record[:len(tc.record)-3],
				"overrunning-length":  overrun(tc.record, tc.lenOff, binary.LittleEndian.Uint64(tc.record[tc.lenOff:])+1),
				"absurd-length":       overrun(tc.record, tc.lenOff, ^uint64(0)),
			}
			for name, b := range tc.more {
				damaged[name] = b
			}
			for name, b := range damaged {
				var ce *CorruptError
				if _, err := decodeRecord(b, 0); !errors.As(err, &ce) {
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
			r := &record{epoch: s.base.epoch, chain: s.base.chain, next: s.base.run, homes: s.homes, segs: s.segs, pins: s.prevChain}
			size := recordSize(nil, r)
			var img []byte
			if size <= s.base.ext.size {
				img = appendRecord(nil, r, s.base.ext.size)
			}
			s.mu.Unlock()
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("deriving the free list = %v; want a CorruptError", err)
			}
			if img == nil {
				t.Fatalf("the damaged base takes %d bytes, more than the %d of its extent", size, s.base.ext.size)
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

// FuzzDecodeMetadata feeds every decoder of the superblock and the chain — a
// superblock copy, the run header and the one record decoder, which reads
// bases and deltas alike — the same bytes, seeded with a base and a delta
// from the one encoder, the base and the records of a three-delta chain as
// written, and a real superblock copy.  Each must decode or return a
// CorruptError, never panic, and allocate no more than a small multiple of
// its input; a superblock copy it accepts names two bases in whole sectors
// past the log, and a record it accepts encodes back to the bytes it came
// from, zeros to the CRC slot.
func FuzzDecodeMetadata(f *testing.F) {
	s, fd, _, _ := chainStore(f)
	read := func(off, n int64) []byte {
		b := make([]byte, n)
		if _, err := fd.ReadAt(b, off); err != nil {
			f.Fatal(err)
		}
		return b
	}
	s.mu.Lock()
	base := &record{epoch: s.base.epoch, chain: s.base.chain, next: s.base.run, homes: s.homes, segs: s.segs, pins: s.prevChain}
	delta := &record{epoch: s.metaEpoch, chain: s.chainID, next: s.nextRun, homes: []homedObject{s.homes[0], {id: 1 << 40}},
		segs: []*segment{s.segs[0], {base: 1 << 30}}}
	f.Add(appendRecord(nil, base, recordSize(nil, base)))
	f.Add(appendRecord(nil, delta, recordSize(nil, delta)))
	s.mu.Unlock()
	f.Add(read(s.base.ext.off, s.base.ext.size))
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
			r, err := decodeRecord(b, 0)
			if rows := appendRecord(nil, &r, 0); err == nil && (!bytes.HasPrefix(b, rows) || len(bytes.TrimLeft(b[len(rows):len(b)-8], "\x00")) != 0) {
				t.Fatalf("a record decoded from %x encodes back to %x", b, rows)
			}
			recordSum(b)
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
