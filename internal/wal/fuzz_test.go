package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"histar/internal/disk"
	"histar/internal/vclock"
)

// fuzzRegion bounds the log image size the fuzzer explores; big enough for
// multi-record logs, small enough to keep each execution cheap.
const fuzzRegion = 1 << 16

// logImage builds a disk whose log region holds exactly data.
func logImage(data []byte) *disk.Disk {
	d := disk.New(disk.Params{Sectors: fuzzRegion / disk.SectorSize}, &vclock.Clock{})
	if len(data) > 0 {
		_, _ = d.WriteAt(data, 0)
	}
	return d
}

// validImage returns the raw bytes of a log holding one committed frame per
// element of commits.
func validImage(tb testing.TB, commits ...[]Record) []byte {
	tb.Helper()
	d := disk.New(disk.Params{Sectors: fuzzRegion / disk.SectorSize}, &vclock.Clock{})
	l, err := New(d, 0, fuzzRegion)
	if err != nil {
		tb.Fatal(err)
	}
	for _, recs := range commits {
		if err := l.Commit(recs); err != nil {
			tb.Fatal(err)
		}
	}
	return regionImage(tb, d)
}

// regionImage returns the raw bytes of d's log region.
func regionImage(tb testing.TB, d *disk.Disk) []byte {
	tb.Helper()
	img := make([]byte, fuzzRegion)
	if _, err := d.ReadAt(img, 0); err != nil {
		tb.Fatal(err)
	}
	return img
}

// FuzzRecover feeds arbitrary bytes to the log region and enforces the
// documented recovery contract: Recover never panics, returns only ErrCorrupt
// (or nil) for any byte-level damage, and whatever records it does return
// survive a reseal — recovering again after the implicit reseal yields the
// same records with no error (with the same error, if the reseal had no room
// to write in).
func FuzzRecover(f *testing.F) {
	f.Add([]byte{})
	f.Add(validImage(f, []Record{{ObjectID: 1, Data: []byte("object one")}}))
	f.Add(validImage(f, []Record{
		{ObjectID: 2, Data: []byte("labeled"), Label: []byte{2, 1, 17, 0, 0, 0, 0, 0, 0, 0, 3}},
		{ObjectID: 3, Delete: true},
	}))
	// A corrupted generation and a region cut off inside the first frame.
	img := validImage(f, []Record{{ObjectID: 4, Data: bytes.Repeat([]byte("x"), 100)}})
	img[9] = 0x7f
	f.Add(append([]byte(nil), img...))
	f.Add(img[:40])
	// Format 5's own cases.  A torn last frame: the second commit's last
	// sector never arrived.
	two := [][]Record{
		{{ObjectID: 5, Data: bytes.Repeat([]byte("a"), 300)}},
		{{ObjectID: 6, Data: bytes.Repeat([]byte("b"), 700)}, {ObjectID: 7, Delete: true}},
	}
	img = validImage(f, two...)
	f.Add(img[:2*disk.SectorSize])
	// A stale-generation tail: a full log truncated, one shorter commit since.
	d := disk.New(disk.Params{Sectors: fuzzRegion / disk.SectorSize}, &vclock.Clock{})
	l, err := New(d, 0, fuzzRegion)
	if err != nil {
		f.Fatal(err)
	}
	for id := uint64(1); id <= 8; id++ {
		if err := l.Commit([]Record{{ObjectID: id, Data: bytes.Repeat([]byte("s"), 200)}}); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Truncate(); err != nil {
		f.Fatal(err)
	}
	if err := l.Commit([]Record{{ObjectID: 9, Data: bytes.Repeat([]byte("n"), 200)}}); err != nil {
		f.Fatal(err)
	}
	f.Add(regionImage(f, d))
	// One damaged leading descriptor (its twin carries the frame), and a
	// rotted payload under an intact trailer.
	img = validImage(f, two...)
	img[logHeaderSize+9] ^= 0x40
	f.Add(append([]byte(nil), img...))
	img = validImage(f, two...)
	img[logHeaderSize+2*descSize+recHeaderSize+17] ^= 0x01
	f.Add(append([]byte(nil), img...))
	// Both leading descriptors of the first frame gone: the frames are found
	// one read on.
	img = validImage(f, two...)
	clear(img[logHeaderSize : logHeaderSize+2*descSize])
	f.Add(img)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzRegion {
			data = data[:fuzzRegion]
		}
		d := logImage(data)
		l := Open(d, 0, fuzzRegion)
		recs, err := l.Recover()
		if errors.Is(err, ErrVersion) {
			// Another format's log: the refusal must be stable and must not
			// have modified the region.
			if _, err2 := Open(d, 0, fuzzRegion).Recover(); !errors.Is(err2, ErrVersion) {
				t.Fatalf("version refusal not stable: %v then %v", err, err2)
			}
			return
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Recover returned a non-corruption error: %v", err)
		}
		// Recovery reseals the log to the valid prefix; a second recovery
		// must reproduce exactly the same records, cleanly — or, when the
		// reseal found no room and left the region alone (the log then reads
		// as full), with the same complaint.
		recs2, err2 := Open(d, 0, fuzzRegion).Recover()
		if noRoom := err != nil && l.tail == l.capacity(); err2 != nil && !(noRoom && errors.Is(err2, ErrCorrupt)) {
			t.Fatalf("second recovery after reseal failed: %v (first: %v)", err2, err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("reseal changed the record count: %d -> %d", len(recs), len(recs2))
		}
		for i := range recs {
			a, b := recs[i], recs2[i]
			if a.ObjectID != b.ObjectID || a.Delete != b.Delete ||
				!bytes.Equal(a.Data, b.Data) || !bytes.Equal(a.Label, b.Label) {
				t.Fatalf("record %d changed across reseal: %+v -> %+v", i, a, b)
			}
		}
	})
}

// TestRecoverCorruptionPrefixContract damages every byte position of a valid
// three-commit log in turn — the header, all nine descriptors, every record
// — then both leading descriptors of each frame at once, and then, on a log
// whose frames span sectors, every whole sector; it asserts the documented
// contract exactly: the records returned are always a prefix of what was
// committed, and any shortfall is reported as ErrCorrupt.
func TestRecoverCorruptionPrefixContract(t *testing.T) {
	small := [][]Record{
		{{ObjectID: 1, Data: []byte("first record")}},
		{{ObjectID: 2, Data: []byte("second"), Label: []byte{2, 1, 5, 0, 0, 0, 0, 0, 0, 0, 3}}, {ObjectID: 3, Delete: true}},
		{{ObjectID: 4, Mark: true}, {ObjectID: 5, Data: []byte("fifth, after a marker")}},
	}
	big := [][]Record{
		{{ObjectID: 1, Data: bytes.Repeat([]byte("a"), 700)}},
		{{ObjectID: 2, Data: bytes.Repeat([]byte("b"), 900), Label: []byte{2, 1, 5, 0, 0, 0, 0, 0, 0, 0, 3}}, {ObjectID: 3, Delete: true}},
		{{ObjectID: 4, Mark: true}, {ObjectID: 5, Data: bytes.Repeat([]byte("c"), 1100)}},
	}
	check := func(what string, commits [][]Record, damage func(img []byte)) {
		t.Helper()
		var want []Record
		for _, c := range commits {
			want = append(want, c...)
		}
		img := validImage(t, commits...)
		damage(img)
		recs, err := Open(logImage(img), 0, fuzzRegion).Recover()
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: non-corruption error %v", what, err)
		}
		if len(recs) > len(want) {
			t.Fatalf("%s: more records than committed (%d)", what, len(recs))
		}
		for i, r := range recs {
			if r.ObjectID != want[i].ObjectID || r.Delete != want[i].Delete || r.Mark != want[i].Mark ||
				!bytes.Equal(r.Data, want[i].Data) || !bytes.Equal(r.Label, want[i].Label) {
				t.Fatalf("%s: record %d = %+v, want prefix of committed records", what, i, r)
			}
		}
		// EVERY damage that loses records must be reported: a flipped
		// descriptor is covered by one of its two twins, a flipped payload
		// byte sits under a trailer that proves the frame was whole, and a
		// frame whose leading twins are both gone is given away by its own
		// trailer or by the frame after it.
		if len(recs) < len(want) && err == nil {
			t.Fatalf("%s: lost records without ErrCorrupt (%d/%d)", what, len(recs), len(want))
		}
	}
	frames := func(commits [][]Record) (starts []int, used int) {
		used = logHeaderSize
		for _, c := range commits {
			starts = append(starts, used)
			used += frameOverhead
			for _, r := range c {
				used += int(r.EncodedSize())
			}
		}
		return starts, used
	}
	starts, used := frames(small)
	for pos := 0; pos < used; pos++ {
		check(fmt.Sprintf("byte %d", pos), small, func(img []byte) { img[pos] ^= 0xff })
	}
	for _, commits := range [][][]Record{small, big} {
		starts, used = frames(commits)
		for i, at := range starts {
			check(fmt.Sprintf("leading pair of frame %d flipped", i), commits, func(img []byte) {
				img[at+9] ^= 0x01
				img[at+descSize+20] ^= 0x80
			})
			check(fmt.Sprintf("leading pair of frame %d zeroed", i), commits, func(img []byte) { clear(img[at : at+2*descSize]) })
		}
	}
	// Sector 0 holds the header, and an all-zero header is by definition a
	// region never written; the other sectors hold only frames.  The last
	// one holds the last frame's trailer: a frame that loses payload and
	// trailer together, with nothing after it, is the one loss format 5
	// cannot tell from a write the crash tore, and is not asserted here.
	for sec := 1; (sec+1)*disk.SectorSize < used; sec++ {
		check(fmt.Sprintf("sector %d zeroed", sec), big, func(img []byte) { clear(img[sec*disk.SectorSize : (sec+1)*disk.SectorSize]) })
	}
}
