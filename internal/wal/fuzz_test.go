package wal

import (
	"bytes"
	"errors"
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

// validImage returns the raw bytes of a committed log holding recs.
func validImage(tb testing.TB, recs []Record) []byte {
	tb.Helper()
	d := disk.New(disk.Params{Sectors: fuzzRegion / disk.SectorSize}, &vclock.Clock{})
	l, err := New(d, 0, fuzzRegion)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		l.Append(r)
	}
	if err := l.Commit(); err != nil {
		tb.Fatal(err)
	}
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
// same records with no error.
func FuzzRecover(f *testing.F) {
	f.Add([]byte{})
	f.Add(validImage(f, []Record{{ObjectID: 1, Data: []byte("object one")}}))
	f.Add(validImage(f, []Record{
		{ObjectID: 2, Data: []byte("labeled"), Label: []byte{2, 1, 17, 0, 0, 0, 0, 0, 0, 0, 3}},
		{ObjectID: 3, Delete: true},
	}))
	// A corrupted committed length and a torn record tail.
	img := validImage(f, []Record{{ObjectID: 4, Data: bytes.Repeat([]byte("x"), 100)}})
	img[9] = 0x7f
	f.Add(append([]byte(nil), img...))
	f.Add(img[:40])

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
		// must reproduce exactly the same records, cleanly.
		recs2, err2 := Open(d, 0, fuzzRegion).Recover()
		if err2 != nil {
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
// multi-record log in turn and asserts the documented contract exactly: the
// records returned are always a prefix of what was committed, and any
// shortfall is reported as ErrCorrupt.
func TestRecoverCorruptionPrefixContract(t *testing.T) {
	want := []Record{
		{ObjectID: 1, Data: []byte("first record")},
		{ObjectID: 2, Data: []byte("second"), Label: []byte{2, 1, 5, 0, 0, 0, 0, 0, 0, 0, 3}},
		{ObjectID: 3, Delete: true},
	}
	img := validImage(t, want)
	used := logHeaderSize
	for _, r := range want {
		used += int(encodedSize(r))
	}
	for pos := 0; pos < used; pos++ {
		mut := append([]byte(nil), img...)
		mut[pos] ^= 0xff
		recs, err := Open(logImage(mut), 0, fuzzRegion).Recover()
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("pos %d: non-corruption error %v", pos, err)
		}
		if len(recs) > len(want) {
			t.Fatalf("pos %d: more records than committed (%d)", pos, len(recs))
		}
		for i, r := range recs {
			if r.ObjectID != want[i].ObjectID || r.Delete != want[i].Delete ||
				!bytes.Equal(r.Data, want[i].Data) || !bytes.Equal(r.Label, want[i].Label) {
				t.Fatalf("pos %d: record %d = %+v, want prefix of committed records", pos, i, r)
			}
		}
		// Since the header gained its own CRC, a damaged magic is no longer
		// mistaken for a never-formatted region: EVERY damaged byte that
		// loses records must be reported.
		if len(recs) < len(want) && err == nil {
			t.Fatalf("pos %d: lost records without ErrCorrupt (%d/%d)", pos, len(recs), len(want))
		}
	}
}
