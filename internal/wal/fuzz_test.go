package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
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
// element of commits, each in the epoch its first record names.
func validImage(tb testing.TB, commits ...[]Record) []byte {
	tb.Helper()
	d := disk.New(disk.Params{Sectors: fuzzRegion / disk.SectorSize}, &vclock.Clock{})
	l, err := New(d, 0, fuzzRegion)
	if err != nil {
		tb.Fatal(err)
	}
	for _, recs := range commits {
		if err := l.Commit(recs[0].Epoch, recs); err != nil {
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
// documented recovery contract: Recover never panics, and returns only
// ErrCorrupt (or nil) for any byte-level damage.  Recovering again yields the
// same records and the same verdict — cleanly only if the first recovery
// rewrote a header it could not read, which leaves an empty log — until a
// restart, after which recovery is empty and clean.
func FuzzRecover(f *testing.F) {
	f.Add([]byte{})
	f.Add(validImage(f, []Record{{ObjectID: 1, Data: []byte("object one")}}))
	f.Add(validImage(f, []Record{
		{ObjectID: 2, Data: []byte("labeled"), Label: []byte{2, 1, 17, 0, 0, 0, 0, 0, 0, 0, 3}},
		{ObjectID: 3, Delete: true},
	}))
	// Range records (format 7): over a whole record in the same frame, in the
	// next frame, and an empty one.
	rng := func(off byte, b string) []byte { return append([]byte{off, 0, 0, 0, 0, 0, 0, 0}, b...) }
	f.Add(validImage(f,
		[]Record{{ObjectID: 8, Data: []byte("whole contents"), Label: []byte{2, 1, 17, 0, 0, 0, 0, 0, 0, 0, 3}},
			{ObjectID: 8, Data: rng(6, "range"), Label: []byte{2, 1, 17, 0, 0, 0, 0, 0, 0, 0, 3}, Range: true}},
		[]Record{{ObjectID: 8, Data: rng(0, "W"), Range: true}, {ObjectID: 8, Data: rng(3, ""), Range: true}},
	))
	// A corrupted generation and a region cut off inside the first frame.
	img := validImage(f, []Record{{ObjectID: 4, Data: bytes.Repeat([]byte("x"), 100)}})
	img[9] = 0x7f
	f.Add(append([]byte(nil), img...))
	f.Add(img[:40])
	// Format 5's own cases, in two epochs (format 8).  A torn last frame: the
	// second commit's last sector never arrived.
	two := [][]Record{
		{{ObjectID: 5, Data: bytes.Repeat([]byte("a"), 300), Epoch: 1}},
		{{ObjectID: 6, Data: bytes.Repeat([]byte("b"), 700), Epoch: 3}, {ObjectID: 7, Delete: true, Epoch: 3}},
	}
	img = validImage(f, two...)
	f.Add(img[:2*disk.SectorSize])
	// A stale-generation tail: a new log over a full one, one shorter commit
	// since.
	d := disk.New(disk.Params{Sectors: fuzzRegion / disk.SectorSize}, &vclock.Clock{})
	l, err := New(d, 0, fuzzRegion)
	if err != nil {
		f.Fatal(err)
	}
	for id := uint64(1); id <= 8; id++ {
		if err := l.Commit(id, []Record{{ObjectID: id, Data: bytes.Repeat([]byte("s"), 200)}}); err != nil {
			f.Fatal(err)
		}
	}
	if l, err = New(d, 0, fuzzRegion); err != nil {
		f.Fatal(err)
	}
	if err := l.Commit(2, []Record{{ObjectID: 9, Data: bytes.Repeat([]byte("n"), 200)}}); err != nil {
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
	// A restart over frames of three epochs, one shorter commit since.
	d = logImage(validImage(f, append(two, []Record{{ObjectID: 8, Data: []byte("after"), Epoch: 4}})...))
	l = Open(d, 0, fuzzRegion)
	if _, err := l.Recover(); err != nil {
		f.Fatal(err)
	}
	if err := l.ReclaimBefore(5); err != nil {
		f.Fatal(err)
	}
	if err := l.Commit(5, []Record{{ObjectID: 9, Data: []byte("n")}}); err != nil {
		f.Fatal(err)
	}
	f.Add(regionImage(f, d))

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
		// A header the first recovery could not read it rewrote, empty (the
		// tail at 0); any other damage it left alone, the log reading as full.
		rewritten := err != nil && l.tail == 0
		if rewritten && len(recs) != 0 {
			t.Fatalf("records returned from an unreadable header: %d", len(recs))
		}
		l2 := Open(d, 0, fuzzRegion)
		recs2, err2 := l2.Recover()
		if (err == nil || rewritten) && err2 != nil || err != nil && !rewritten && !errors.Is(err2, ErrCorrupt) {
			t.Fatalf("second recovery: %v (first: %v)", err2, err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("a second recovery changed the record count: %d -> %d", len(recs), len(recs2))
		}
		for i := range recs {
			a, b := recs[i], recs2[i]
			if a.ObjectID != b.ObjectID || a.Delete != b.Delete || a.Range != b.Range || a.Epoch != b.Epoch ||
				!bytes.Equal(a.Data, b.Data) || !bytes.Equal(a.Label, b.Label) {
				t.Fatalf("record %d changed across recoveries: %+v -> %+v", i, a, b)
			}
		}
		// A restart past every frame's epoch empties the log.
		if l2.last == math.MaxUint64 {
			return
		}
		if err := l2.ReclaimBefore(l2.last + 1); err != nil {
			t.Fatal(err)
		}
		if recs3, err3 := Open(d, 0, fuzzRegion).Recover(); err3 != nil || len(recs3) != 0 {
			t.Fatalf("recovery after a restart: %d records, %v", len(recs3), err3)
		}
	})
}

// TestRecoverCorruptionPrefixContract damages every byte position of a valid
// three-commit, three-epoch log in turn — the header, all nine descriptors,
// every record — then both leading descriptors of each frame at once, and
// then, on a log whose frames span sectors, every whole sector; it asserts
// the documented contract exactly: the records returned, epochs included, are
// always a prefix of what was committed, and any shortfall is reported as
// ErrCorrupt.  A directed case follows: recovery after a rotted frame keeps
// each record's epoch, the log then refuses a commit in an epoch lower than
// its last frame's and reads as full, and a restart past that epoch empties it.
func TestRecoverCorruptionPrefixContract(t *testing.T) {
	small := [][]Record{
		{{ObjectID: 1, Data: []byte("first record"), Epoch: 2}},
		{{ObjectID: 2, Data: []byte("second"), Label: []byte{2, 1, 5, 0, 0, 0, 0, 0, 0, 0, 3}, Epoch: 4}, {ObjectID: 3, Delete: true, Epoch: 4}},
		{{ObjectID: 4, Delete: true, Epoch: 5}, {ObjectID: 5, Data: []byte("fifth, in a later epoch"), Epoch: 5}},
	}
	big := [][]Record{
		{{ObjectID: 1, Data: bytes.Repeat([]byte("a"), 700), Epoch: 2}},
		{{ObjectID: 2, Data: bytes.Repeat([]byte("b"), 900), Label: []byte{2, 1, 5, 0, 0, 0, 0, 0, 0, 0, 3}, Epoch: 4}, {ObjectID: 3, Delete: true, Epoch: 4}},
		{{ObjectID: 4, Delete: true, Epoch: 5}, {ObjectID: 5, Data: bytes.Repeat([]byte("c"), 1100), Epoch: 5}},
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
			if r.ObjectID != want[i].ObjectID || r.Delete != want[i].Delete || r.Epoch != want[i].Epoch ||
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

	// The last frame's second record rots, after frames of epochs 2 and 4:
	// every recovery returns its first record too, each record in the epoch
	// it was committed in, with ErrCorrupt.
	starts, _ = frames(small)
	img := validImage(t, small...)
	img[starts[2]+2*descSize+recHeaderSize+3] ^= 0x20
	d := logImage(img)
	var l *Log
	for round := 0; round < 2; round++ {
		l = Open(d, 0, fuzzRegion)
		recs, err := l.Recover()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("recovery %d of the rotted last frame: %v, want ErrCorrupt", round, err)
		}
		for i, want := range []uint64{2, 4, 4, 5} {
			if len(recs) != 4 || recs[i].ObjectID != uint64(i+1) || recs[i].Epoch != want {
				t.Fatalf("recovery %d: %+v; want objects 1 to 4 in epochs 2, 4, 4, 5", round, recs)
			}
		}
	}
	// Epochs never decrease in log order: a commit in epoch 4 after the
	// frame of epoch 5 is refused, and writes nothing; one in epoch 5 finds
	// the log full, and so does one after a reclaim the frames of epoch 5
	// survive.
	live := l.LiveBytes()
	if err := l.Commit(4, []Record{{ObjectID: 9, Data: []byte("too old")}}); !errors.Is(err, ErrInvalid) || l.LiveBytes() != live {
		t.Fatalf("commit in a lower epoch: %v, %d live bytes (was %d); want ErrInvalid and nothing written", err, l.LiveBytes(), live)
	}
	if err := errors.Join(l.ReclaimBefore(5), l.Commit(5, []Record{{ObjectID: 9, Data: []byte("same epoch")}})); !errors.Is(err, ErrFull) {
		t.Fatalf("commit behind the rot: %v, want ErrFull", err)
	}
	if err := l.ReclaimBefore(6); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(6, []Record{{ObjectID: 9, Data: []byte("after the restart")}}); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, fuzzRegion).Recover()
	if err != nil || len(recs) != 1 || recs[0].ObjectID != 9 || recs[0].Epoch != 6 {
		t.Fatalf("after the restart: %+v, %v; want object 9 in epoch 6", recs, err)
	}
}
