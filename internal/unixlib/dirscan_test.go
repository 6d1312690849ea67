package unixlib

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"histar/internal/kernel"
	"histar/internal/label"
)

// dirOrder returns entries in the order a directory holds them: by refHash
// of the name, then by name, entries of one name in their given order.
func dirOrder(entries []DirEntry) []DirEntry {
	hashes := make(map[string]uint64, len(entries))
	for _, e := range entries {
		hashes[e.Name] = refHash(e.Name)
	}
	out := append([]DirEntry(nil), entries...)
	sort.SliceStable(out, func(i, j int) bool {
		hi, hj := hashes[out[i].Name], hashes[out[j].Name]
		return hi < hj || hi == hj && out[i].Name < out[j].Name
	})
	return out
}

// refHash is FNV-1a, by hash/fnv, then MurmurHash3's finalizer.
func refHash(name string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(name))
	h := f.Sum64()
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// encodeDirEntries is the reference encoder, written apart from the edit
// steps as their oracle: the bytes a rewrite lays out for a directory with
// exactly these bindings.  The entries go in dirOrder; past 16 of them there
// is one bucket per 16, rounded up to a power of two, bucket k holding the
// hashes whose top bits are k.  After the header come nb+1 fences, the
// offsets at which each bucket's region starts and the last one ends; a
// region is a u32 of how many bytes of entries follow, those entries, then
// zeros: a quarter as many bytes, at least 32.  The sequence word is left zero.
func encodeDirEntries(entries []DirEntry) []byte {
	sorted := dirOrder(entries)
	nb, shift := 1, 64
	for len(sorted) > 16*nb {
		nb, shift = nb*2, shift-1
	}
	regions := make([][]byte, nb)
	for _, e := range sorted {
		k := 0
		if nb > 1 {
			k = int(refHash(e.Name) >> shift)
		}
		r := binary.LittleEndian.AppendUint16(regions[k], uint16(len(e.Name)))
		r = append(r, e.Name...)
		r = binary.LittleEndian.AppendUint64(r, uint64(e.ID))
		regions[k] = append(r, byte(e.Type))
	}
	buf := make([]byte, dsDataOff+4*(nb+1))
	binary.LittleEndian.PutUint64(buf[dsCountOff:], uint64(len(sorted)))
	for k, ents := range regions {
		binary.LittleEndian.PutUint32(buf[dsDataOff+4*k:], uint32(len(buf)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ents)))
		buf = append(buf, ents...)
		buf = append(buf, make([]byte, max(len(ents)/4, 32))...)
	}
	binary.LittleEndian.PutUint32(buf[dsDataOff+4*nb:], uint32(len(buf)))
	return buf
}

// bucketSearch is what a lookup must return, over the whole segment: the
// first entry named name in a linear search of the entries of the bucket
// name's hash names.  Fence 0 gives the bucket count nb when it is 16 +
// 4(nb+1) for a power of two nb, and then bucket k's region runs from fence k
// to fence k+1, cut at the segment's end; nothing is found when fence 0 names
// no count, the fences lie past the bytes, or the region starts before fence
// 0's value or leaves no room for its u32 count of used bytes.  The entries
// are the used bytes after that count, cut at the region's end.
func bucketSearch(buf []byte, name string) (DirEntry, bool) {
	fence := func(i uint64) (uint64, bool) {
		if off := dsDataOff + 4*i; off+4 <= uint64(len(buf)) {
			return uint64(binary.LittleEndian.Uint32(buf[off:])), true
		}
		return 0, false
	}
	f0, ok := fence(0)
	if !ok || f0 < dsDataOff+8 || (f0-dsDataOff)%4 != 0 {
		return DirEntry{}, false
	}
	nb, log := (f0-dsDataOff)/4-1, 0
	for ; 1<<log < nb; log++ {
	}
	if 1<<log != nb {
		return DirEntry{}, false
	}
	k := uint64(0)
	if log > 0 {
		k = refHash(name) >> (64 - log)
	}
	lo, okLo := fence(k)
	hi, okHi := fence(k + 1)
	if !okLo || !okHi || lo < f0 || hi < lo+4 {
		return DirEntry{}, false
	}
	if hi = min(hi, uint64(len(buf))); lo+4 > hi {
		return DirEntry{}, false
	}
	hi = min(hi, lo+4+uint64(binary.LittleEndian.Uint32(buf[lo:])))
	for off := lo + 4; off+2 <= hi; {
		n := uint64(binary.LittleEndian.Uint16(buf[off:]))
		if off+2+n+entryTail > hi {
			break
		}
		if got := string(buf[off+2 : off+2+n]); got == name {
			t := buf[off+2+n:]
			return DirEntry{Name: got, ID: kernel.ID(binary.LittleEndian.Uint64(t)), Type: kernel.ObjectType(t[8])}, true
		}
		off += 2 + n + entryTail
	}
	return DirEntry{}, false
}

// checkDirLayout is the full layout check, written apart from the edit
// steps: nil when buf is a directory they may leave behind — the header
// alone with a count of 0, or a fence 0 naming nb+1 fences for a power of
// two nb, the fences ascending to the segment's end, each region holding its
// u32 count of used bytes, those bytes whole entries, each in its region's
// bucket and after the one before it in dirOrder, then only zeros, and as
// many entries in all as the count says.
func checkDirLayout(buf []byte) error {
	if len(buf) < dsDataOff {
		return fmt.Errorf("%d bytes: no header", len(buf))
	}
	count := binary.LittleEndian.Uint64(buf[dsCountOff:])
	if len(buf) == dsDataOff {
		if count != 0 {
			return fmt.Errorf("the header alone says %d entries", count)
		}
		return nil
	}
	fence := func(k int) int { return int(binary.LittleEndian.Uint32(buf[dsDataOff+4*k:])) }
	if len(buf) < dsDataOff+8 {
		return fmt.Errorf("%d bytes: no fences", len(buf))
	}
	nb := (fence(0)-dsDataOff)/4 - 1
	if fence(0) < dsDataOff+8 || (fence(0)-dsDataOff)%4 != 0 || nb&(nb-1) != 0 || fence(0) > len(buf) {
		return fmt.Errorf("fence 0 is %d, of %d bytes", fence(0), len(buf))
	}
	log := 0
	for 1<<log < nb {
		log++
	}
	if fence(nb) != len(buf) {
		return fmt.Errorf("the last fence is %d, of %d bytes", fence(nb), len(buf))
	}
	var n uint64
	var prev string
	for k := 0; k < nb; k++ {
		lo, hi := fence(k), fence(k+1)
		if hi < lo+4 || hi > len(buf) {
			return fmt.Errorf("bucket %d: region [%d,%d)", k, lo, hi)
		}
		end := lo + 4 + int(binary.LittleEndian.Uint32(buf[lo:]))
		if end > hi {
			return fmt.Errorf("bucket %d: %d used bytes in region [%d,%d)", k, end-lo-4, lo, hi)
		}
		off := lo + 4
		for ; off < end; n++ {
			if off+2 > end {
				return fmt.Errorf("bucket %d: entry at %d overruns the used bytes", k, off)
			}
			nl := int(binary.LittleEndian.Uint16(buf[off:]))
			if off+2+nl+entryTail > end {
				return fmt.Errorf("bucket %d: entry at %d overruns the used bytes", k, off)
			}
			name := string(buf[off+2 : off+2+nl])
			if log > 0 && int(refHash(name)>>(64-log)) != k {
				return fmt.Errorf("bucket %d holds %q, of bucket %d", k, name, refHash(name)>>(64-log))
			}
			if n > 0 && (refHash(name) < refHash(prev) || refHash(name) == refHash(prev) && name <= prev) {
				return fmt.Errorf("bucket %d: %q after %q", k, name, prev)
			}
			prev, off = name, off+2+nl+entryTail
		}
		if i := bytes.IndexFunc(buf[end:hi], func(r rune) bool { return r != 0 }); i >= 0 {
			return fmt.Errorf("bucket %d: slack byte at %d is not zero", k, end+i)
		}
	}
	if n != count {
		return fmt.Errorf("%d entries, the count says %d", n, count)
	}
	return nil
}

// withCount returns buf with its count word replaced.
func withCount(buf []byte, count uint64) []byte {
	out := bytes.Clone(buf)
	binary.LittleEndian.PutUint64(out[dsCountOff:], count)
	return out
}

// withFence returns buf with fence k replaced.
func withFence(buf []byte, k int, off uint32) []byte {
	out := bytes.Clone(buf)
	binary.LittleEndian.PutUint32(out[dsDataOff+4*k:], off)
	return out
}

// withUsed returns buf with the used count of the region at off replaced.
func withUsed(buf []byte, off int, used uint32) []byte {
	out := bytes.Clone(buf)
	binary.LittleEndian.PutUint32(out[off:], used)
	return out
}

// genEntries makes n entries with names of several lengths.
func genEntries(n int) []DirEntry {
	entries := make([]DirEntry, n)
	for i := range entries {
		entries[i] = DirEntry{Name: fmt.Sprintf("e%d%s", i, strings.Repeat("-", i%13)), ID: kernel.ID(i + 1), Type: kernel.ObjSegment}
	}
	return entries
}

// memEdit opens an edit on the directory bytes seg as editDir does after a
// first read that asked for first bytes; later reads are served from seg as
// the kernel serves them.
func memEdit(seg []byte, first int) *dirEdit {
	return openDirEdit(dirReader{pre: bytes.Clone(seg[:min(len(seg), first)]), whole: len(seg) < first, read: func(off, n int) ([]byte, error) {
		if off > len(seg) {
			return nil, kernel.ErrInvalid
		}
		return bytes.Clone(seg[off : off+min(n, len(seg)-off)]), nil
	}})
}

// applyEdit returns seg as editDir leaves it after d: what d's flush wrote,
// each write inside the segment and past its header, and the count the
// unlock writes.  laid says the flush laid the directory out anew.
func applyEdit(tb testing.TB, seg []byte, d *dirEdit) (out []byte, laid bool) {
	tb.Helper()
	out = bytes.Clone(seg)
	buf, err := d.flush(func(n int) error {
		out = append(out[:min(n, len(out))], make([]byte, max(n-len(out), 0))...)
		return nil
	}, func(off int, b []byte) error {
		if off < dsDataOff || off+len(b) > len(out) {
			tb.Fatalf("edit writes %d bytes at %d, in a segment of %d", len(b), off, len(out))
		}
		copy(out[off:], b)
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	binary.LittleEndian.PutUint64(out[dsCountOff:], d.count)
	return out, buf != nil
}

// FuzzDirScan feeds arbitrary bytes — what a hostile writer of a directory
// can leave in its segment — to the lookup, the ReadDir decode and the edit
// steps.  The lookup reads the bytes as the kernel serves them, a prefix and
// then what it asks for; the buffer's capacity is cut to its length, so a
// slice past the bytes that were read panics.  The lookup must find exactly
// what a linear search of the bucket the fences name finds, with at most two
// reads past the prefix, and, on a directory that passes checkDirLayout, what
// the decode lists first under each name.  There, open must keep the bytes
// (but for the header alone, which the first edit lays out), and an add, a
// remove and a bind must leave a directory that passes it and lists the
// edited entries.  Anywhere, an edit must never write the header
// and never write past the segment's end unless it resized it.
func FuzzDirScan(f *testing.F) {
	dir := encodeDirEntries([]DirEntry{
		{Name: "a", ID: 7, Type: kernel.ObjSegment},
		{Name: "", ID: 8, Type: kernel.ObjContainer},
		{Name: "a", ID: 9, Type: kernel.ObjSegment},
		{Name: "long-name", ID: 1 << 60, Type: kernel.ObjSegment},
	})
	f.Add(dir, "a")
	f.Add(dir, "missing")
	f.Add(withCount(dir, 1<<60), "long-name") // makeslice: cap out of range, once
	f.Add(withCount(dir, 1<<32), "a")         // a 160 GB allocation, once
	f.Add(withCount(dir[:dsDataOff], 1<<60), "a")
	f.Add(withCount(dir, 2), "long-name")
	f.Add(dir[:len(dir)-1], "long-name")                              // the last region cut short
	f.Add(dir[:dsDataOff+1], "a")                                     // half a fence
	f.Add(withCount(dir[:dsDataOff], 0), "a")                         // the empty directory of a header alone
	f.Add(withUsed(dir, dsDataOff+8, 0xffffffff), "a")                // used bytes past the region
	f.Add(withUsed(dir, dsDataOff+8, 3), "a")                         // used bytes inside an entry
	f.Add(withFence(dir, 0, 0xffffffff), "a")                         // a fence 0 that names no count
	f.Add(withFence(dir, 0, dsDataOff+4*(1<<20+1)), "a")              // 2²⁰ buckets, fences past the bytes
	f.Add(append(bytes.Clone(dir[:dsDataOff]), 0xff, 0xff, 'x'), "x") // fence runs past the buffer
	f.Add(dir[:dsCountOff], "a")
	f.Add([]byte{}, "")
	f.Add(withCount(dir, ^uint64(0)), "a")
	// 40 entries in 4 buckets and 200 in 16, both longer than the prefix.
	for _, n := range []int{40, 200} {
		entries := genEntries(n)
		big := encodeDirEntries(entries)
		f.Add(big, entries[n/2].Name)
		f.Add(big, "missing")
		f.Add(withFence(big, 1, dsDataOff), entries[0].Name)  // bucket 1 starts inside the table
		f.Add(withFence(big, 1, 0xffffffff), entries[1].Name) // a fence past the bytes
		f.Add(withFence(big, 2, 20), entries[2].Name)         // fences out of order
		f.Add(withFence(big, 3, uint32(len(big))), entries[2].Name)
		f.Add(withCount(big, 1<<40), entries[3].Name)
		f.Add(withCount(big, 17), entries[4].Name)
		f.Add(withCount(big, 3), entries[5].Name)
		f.Add(big[:len(big)/2], entries[6].Name)
		f.Add(withUsed(big, fenceAt(big, 1), 0), entries[7].Name)
	}
	f.Fuzz(func(t *testing.T, raw []byte, name string) {
		buf := bytes.Clone(raw)[:len(raw):len(raw)]
		entries := decodeDirEntries(buf)
		if len(entries) > 0 && len(entries) > (len(buf)-dsDataOff)/(2+entryTail) {
			t.Fatalf("decoded %d entries from %d bytes", len(entries), len(buf))
		}
		if len(buf) < dsDataOff {
			return // readDir refuses it before anything is decoded
		}
		valid := checkDirLayout(buf) == nil
		first := map[string]int{}
		for i, e := range entries {
			if _, ok := first[e.Name]; !ok {
				first[e.Name] = i
			}
		}
		check := func(name string) {
			reads := 0
			r := dirReader{pre: buf[:min(len(buf), dsPrefix)], whole: len(buf) < dsPrefix, read: func(off, n int) ([]byte, error) {
				reads++
				if off > len(buf) {
					return nil, kernel.ErrInvalid
				}
				return bytes.Clone(buf[off : off+min(n, len(buf)-off)]), nil
			}}
			got, found, err := r.find(name)
			want, ok := bucketSearch(buf, name)
			if err != nil || found != ok || got != want {
				t.Fatalf("lookup of %q = %+v, %v, %v; the bucket's linear search finds %+v, %v", name, got, found, err, want, ok)
			}
			if reads > 2 || r.extra != (reads > 0) {
				t.Fatalf("lookup of %q made %d reads past the prefix (extra %v)", name, reads, r.extra)
			}
			if i, listed := first[name]; valid && (listed != found || found && got != entries[i]) {
				t.Fatalf("lookup of %q in a valid directory = %+v, %v; decode lists it: %v", name, got, found, listed)
			}
		}
		check(name)
		for n := range first {
			check(n)
		}

		// The edit steps, after a first read of dsPrefix bytes and after one of
		// the whole segment.
		if len(name) > 0xffff {
			return // no entry can carry it
		}
		i, present := first[name]
		added := DirEntry{Name: name, ID: 42, Type: kernel.ObjContainer}
		for _, firstRead := range []int{dsPrefix, len(buf) + 1} {
			step := func(what string, edit func(d *dirEdit), model []DirEntry) {
				d := memEdit(buf, firstRead)
				if valid && d.relay && len(buf) > dsDataOff { // the header alone is laid out at its first edit
					t.Fatalf("open rewrote a valid directory")
				}
				edit(d)
				out, _ := applyEdit(t, buf, d)
				if !bytes.Equal(out[:dsCountOff], buf[:dsCountOff]) {
					t.Fatalf("%s %q wrote the sequence word", what, name)
				}
				if !valid {
					return
				}
				if err := checkDirLayout(out); err != nil {
					t.Fatalf("%s %q: %v", what, name, err)
				}
				if got, want := decodeDirEntries(out), dirOrder(model); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %q: the directory lists %v, want %v", what, name, got, want)
				}
			}
			if !present {
				step("add", func(d *dirEdit) {
					if d.has(name) && valid {
						t.Fatalf("has %q disagrees with decode", name)
					}
					d.add(added)
				}, append(entries[:len(entries):len(entries)], added))
			}
			taken := entries
			if present {
				taken = append(entries[:i:i], entries[i+1:]...)
			}
			step("take", func(d *dirEdit) {
				got, err := d.take(name)
				switch {
				case valid && present && (err != nil || got != entries[i]):
					t.Fatalf("take %q = %+v, %v; want %+v", name, got, err, entries[i])
				case valid && !present && !errors.Is(err, ErrNotExist):
					t.Fatalf("take of absent %q: %v", name, err)
				}
			}, taken)
			bound := append(entries[:len(entries):len(entries)], added)
			if present {
				bound = append([]DirEntry(nil), entries...)
				bound[i] = added
			}
			step("bind", func(d *dirEdit) {
				victim := d.bind(added)
				if valid && (present && victim != entries[i] || !present && victim.ID != kernel.NilID) {
					t.Fatalf("bind %q displaced %+v; decode lists it: %v", name, victim, present)
				}
			}, bound)
		}
	})
}

// TestDirEditStepsMatchReference runs seeded adds, removes and binds through
// the edit steps from an empty directory up past 200 entries and back, across
// every bucket boundary on the way, each step one edit of the bytes the step
// before left — after a first read of the prefix or of the whole segment.
// After each step the bytes must pass checkDirLayout and list the model's
// entries, a step that laid the directory out anew must leave the reference
// encoding of them, and a lookup of every name bound must find it.  Most
// steps must change one bucket in place, and the bucket count must rise and
// fall through rewrites.
func TestDirEditStepsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := genEntries(300)
	seg := make([]byte, dsDataOff) // as mkDirContainer makes it
	model := map[string]DirEntry{}
	rewrites, ups, downs, nb := 0, 0, 0, 0
	const steps = 3000
	for step := 0; step < steps; step++ {
		// 600 steps bind random names, new ones by add or by bind; then a
		// sweep of the pool removes every name.
		grow := step%1000 < 600
		e := pool[rng.Intn(len(pool))]
		if !grow {
			e = pool[step%len(pool)]
		}
		e.ID = kernel.ID(step + 1)
		d := memEdit(seg, []int{dsPrefix, len(seg) + 1}[step%2])
		switch _, bound := model[e.Name]; {
		case grow && !bound && rng.Intn(2) == 0:
			d.add(e)
			model[e.Name] = e
		case grow:
			d.bind(e)
			model[e.Name] = e
		case bound:
			if _, err := d.take(e.Name); err != nil {
				t.Fatalf("step %d: take %q: %v", step, e.Name, err)
			}
			delete(model, e.Name)
		}
		var laid bool
		seg, laid = applyEdit(t, seg, d)
		var entries []DirEntry
		for _, e := range model {
			entries = append(entries, e)
		}
		if err := checkDirLayout(seg); err != nil {
			t.Fatalf("step %d (%d entries): %v", step, len(entries), err)
		}
		if got, want := decodeDirEntries(seg), dirOrder(entries); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: the directory lists %v, want %v", step, got, want)
		}
		if want := encodeDirEntries(entries); laid && !bytes.Equal(seg, want) {
			t.Fatalf("step %d (%d entries): a rewrite differs from the reference encoding at %d", step, len(entries), firstDiff(seg, want))
		}
		for _, e := range entries {
			if got, ok := bucketSearch(seg, e.Name); !ok || got != e {
				t.Fatalf("step %d: lookup of %q = %+v, %v", step, e.Name, got, ok)
			}
		}
		if laid {
			rewrites++
		}
		switch b := (fenceAt(seg, 0)-dsDataOff)/fenceSize - 1; {
		case b > nb && nb > 0:
			ups++
			nb = b
		case b < nb:
			downs++
			nb = b
		default:
			nb = b
		}
	}
	t.Logf("%d rewrites in %d steps; the bucket count rose %d times and fell %d", rewrites, steps, ups, downs)
	if rewrites > steps/10 || ups < 3 || downs < 3 {
		t.Errorf("%d rewrites in %d steps, the bucket count rising %d times and falling %d; want at most %d rewrites, 3 rises and 3 falls", rewrites, steps, ups, downs, steps/10)
	}
}

// TestHostileDirectoryCount: the count word of a directory is whatever its
// last writer left there, and /tmp is world-writable.  A victim resolving
// through a directory whose count says 2⁶⁰ or 2³² entries gets the entries
// the bytes really hold, and one whose segment was cut below its header gets
// ErrInvalid — not a panic and not an allocation sized by the count.
func TestHostileDirectoryCount(t *testing.T) {
	sys := bootSys(t)
	victim, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	hostile, err := sys.NewInitProcess("mallory")
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.WriteFile("/tmp/real", []byte("r"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	tmp, err := victim.Stat("/tmp")
	if err != nil {
		t.Fatal(err)
	}
	seg, _, err := sys.dirSeg(hostile.TC, tmp.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []uint64{1 << 60, 1 << 32, ^uint64(0)} {
		if err := hostile.TC.SegmentWrite(seg, dsCountOff, binary.LittleEndian.AppendUint64(nil, count)); err != nil {
			t.Fatal(err)
		}
		if _, err := victim.Stat("/tmp/real"); err != nil {
			t.Errorf("count %#x: Stat of an entry the bytes hold: %v", count, err)
		}
		if _, err := victim.Stat("/tmp/missing"); !errors.Is(err, ErrNotExist) {
			t.Errorf("count %#x: Stat of a missing name: %v, want ErrNotExist", count, err)
		}
		if entries, err := victim.ReadDir("/tmp"); err != nil || len(entries) != 1 || entries[0].Name != "real" {
			t.Errorf("count %#x: ReadDir = %v, %v; want the one entry the bytes hold", count, entries, err)
		}
	}
	// An edit that fails writes nothing, the count word included, even where
	// the bytes it found do not check; the next edit that succeeds counts
	// what it found.
	fence0, err := victim.TC.SegmentRead(seg, dsDataOff, fenceSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range [][]byte{{0xff, 0xff, 0xff, 0xff}, fence0} {
		if err := hostile.TC.SegmentWrite(seg, dsDataOff, f); err != nil {
			t.Fatal(err)
		}
		refused := errors.New("refused")
		if err := sys.editDir(victim.TC, &victim.names, tmp.ID, func(d *dirEdit) error {
			d.has("real")
			return refused
		}); !errors.Is(err, refused) {
			t.Fatalf("an edit that fails: %v", err)
		}
		if raw, err := victim.TC.SegmentRead(seg, dsCountOff, 8); err != nil || binary.LittleEndian.Uint64(raw) != ^uint64(0) {
			t.Errorf("fence 0 % x: count word after a refused edit = %v, %v; want the %#x it found", f, raw, err, ^uint64(0))
		}
	}
	if err := victim.WriteFile("/tmp/more", []byte("m"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	if raw, err := victim.TC.SegmentRead(seg, dsCountOff, 8); err != nil || binary.LittleEndian.Uint64(raw) != 2 {
		t.Errorf("count word after the victim's create = %v, %v; want 2", raw, err)
	}
	if err := hostile.TC.SegmentResize(seg, dsCountOff); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Stat("/tmp/real"); !errors.Is(err, ErrInvalid) {
		t.Errorf("Stat through a directory cut to one word: %v, want ErrInvalid", err)
	}
	if _, err := victim.ReadDir("/tmp"); !errors.Is(err, ErrInvalid) {
		t.Errorf("ReadDir of a directory cut to one word: %v, want ErrInvalid", err)
	}
}

// TestUnlinkDirectoryChecksItsCount: Unlink learns whether a directory is
// empty from the count word of the directory it resolved, and a directory
// whose count it cannot read stays — with its subtree — where it was.
func TestUnlinkDirectoryChecksItsCount(t *testing.T) {
	sys := bootSys(t)
	alice, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := sys.NewInitProcess("bob")
	if err != nil {
		t.Fatal(err)
	}
	// bob's default label: alice can neither read nor write what carries it,
	// but /tmp, which names it, is hers to edit.
	if err := bob.Mkdir("/tmp/private", label.Label{}); err != nil {
		t.Fatal(err)
	}
	if err := bob.WriteFile("/tmp/private/f", []byte("bob's"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.ReadDir("/tmp/private"); !errors.Is(err, ErrPermission) {
		t.Fatalf("alice listing bob's directory: %v, want ErrPermission", err)
	}
	if err := alice.Unlink("/tmp/private"); !errors.Is(err, ErrPermission) {
		t.Errorf("Unlink of a non-empty directory alice cannot read: %v, want ErrPermission", err)
	}
	if data, err := bob.ReadFile("/tmp/private/f"); err != nil || string(data) != "bob's" {
		t.Errorf("bob's file after alice's Unlink = %q, %v", data, err)
	}

	if err := alice.Mkdir("/tmp/d", label.Label{}); err != nil {
		t.Fatal(err)
	}
	if err := alice.WriteFile("/tmp/d/f", []byte("f"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	before := alice.TC.SyscallsIssued()
	if err := alice.Unlink("/tmp/d"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("Unlink of a non-empty directory: %v, want ErrNotEmpty", err)
	}
	// Two names to resolve, a read each, then the one bounded read.
	if got := alice.TC.SyscallsIssued() - before; got != 2+1 {
		t.Errorf("refusing a non-empty directory issued %d kernel calls, want %d", got, 2+1)
	}
	if _, err := alice.Stat("/tmp/d/f"); err != nil {
		t.Errorf("file in the refused directory: %v", err)
	}
}

// fillDir makes dir hold n entries: n-1 written into its segment, which
// resolution reads for their names alone and so needs no objects, then a
// real file under the last name, which it returns the path of.
func fillDir(tb testing.TB, p *Process, dir string, n int) string {
	tb.Helper()
	if err := p.Mkdir(dir, label.Label{}); err != nil {
		tb.Fatal(err)
	}
	fi, err := p.Stat(dir)
	if err != nil {
		tb.Fatal(err)
	}
	seg, _, err := p.sys.dirSeg(p.TC, fi.ID)
	if err != nil {
		tb.Fatal(err)
	}
	entries := make([]DirEntry, n-1)
	for i := range entries {
		entries[i] = DirEntry{Name: fmt.Sprintf("f%05d", i), ID: kernel.ID(i + 1), Type: kernel.ObjSegment}
	}
	if err := p.sys.segWrite(p.TC, seg, 0, encodeDirEntries(entries)); err != nil {
		tb.Fatal(err)
	}
	last := fmt.Sprintf("%s/f%05d", dir, n-1)
	if err := p.WriteFile(last, nil, label.Label{}); err != nil {
		tb.Fatal(err)
	}
	return last
}

// forget empties p's name table in place, so that p's next lookup of every
// component reads its directory as a cold one does.
func forget(p *Process) {
	p.names.mu.Lock()
	if p.names.sets != nil {
		*p.names.sets = [nameSets][nameWays]nameSlot{}
	}
	p.names.mu.Unlock()
}

// TestStatAllocsIndependentOfDirectorySize is the property the cold lookup's
// gain rests on: a Stat in a directory of 1,000 or 10,000 entries allocates
// what it does in one of 10 entries, but for the bucket — at most three more
// allocations (the fences, the bucket, the sequence word read again) and at
// most 512 more bytes (the prefix past a small directory's, the fences, a
// bucket of about 16 entries, the word), by runtime.MemStats.TotalAlloc.
// Every Stat measured starts from an empty name table: a remembered binding
// would be answered from the directory's header alone.
func TestStatAllocsIndependentOfDirectorySize(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 50
	cost := func(n int) (allocs, bytes float64) {
		last := fillDir(t, p, fmt.Sprintf("/tmp/n%d", n), n)
		stat := func() {
			forget(p)
			if _, err := p.Stat(last); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(runs, stat)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			stat()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	allocs, bytes := cost(10)
	for _, n := range []int{1000, 10000} {
		a, b := cost(n)
		t.Logf("Stat in a %d-entry directory: %.0f allocations, %.0f B; in a 10-entry one: %.0f, %.0f B", n, a, b, allocs, bytes)
		if a > allocs+3 || b > bytes+512 {
			t.Errorf("Stat allocates %.0f times, %.0f B, in a %d-entry directory; %.0f times, %.0f B in a 10-entry one", a, b, n, allocs, bytes)
		}
	}
}

// BenchmarkResolve walks /tmp/<dir>/<last name> with 10, 1,000 and 10,000
// entries in the directory, with no name table.  Past the prefix a lookup
// reads first, it reads one bucket, its fences and the sequence word: what
// grows with the directory is the part of the prefix the directory fills.
// The warm cases walk with the process's table, which holds every component
// after the first walk: one read of each directory's 16-byte header.
func BenchmarkResolve(b *testing.B) {
	sys := bootSys(b)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10, 1000, 10000} {
		path := fillDir(b, p, fmt.Sprintf("/tmp/n%d", n), n)
		for _, c := range []struct {
			name string
			nt   *nameTable
		}{{fmt.Sprint(n), nil}, {fmt.Sprint(n, "-warm"), &p.names}} {
			b.Run(c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, entry, err := p.sys.resolve(p.TC, c.nt, path); err != nil || entry.Name != path[len(path)-6:] {
						b.Fatalf("resolve(%s) = %v, %v", path, entry, err)
					}
				}
			})
		}
	}
}

// editPair is one WriteFile of a new file into dir and the Unlink of it: two
// edits of dir, in the bucket the name falls in.
func editPair(tb testing.TB, p *Process, dir string) {
	path := dir + "/edited"
	if err := p.WriteFile(path, nil, label.Label{}); err != nil {
		tb.Fatal(err)
	}
	if err := p.Unlink(path); err != nil {
		tb.Fatal(err)
	}
}

// TestEditAllocsIndependentOfDirectorySize is the property the edit's gain
// rests on: a create and an unlink in a directory of 10,000 entries allocate
// at most twice the bytes they do in one of 10, by
// runtime.MemStats.TotalAlloc — an edit reads its bucket, not the directory.
func TestEditAllocsIndependentOfDirectorySize(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 50
	cost := func(n int) (allocs, bytes float64) {
		dir := fmt.Sprintf("/tmp/n%d", n)
		fillDir(t, p, dir, n)
		allocs = testing.AllocsPerRun(runs, func() { editPair(t, p, dir) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			editPair(t, p, dir)
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	allocs, bytes := cost(10)
	a, b := cost(10000)
	t.Logf("create + unlink in a 10,000-entry directory: %.0f allocations, %.0f B; in a 10-entry one: %.0f, %.0f B", a, b, allocs, bytes)
	if b > 2*bytes {
		t.Errorf("create + unlink allocate %.0f B in a 10,000-entry directory, %.0f B in a 10-entry one", b, bytes)
	}
}

// TestDirChurnKeepsItsSize: creates and unlinks of random names at a steady
// 500 entries rewrite the directory now and then, when a bucket's slack runs
// out, and never let it grow: its segment stays within 1.5 times the bytes
// of its entries, plus its header and fences, and most edits change one
// bucket in place.
func TestDirChurnKeepsItsSize(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	const dir, count, edits = "/tmp/churn", 500, 6000
	if err := p.Mkdir(dir, label.Label{}); err != nil {
		t.Fatal(err)
	}
	fi, err := p.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg, _, err := sys.dirSeg(p.TC, fi.ID)
	if err != nil {
		t.Fatal(err)
	}
	name := func(i int) string { return fmt.Sprintf("%s/c%05d", dir, i) } // 17-byte entries
	rng := rand.New(rand.NewSource(1))
	var live, free []int
	for i := 0; i < 2*count; i++ {
		free = append(free, i)
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	rewrites, length, most := 0, 0, 0
	for step := 0; step < count+edits; step++ {
		if step >= count { // unlink one, then create one
			j := rng.Intn(len(live))
			if err := p.Unlink(name(live[j])); err != nil {
				t.Fatal(err)
			}
			free = append(free, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		j := rng.Intn(len(free))
		if err := p.WriteFile(name(free[j]), nil, label.Label{}); err != nil {
			t.Fatal(err)
		}
		live = append(live, free[j])
		free[j] = free[len(free)-1]
		free = free[:len(free)-1]
		n, err := p.TC.SegmentLen(seg)
		if err != nil {
			t.Fatal(err)
		}
		if n != length && step >= count {
			rewrites++
		}
		length = n
		if step >= count {
			most = max(most, n)
		}
	}
	fences := dsDataOff + fenceSize*(1<<bucketBits(count)+1)
	t.Logf("%d rewrites in %d edits at %d entries; the segment reached %d bytes, for %d bytes of entries and %d of header and fences", rewrites, 2*edits, count, most, count*17, fences)
	if limit := 3*count*17/2 + fences; most > limit {
		t.Errorf("the segment reached %d bytes at a steady %d entries, past %d", most, count, limit)
	}
	if rewrites > edits/20 {
		t.Errorf("%d of %d edits rewrote the directory", rewrites, 2*edits)
	}
}

// BenchmarkEditDir creates and unlinks one file in /tmp/<dir> with 10, 1,000
// and 10,000 entries in the directory: each edit reads and writes the bucket
// the name falls in, so what it costs does not grow with the directory.
func BenchmarkEditDir(b *testing.B) {
	sys := bootSys(b)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10, 1000, 10000} {
		dir := fmt.Sprintf("/tmp/n%d", n)
		fillDir(b, p, dir, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				editPair(b, p, dir)
			}
		})
	}
}

// modelDir is what the model knows of one directory.
type modelDir struct {
	id      kernel.ID
	entries []DirEntry // in no particular order: dirOrder is the segment's
	// bits is log2 of the directory's bucket count when last checked; ups
	// and downs count the bucket boundaries its edits carried it across.
	bits       uint
	ups, downs int
}

func (d *modelDir) find(name string) int {
	for i := range d.entries {
		if d.entries[i].Name == name {
			return i
		}
	}
	return -1
}

// bind is the model's rename target.  It reports whether another object was
// displaced.
func (d *modelDir) bind(e DirEntry) (displaced bool) {
	if i := d.find(e.Name); i >= 0 {
		displaced, d.entries[i] = d.entries[i].ID != e.ID, e
		return displaced
	}
	d.entries = append(d.entries, e)
	return false
}

// dirModel drives a process through directory operations and holds what the
// directories under root must then contain: root and the directories directly
// in it are modelled, files live in any of them.
type dirModel struct {
	t    *testing.T
	p    *Process
	seed int64
	step int
	dirs map[string]*modelDir
	pool []string // the names the steps use
}

const modelRoot = "/tmp/model"

var modelNames = []string{"a", "b", "cc", "ddd", "e.txt", "f", strings.Repeat("g", 200), "h-h"}

// manyNames is a pool of 300 names of 4 to 73 bytes: enough for the
// directories to cross bucket boundaries and to outgrow what a lookup reads
// whole.
var manyNames = func() []string {
	names := make([]string, 300)
	for i := range names {
		names[i] = fmt.Sprintf("n%03d%s", i, strings.Repeat(".", i%70))
	}
	return names
}()

// The mixes of the model's steps, in percent: create a file, mkdir, unlink,
// rename within a directory, rename across, create through a file, GroupSync.
// A run over manyNames grows its directories for 300 steps, then shrinks them
// for 300.
var (
	modelMix  = [7]int{30, 12, 23, 15, 14, 3, 3}
	growMix   = [7]int{50, 4, 10, 12, 20, 2, 2}
	shrinkMix = [7]int{0, 0, 60, 12, 24, 2, 2}
)

func (m *dirModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("seed %d step %d: %s", m.seed, m.step, fmt.Sprintf(format, args...))
}

func (m *dirModel) expect(op string, got, want error) {
	m.t.Helper()
	if !errors.Is(got, want) {
		m.fatalf("%s = %v, want %v", op, got, want)
	}
}

func (m *dirModel) paths() []string {
	paths := make([]string, 0, len(m.dirs))
	for path := range m.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths) // so the same seed drives the same sequence
	return paths
}

func (m *dirModel) create(dir, name string, mkdir bool) {
	d, path, typ := m.dirs[dir], dir+"/"+name, kernel.ObjSegment
	var err error
	if mkdir {
		typ = kernel.ObjContainer
		err = m.p.Mkdir(path, label.Label{})
	} else if fd, cerr := m.p.Create(path, label.Label{}); cerr != nil {
		err = cerr
	} else {
		err = m.p.Close(fd)
	}
	if d.find(name) >= 0 {
		m.expect("create of the existing "+path, err, ErrExist)
		return
	}
	m.expect("create of "+path, err, nil)
	fi, err := m.p.Stat(path)
	if err != nil {
		m.fatalf("Stat(%s) after creating it: %v", path, err)
	}
	d.entries = append(d.entries, DirEntry{Name: name, ID: fi.ID, Type: typ})
	if mkdir {
		m.dirs[path] = &modelDir{id: fi.ID}
	}
}

func (m *dirModel) unlink(dir, name string) {
	d, path := m.dirs[dir], dir+"/"+name
	err := m.p.Unlink(path)
	i := d.find(name)
	switch sub := m.dirs[path]; {
	case i < 0:
		m.expect("Unlink of the missing "+path, err, ErrNotExist)
		return
	case sub != nil && len(sub.entries) > 0:
		m.expect("Unlink of the non-empty "+path, err, ErrNotEmpty)
		return
	}
	m.expect("Unlink of "+path, err, nil)
	d.entries = append(d.entries[:i], d.entries[i+1:]...)
	delete(m.dirs, path)
}

func (m *dirModel) rename(srcDir, srcName, dstDir, dstName string) {
	src, dst := m.dirs[srcDir], m.dirs[dstDir]
	srcPath, dstPath := srcDir+"/"+srcName, dstDir+"/"+dstName
	i := src.find(srcName)
	if i >= 0 && src.entries[i].Type == kernel.ObjContainer {
		dstDir, dst, dstPath = srcDir, src, srcDir+"/"+dstName // directories stay in root
	}
	if dstPath == srcDir {
		return // would replace the directory the source is in with the source
	}
	err := m.p.Rename(srcPath, dstPath)
	if i < 0 {
		m.expect("Rename of the missing "+srcPath, err, ErrNotExist)
		return
	}
	m.expect("Rename of "+srcPath+" to "+dstPath, err, nil)
	e := src.entries[i]
	e.Name = dstName
	moved := m.dirs[srcPath]
	src.entries = append(src.entries[:i], src.entries[i+1:]...)
	if displaced := dst.bind(e); displaced || moved != nil {
		delete(m.dirs, dstPath) // the victim's subtree went with it
	}
	if moved != nil {
		delete(m.dirs, srcPath)
		m.dirs[dstPath] = moved
	}
}

// check compares the directory at path with the model: its listing, in
// dirOrder; its segment's bytes, which must pass checkDirLayout — which
// checks the count — under an even sequence word; and what the names of the
// pool resolve to (with a pool of more than 16, the names bound and eight
// others).
func (m *dirModel) check(path string) {
	d := m.dirs[path]
	if b := bucketBits(uint64(len(d.entries))); b > d.bits {
		d.ups += int(b - d.bits)
		d.bits = b
	} else if b < d.bits {
		d.downs += int(d.bits - b)
		d.bits = b
	}
	entries, err := m.p.ReadDir(path)
	if want := dirOrder(d.entries); err != nil || len(entries) != len(want) || len(entries) > 0 && !reflect.DeepEqual(entries, want) {
		m.fatalf("ReadDir(%s) = %v, %v; model has %v", path, entries, err, want)
	}
	seg, _, err := m.p.sys.dirSeg(m.p.TC, d.id)
	if err != nil {
		m.fatalf("directory segment of %s: %v", path, err)
	}
	raw, err := m.p.TC.SegmentRead(seg, 0, maxSegRead)
	if err != nil {
		m.fatalf("reading the directory segment of %s: %v", path, err)
	}
	if err := checkDirLayout(raw); err != nil || raw[dsMutexOff]&1 != 0 {
		m.fatalf("segment of %s, holding %v: %v (sequence word % x)", path, d.entries, err, raw[:min(len(raw), 8)])
	}
	probe := m.pool
	if len(probe) > 16 {
		probe = nil
		for _, e := range d.entries {
			probe = append(probe, e.Name)
		}
		for i := 0; i < 8; i++ {
			probe = append(probe, m.pool[(m.step*8+i)%len(m.pool)])
		}
	}
	for _, name := range probe {
		fi, err := m.p.Stat(path + "/" + name)
		if i := d.find(name); i < 0 {
			m.expect("Stat of the absent "+path+"/"+name, err, ErrNotExist)
		} else if err != nil || fi.ID != d.entries[i].ID || fi.IsDir != (d.entries[i].Type == kernel.ObjContainer) {
			m.fatalf("Stat(%s/%s) = %+v, %v; model has %+v", path, name, fi, err, d.entries[i])
		}
	}
}

// TestDirModel runs seeded random sequences of Create, Mkdir, Unlink and
// Rename — within a directory and across, onto free and taken names, and the
// ones that must fail — over a handful of directories, and after every step
// checks each directory the step touched (every directory, every 25 steps)
// against the model.  A failure names the seed and step that reproduce it.
// The run over 300 names carries its directories across bucket boundaries,
// up and down, and fails unless the root crossed at least two each way.
func TestDirModel(t *testing.T) {
	t.Run("no store", func(t *testing.T) { dirModelRun(t, func() *System { return bootSys(t) }, modelNames) })
	t.Run("store", func(t *testing.T) {
		dirModelRun(t, func() *System {
			sys, _, _ := bootSysPersist(t)
			return sys
		}, modelNames)
	})
	t.Run("many names", func(t *testing.T) { dirModelRun(t, func() *System { return bootSys(t) }, manyNames) })
}

func dirModelRun(t *testing.T, boot func() *System, pool []string) {
	many := len(pool) > len(modelNames)
	steps := 800
	switch {
	case many && testing.Short():
		steps = 600
	case many:
		steps = 1200
	case testing.Short():
		steps = 200
	}
	for _, seed := range []int64{1, 2, 3} {
		p, err := boot().NewInitProcess("alice")
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Mkdir(modelRoot, label.Label{}); err != nil {
			t.Fatal(err)
		}
		fi, err := p.Stat(modelRoot)
		if err != nil {
			t.Fatal(err)
		}
		m := &dirModel{t: t, p: p, seed: seed, dirs: map[string]*modelDir{modelRoot: {id: fi.ID}}, pool: pool}
		rng := rand.New(rand.NewSource(seed))
		name := func() string { return pool[rng.Intn(len(pool))] }
		// bound is a name for a step that wants one bound in dir: with many
		// names, most often one that is.
		bound := func(dir string) string {
			if d := m.dirs[dir]; many && len(d.entries) > 0 && rng.Intn(5) > 0 {
				return d.entries[rng.Intn(len(d.entries))].Name
			}
			return name()
		}
		for m.step = 0; m.step < steps; m.step++ {
			paths := m.paths()
			dir := paths[rng.Intn(len(paths))]
			other := paths[rng.Intn(len(paths))]
			mix := modelMix
			if many && m.step/300%2 == 0 {
				mix = growMix
			} else if many {
				mix = shrinkMix
			}
			op, r := 0, rng.Intn(100)
			for ; r >= mix[op]; op++ {
				r -= mix[op]
			}
			if op == 1 && many && len(m.dirs) > 2 {
				op = 0 // two subdirectories at most, so each grows
			}
			switch op {
			case 0:
				m.create(dir, name(), false)
			case 1:
				m.create(modelRoot, name(), true)
			case 2:
				m.unlink(dir, bound(dir))
			case 3:
				m.rename(dir, bound(dir), dir, name())
			case 4:
				m.rename(dir, bound(dir), other, name())
			case 5:
				// A path through a file: the walk, not the edit, refuses it.
				if root := m.dirs[modelRoot]; len(root.entries) > 0 {
					if e := root.entries[rng.Intn(len(root.entries))]; e.Type != kernel.ObjContainer {
						_, err := p.Create(modelRoot+"/"+e.Name+"/x", label.Label{})
						m.expect("Create under the file "+e.Name, err, ErrNotDir)
					}
				}
			default:
				m.expect("GroupSync", p.GroupSync(), nil)
			}
			for _, path := range paths {
				if _, live := m.dirs[path]; live && (path == dir || path == other || path == modelRoot || m.step%25 == 0) {
					m.check(path)
				}
			}
		}
		if root := m.dirs[modelRoot]; many && (root.ups < 2 || root.downs < 2) {
			t.Errorf("seed %d: the root crossed %d bucket boundaries up and %d down, want at least 2 each way", seed, root.ups, root.downs)
		}
	}
}
