package unixlib

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"histar/internal/kernel"
	"histar/internal/label"
)

// encodeDirEntries is the reference encoder — what every edit wrote, whole,
// before edits worked on the segment's bytes in place — kept as the oracle:
// the count word and the entries of a directory with exactly these bindings.
// The mutex word is left zero, as an unlock leaves it.
func encodeDirEntries(entries []DirEntry) []byte {
	buf := make([]byte, dsDataOff)
	binary.LittleEndian.PutUint64(buf[dsCountOff:], uint64(len(entries)))
	for _, e := range entries {
		var hdr [2]byte
		binary.LittleEndian.PutUint16(hdr[:], uint16(len(e.Name)))
		buf = append(buf, hdr[:]...)
		buf = append(buf, e.Name...)
		var tail [9]byte
		binary.LittleEndian.PutUint64(tail[:8], uint64(e.ID))
		tail[8] = byte(e.Type)
		buf = append(buf, tail[:]...)
	}
	return buf
}

// withCount returns buf with its count word replaced.
func withCount(buf []byte, count uint64) []byte {
	out := bytes.Clone(buf)
	binary.LittleEndian.PutUint64(out[dsCountOff:], count)
	return out
}

// FuzzDirScan feeds arbitrary bytes — what a hostile writer of a directory
// can leave in its segment — to the in-place scan, the ReadDir decode and the
// edit steps.  The buffer's capacity is cut to its length, so a slice past the
// bytes that were read panics; the scan must find exactly the first entry the
// decode lists under each name, and an add, a remove and a bind must leave
// the bytes a decode, slice edit and re-encode would have.
func FuzzDirScan(f *testing.F) {
	dir := encodeDirEntries([]DirEntry{
		{Name: "a", ID: 7, Type: kernel.ObjSegment},
		{Name: "", ID: 8, Type: kernel.ObjContainer},
		{Name: "a", ID: 9, Type: kernel.ObjSegment},
		{Name: "long-name", ID: 1 << 60, Type: kernel.ObjSegment},
	})
	f.Add(dir, "a")
	f.Add(dir, "missing")
	f.Add(withCount(dir, 1<<60), "long-name") // makeslice: cap out of range, before
	f.Add(withCount(dir, 1<<32), "a")         // a 160 GB allocation, before
	f.Add(withCount(dir[:dsDataOff], 1<<60), "a")
	f.Add(withCount(dir, 2), "long-name")
	f.Add(dir[:len(dir)-1], "long-name")                              // last entry cut short
	f.Add(dir[:dsDataOff+1], "a")                                     // half a length word
	f.Add(append(bytes.Clone(dir[:dsDataOff]), 0xff, 0xff, 'x'), "x") // name runs past the buffer
	f.Add(dir[:dsCountOff], "a")
	f.Add([]byte{}, "")
	f.Fuzz(func(t *testing.T, raw []byte, name string) {
		buf := bytes.Clone(raw)[:len(raw):len(raw)]
		entries := decodeDirEntries(buf)
		if len(entries) > 0 && len(entries) > (len(buf)-dsDataOff)/(2+entryTail) {
			t.Fatalf("decoded %d entries from %d bytes", len(entries), len(buf))
		}
		first := map[string]int{}
		for i, e := range entries {
			if _, ok := first[e.Name]; !ok {
				first[e.Name] = i
			}
		}
		want := encodeDirEntries(entries)
		check := func(name string) {
			at, _, _ := scanDir(buf, name, false)
			whole, end, n := scanDir(buf, name, true)
			if at != whole || n != uint64(len(entries)) || end != len(want) {
				t.Fatalf("scan for %q: at %d / %d, %d entries ending at %d; decode has %d ending at %d", name, at, whole, n, end, len(entries), len(want))
			}
			i, ok := first[name]
			if ok != (at >= 0) {
				t.Fatalf("scan for %q: at %d, decode lists it: %v", name, at, ok)
			}
			if ok {
				if got := entryOf(buf, at, name); got != entries[i] {
					t.Fatalf("scan for %q found %+v, decode's first is %+v", name, got, entries[i])
				}
			}
		}
		check(name)
		for n := range first {
			check(n)
		}
		if len(entries) > 0 && !bytes.Equal(buf[dsDataOff:len(want)], want[dsDataOff:]) {
			t.Fatalf("re-encoding the decoded entries does not give back the bytes they were decoded from")
		}

		// The edit steps against decode → slice edit → re-encode.
		edit := func() *dirEdit {
			old := bytes.Clone(raw)
			if len(old) < dsDataOff {
				old = append(old, make([]byte, dsDataOff-len(old))...)
			}
			return &dirEdit{buf: old}
		}
		same := func(step string, d *dirEdit, model []DirEntry) {
			if want := encodeDirEntries(model); !bytes.Equal(d.buf[dsCountOff:], want[dsCountOff:]) {
				t.Fatalf("%s %q: bytes differ from the re-encode of %v", step, name, model)
			}
			if d.hi > d.lo && (d.lo < dsDataOff || d.lo > len(d.buf)) {
				t.Fatalf("%s %q: dirty range [%d,%d) of %d bytes", step, name, d.lo, d.hi, len(d.buf))
			}
		}
		i, present := first[name]
		added := DirEntry{Name: name, ID: 42, Type: kernel.ObjContainer}
		if len(name) > 0xffff {
			return // no entry can carry it
		}

		d := edit()
		if (d.find(name) >= 0) != present {
			t.Fatalf("find %q disagrees with decode", name)
		}
		same("find", d, entries)
		if !present {
			d.add(added)
			same("add", d, append(entries[:len(entries):len(entries)], added))
		}

		d = edit()
		got, err := d.take(name)
		if present {
			if err != nil || got != entries[i] {
				t.Fatalf("take %q = %+v, %v; want %+v", name, got, err, entries[i])
			}
			same("take", d, append(entries[:i:i], entries[i+1:]...))
		} else if !errors.Is(err, ErrNotExist) {
			t.Fatalf("take of absent %q: %v", name, err)
		}

		d = edit()
		victim := d.bind(added)
		bound := append(entries[:len(entries):len(entries)], added)
		if present {
			bound = append([]DirEntry(nil), entries...)
			bound[i] = added
		}
		if present && victim != entries[i].ID || !present && victim != kernel.NilID {
			t.Fatalf("bind %q displaced %d; decode lists it: %v", name, victim, present)
		}
		same("bind", d, bound)
	})
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
	seg, err := sys.dirSegCE(hostile.TC, tmp.ID)
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
	// The next edit counts what it found.
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

// TestStatAllocsIndependentOfDirectorySize is the property the lookup's gain
// rests on: resolving a name allocates the same in a directory of 1,000
// entries as in one of 10.
func TestStatAllocsIndependentOfDirectorySize(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		dir := fmt.Sprintf("/tmp/n%d", n)
		if err := p.Mkdir(dir, label.Label{}); err != nil {
			t.Fatal(err)
		}
		var last string
		for i := 0; i < n; i++ {
			last = fmt.Sprintf("%s/f%05d", dir, i)
			if err := p.WriteFile(last, nil, label.Label{}); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := p.Stat(last); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10), allocs(1000); small != large {
		t.Errorf("Stat allocates %.0f times in a 10-entry directory and %.0f in a 1,000-entry one", small, large)
	}
}

// BenchmarkResolve walks /tmp/<dir>/<last name> with 10, 1,000 and 10,000
// entries in the directory.  What still grows with the directory is the
// kernel's copy of the segment into the reader (B/op) and the scan over it.
func BenchmarkResolve(b *testing.B) {
	sys := bootSys(b)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10, 1000, 10000} {
		dir := fmt.Sprintf("/tmp/n%d", n)
		if err := p.Mkdir(dir, label.Label{}); err != nil {
			b.Fatal(err)
		}
		fi, err := p.Stat(dir)
		if err != nil {
			b.Fatal(err)
		}
		seg, err := sys.dirSegCE(p.TC, fi.ID)
		if err != nil {
			b.Fatal(err)
		}
		// Resolution reads names, not objects: the entries need no files.
		entries := make([]DirEntry, n)
		for i := range entries {
			entries[i] = DirEntry{Name: fmt.Sprintf("f%05d", i), ID: kernel.ID(i + 1), Type: kernel.ObjSegment}
		}
		if err := sys.segWrite(p.TC, seg, 0, encodeDirEntries(entries)); err != nil {
			b.Fatal(err)
		}
		path := dir + "/" + entries[n-1].Name
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, entry, err := p.lookup(path); err != nil || entry == nil || entry.ID != kernel.ID(n) {
					b.Fatalf("lookup(%s) = %v, %v", path, entry, err)
				}
			}
		})
	}
}

// modelDir is what the model knows of one directory.
type modelDir struct {
	id      kernel.ID
	entries []DirEntry // in the order the segment holds them
}

func (d *modelDir) find(name string) int {
	for i := range d.entries {
		if d.entries[i].Name == name {
			return i
		}
	}
	return -1
}

// bind is the model's rename target: in place when the name is taken, at the
// tail when it is not.  It reports whether another object was displaced.
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
}

const modelRoot = "/tmp/model"

var modelNames = []string{"a", "b", "cc", "ddd", "e.txt", "f", strings.Repeat("g", 200), "h-h"}

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
// order; its segment's bytes, which must be the reference encoder's for the
// model's entries under a released header — exactly {mutex 0, count}; and
// what every name of the pool resolves to.
func (m *dirModel) check(path string) {
	d := m.dirs[path]
	entries, err := m.p.ReadDir(path)
	if err != nil || len(entries) != len(d.entries) || len(entries) > 0 && !reflect.DeepEqual(entries, d.entries) {
		m.fatalf("ReadDir(%s) = %v, %v; model has %v", path, entries, err, d.entries)
	}
	seg, err := m.p.sys.dirSegCE(m.p.TC, d.id)
	if err != nil {
		m.fatalf("directory segment of %s: %v", path, err)
	}
	raw, err := m.p.TC.SegmentRead(seg, 0, maxSegRead)
	if err != nil {
		m.fatalf("reading the directory segment of %s: %v", path, err)
	}
	want := encodeDirEntries(d.entries)
	if !bytes.Equal(raw, want) {
		m.fatalf("segment of %s differs from the reference encoding of %v at byte %d (%d bytes, want %d)\n got header % x\nwant header % x",
			path, d.entries, firstDiff(raw, want), len(raw), len(want), raw[:min(len(raw), dsDataOff)], want[:dsDataOff])
	}
	for _, name := range modelNames {
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
func TestDirModel(t *testing.T) {
	t.Run("no store", func(t *testing.T) { dirModelRun(t, func() *System { return bootSys(t) }) })
	t.Run("store", func(t *testing.T) {
		dirModelRun(t, func() *System {
			sys, _, _ := bootSysPersist(t)
			return sys
		})
	})
}

func dirModelRun(t *testing.T, boot func() *System) {
	steps := 800
	if testing.Short() {
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
		m := &dirModel{t: t, p: p, seed: seed, dirs: map[string]*modelDir{modelRoot: {id: fi.ID}}}
		rng := rand.New(rand.NewSource(seed))
		name := func() string { return modelNames[rng.Intn(len(modelNames))] }
		for m.step = 0; m.step < steps; m.step++ {
			paths := m.paths()
			dir := paths[rng.Intn(len(paths))]
			other := paths[rng.Intn(len(paths))]
			switch op := rng.Intn(100); {
			case op < 30:
				m.create(dir, name(), false)
			case op < 42:
				m.create(modelRoot, name(), true)
			case op < 65:
				m.unlink(dir, name())
			case op < 80:
				m.rename(dir, name(), dir, name())
			case op < 94:
				m.rename(dir, name(), other, name())
			case op < 97:
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
	}
}
