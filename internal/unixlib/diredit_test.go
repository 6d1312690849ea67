package unixlib

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"histar/internal/disk"
	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/store"
)

// TestDirEditSyscallBudget pins what the directory calls cost in kernel
// calls, so a re-read or re-write of a word the caller already holds fails
// here rather than in a benchmark.  One directory edit is 7 calls —
// compare-and-swap, busy, read, resize, the write of the bytes that changed,
// the one-write unlock that carries the count, wake — plus what the edit
// creates; resolving one path component is one ring batch
// of three reads (4 calls), opening a descriptor is 3, and asking for the
// default label is 1.  With a store the edit itself costs the same 7 (the
// kernel carries the directory segment to the store, at the next sync); what
// is added is the one call that marks a new file's or directory's segment
// persistent.
func TestDirEditSyscallBudget(t *testing.T) {
	t.Run("no store", func(t *testing.T) { dirEditSyscallBudget(t, bootSys(t), 0) })
	t.Run("store", func(t *testing.T) {
		sys, _, _ := bootSysPersist(t)
		dirEditSyscallBudget(t, sys, 1)
	})
}

func dirEditSyscallBudget(t *testing.T, sys *System, persist uint64) {
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	// Warm /tmp/a and /tmp/b: their directory segments are in the dirSegs
	// cache, so no call below pays the one-time ObjectStat.
	for _, d := range []string{"/tmp/a", "/tmp/b"} {
		if err := p.Mkdir(d, label.Label{}); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteFile(d+"/warm", []byte("w"), label.Label{}); err != nil {
			t.Fatal(err)
		}
	}
	const (
		edit    = 7
		resolve = 3 * 4 // "/", "tmp", "a" or "b": one 3-read ring batch each
		openFD  = 3     // the thread's label, descriptor segment create + write
		deflt   = 1     // the thread's label, for the default file label
	)
	var fd int
	for _, c := range []struct {
		name string
		want uint64
		call func() error
	}{
		{"Create", deflt + resolve + edit + 1 + persist + openFD, func() (err error) { // + the file segment
			fd, err = p.Create("/tmp/a/f", label.Label{})
			return err
		}},
		{"Close", 1, func() error { return p.Close(fd) }},
		{"ReadFile", resolve + openFD + 1 + 1, func() error { // + one whole-segment read, close
			_, err := p.ReadFile("/tmp/a/f")
			return err
		}},
		{"Rename same directory", 2*resolve + edit, func() error { return p.Rename("/tmp/a/f", "/tmp/a/g") }},
		// + fixed quota, link; a second edit for the old name; unref.
		{"Rename across directories", 2*resolve + 2 + edit + edit + 1, func() error { return p.Rename("/tmp/a/g", "/tmp/b/g") }},
		{"Unlink", resolve + edit + 1, func() error { return p.Unlink("/tmp/b/g") }}, // + unref
		// + container, directory segment, metadata.
		{"Mkdir", deflt + resolve + edit + 3 + persist, func() error { return p.Mkdir("/tmp/a/d", label.Label{}) }},
		// + the new directory's segment ID (its first use), its count word; unref.
		{"Unlink empty directory", resolve + 2 + edit + 1, func() error { return p.Unlink("/tmp/a/d") }},
	} {
		before := p.TC.SyscallsIssued()
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := p.TC.SyscallsIssued() - before; got != c.want {
			t.Errorf("%s issued %d kernel calls, want %d", c.name, got, c.want)
		}
	}
}

// TestRenameAcrossDirectoriesReplacesTarget: a rename onto an existing name
// in another directory replaces that binding and drops the object that held
// it, as the same-directory rename always did.
func TestRenameAcrossDirectoriesReplacesTarget(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"/tmp/a", "/tmp/b"} {
		if err := p.Mkdir(d, label.Label{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WriteFile("/tmp/a/x", []byte("new"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/tmp/b/x", []byte("old"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	victim, err := p.Stat("/tmp/b/x")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.GroupSync(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(uint64(victim.ID)); err != nil {
		t.Fatalf("victim not in the store before the rename: %v", err)
	}
	objects := sys.Kern.ObjectCount()

	if err := p.Rename("/tmp/a/x", "/tmp/b/x"); err != nil {
		t.Fatal(err)
	}
	entries, err := p.ReadDir("/tmp/b")
	if err != nil || len(entries) != 1 || entries[0].Name != "x" {
		t.Errorf("entries in /tmp/b = %v, %v; want one entry named x", entries, err)
	}
	if data, err := p.ReadFile("/tmp/b/x"); err != nil || string(data) != "new" {
		t.Errorf("ReadFile(/tmp/b/x) = %q, %v; want \"new\"", data, err)
	}
	if entries, err := p.ReadDir("/tmp/a"); err != nil || len(entries) != 0 {
		t.Errorf("entries left in /tmp/a = %v, %v", entries, err)
	}
	if got := sys.Kern.ObjectCount(); got != objects-1 {
		t.Errorf("kernel objects %d → %d, want the victim gone (%d)", objects, got, objects-1)
	}
	if _, err := st.Get(uint64(victim.ID)); !errors.Is(err, store.ErrNoSuchObject) {
		t.Errorf("victim's store object after the rename: %v, want ErrNoSuchObject", err)
	}
}

// TestUnlinkDirectoryDeletesItsStoreObject: what the store holds for a
// directory is its directory segment, so that — not the container's ID — is
// what unlinking the directory must delete, or the object stays live for
// ever and comes back after every crash.
func TestUnlinkDirectoryDeletesItsStoreObject(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	// /tmp's own directory segment reaches the store first, so that it is
	// already counted in live.
	if err := p.WriteFile("/tmp/warm", []byte("w"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	if err := p.GroupSync(); err != nil {
		t.Fatal(err)
	}
	live := st.Stats().LiveObjects
	if err := p.Mkdir("/tmp/d", label.Label{}); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/tmp/d/f", []byte("f"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Unlink("/tmp/d/f"); err != nil {
		t.Fatal(err)
	}
	fi, err := p.Stat("/tmp/d")
	if err != nil {
		t.Fatal(err)
	}
	seg, err := sys.dirSegCE(p.TC, fi.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.GroupSync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().LiveObjects; got != live+1 {
		t.Fatalf("live store objects with /tmp/d = %d, want %d", got, live+1)
	}
	if err := p.Unlink("/tmp/d"); err != nil {
		t.Fatal(err)
	}
	if err := p.GroupSync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().LiveObjects; got != live {
		t.Errorf("live store objects after Unlink = %d, want %d as before the Mkdir", got, live)
	}
	d := st.Disk().(*disk.Disk)
	d.Crash()
	st2, err := store.Open(d, store.Options{LogSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Get(uint64(seg.Object)); !errors.Is(err, store.ErrNoSuchObject) {
		t.Errorf("directory segment %d after crash and reopen: %v, want ErrNoSuchObject", seg.Object, err)
	}
}

// TestReadDirConsistentDuringEdits exercises the generation protocol under
// the one-write unlock: a reader that may read a directory but not write it
// (so it cannot take the mutex) lists it while the owner creates and unlinks,
// and every listing must be a state the directory really was in while the
// listing ran — distinct names from the expected set, exactly as many as
// that state held, never a torn mix of two states.  A second reader resolves
// names all the while: one bound before the edits began and never touched,
// whose entry every removal ahead of it moves, must never be missed, and one
// never bound must never be found.
func TestReadDirConsistentDuringEdits(t *testing.T) {
	sys := bootSys(t)
	owner, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	reader, err := sys.NewInitProcess("bob")
	if err != nil {
		t.Fatal(err)
	}
	// World-readable, writable only with alice's uw.
	dirLbl := label.New(label.L1, label.P(owner.User.Uw, label.L0))
	if err := owner.Mkdir("/tmp/shared", dirLbl); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Create("/tmp/shared/intruder", label.New(label.L1)); !errors.Is(err, ErrPermission) {
		t.Fatalf("reader creating in the directory: %v, want ErrPermission", err)
	}

	// Edit i toggles name (5i mod 8); names have different lengths, so the
	// segment grows and shrinks under the reader.  states[k] is the set of
	// names present after k edits, as a bitmask.
	const edits, names = 2000, 8
	name := func(n int) string { return fmt.Sprintf("f%0*d", n+1, n) }
	index := make(map[string]int, names)
	for n := 0; n < names; n++ {
		index[name(n)] = n
	}
	// The first four names exist from the start, ahead of the name that stays.
	states := make([]uint8, edits+1)
	states[0] = 0b1111
	for n := 0; n < 4; n++ {
		if err := owner.WriteFile("/tmp/shared/"+name(n), nil, label.New(label.L1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := owner.WriteFile("/tmp/shared/stays", nil, label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	stays, err := owner.Stat("/tmp/shared/stays")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < edits; i++ {
		states[i+1] = states[i] ^ 1<<((i*5)%names)
	}
	// The directory is in state k for some started ≥ k ≥ finished.
	var started, finished atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	defer wg.Wait() // also when a listing fails: nobody must outlive the test
	resolver, err := sys.NewInitProcess("carol")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer wg.Done()
		lookups := 0
		for ; finished.Load() < edits && !t.Failed(); lookups++ {
			if fi, err := resolver.Stat("/tmp/shared/stays"); err != nil || fi.ID != stays.ID {
				t.Errorf("lookup %d of the name that stays = %v, %v; want object %v", lookups, fi.ID, err, stays.ID)
				return
			}
			if fi, err := resolver.Stat("/tmp/shared/never"); !errors.Is(err, ErrNotExist) {
				t.Errorf("lookup %d of a name never bound = %v, %v; want ErrNotExist", lookups, fi.ID, err)
				return
			}
		}
		t.Logf("%d lookups of each name", lookups)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < edits; i++ {
			n := (i * 5) % names
			path := "/tmp/shared/" + name(n)
			started.Store(int64(i + 1))
			var err error
			if states[i]&(1<<n) != 0 {
				err = owner.Unlink(path)
			} else {
				var fd int
				if fd, err = owner.Create(path, label.New(label.L1)); err == nil {
					err = owner.Close(fd)
				}
			}
			if err != nil {
				t.Errorf("edit %d (%s): %v", i, path, err)
				return
			}
			finished.Store(int64(i + 1))
		}
	}()
	listings := 0
	for done := false; !done; listings++ {
		lo := finished.Load()
		done = lo == edits // then this is one last listing of the quiet directory
		entries, err := reader.ReadDir("/tmp/shared")
		hi := started.Load()
		if err != nil {
			t.Fatalf("listing %d: %v", listings, err)
		}
		var got uint8
		stayed := 0
		for _, e := range entries {
			if e == (DirEntry{Name: "stays", ID: stays.ID, Type: kernel.ObjSegment}) {
				stayed++
				continue
			}
			n, ok := index[e.Name]
			if !ok || got&(1<<n) != 0 {
				t.Fatalf("listing %d: unexpected or repeated name %q in %v", listings, e.Name, entries)
			}
			got |= 1 << n
		}
		if stayed != 1 {
			t.Fatalf("listing %d binds the name that stays %d times: %v", listings, stayed, entries)
		}
		match := false
		for k := lo; k <= hi && !match; k++ {
			match = states[k] == got
		}
		if !match {
			t.Fatalf("listing %d = %v (%08b) is no state of the directory between edits %d and %d", listings, entries, got, lo, hi)
		}
		if t.Failed() {
			break // the owner gave up
		}
	}
	t.Logf("%d listings against %d edits", listings, edits)
}
