package unixlib

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"histar/internal/disk"
	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/store"
)

// TestDirEditSyscallBudget pins what the directory calls cost in kernel
// calls, so a re-read or re-write of a word the caller already holds fails
// here rather than in a benchmark.  One directory edit of a small directory,
// which its first read holds whole, is 5 calls while its bucket's slack holds
// the change — the first read, compare-and-swap, the write of the bucket, the
// one-write unlock that carries the count, wake — plus what the edit
// creates; resolving one path component in it is one read of the
// directory's segment, opening a descriptor is 3, and asking for the default
// label is 1.  With a store the edit itself costs the same (the kernel
// carries the directory segment to the store, at the next sync); what is
// added is the one call that marks a new file's or directory's segment
// persistent.  A directory of 60 entries is still one read; in one of 1,000
// an edit is 6 calls, the first read holding the header and the fences but
// not the bucket, and resolving a component at most 4: the first read, the
// fences when it does not hold them, the bucket, the sequence word again.
// A component the process's name table remembers is one call too, whatever
// the directory's size: a read of the directory's 16-byte header.
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
		edit    = 5
		resolve = 3 // "/", "tmp", "a" or "b": one read each
		openFD  = 3 // the thread's label, descriptor segment create + write
		deflt   = 1 // the thread's label, for the default file label
		write   = 3 // the bytes, the modification time's stat and set
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
		{"ReadFile", resolve + 1, func() error { // + one whole-segment read
			_, err := p.ReadFile("/tmp/a/f")
			return err
		}},
		{"WriteFile new", deflt + resolve + edit + 1 + persist + write, func() error { // + the file segment
			return p.WriteFile("/tmp/a/n", []byte("new"), label.Label{})
		}},
		{"WriteFile existing", resolve + 1 + write, func() error { // + the truncation
			return p.WriteFile("/tmp/a/n", []byte("over"), label.Label{})
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

	// A warm re-resolution: /tmp/a/n was resolved above, and every edit of
	// /tmp/a since was this process's own, which moved the slot to the word
	// the edit released with, so each component is one read of its
	// directory's 16-byte header.  A kernel read returns a fresh copy of what
	// it read and the walk allocates nothing else, so the bytes it allocates
	// are the bytes it read.
	warm := func() {
		if _, _, e, err := p.lookup("/tmp/a/n"); err != nil || e.Name != "n" {
			t.Fatalf("lookup(/tmp/a/n) = %v, %v", e, err)
		}
	}
	before := p.TC.SyscallsIssued()
	warm()
	if got := p.TC.SyscallsIssued() - before; got != resolve {
		t.Errorf("a warm re-resolution of /tmp/a/n issued %d kernel calls, want %d", got, resolve)
	}
	const runs = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		warm()
	}
	runtime.ReadMemStats(&m1)
	if bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs; bytes != resolve*dsDataOff {
		t.Errorf("a warm re-resolution of /tmp/a/n read %d bytes, want %d", bytes, resolve*dsDataOff)
	}
	if allocs := testing.AllocsPerRun(runs, warm); allocs != resolve {
		t.Errorf("a warm re-resolution of /tmp/a/n allocated %.0f times, want %d: one read a component", allocs, resolve)
	}

	// Resolving every name of a directory, and one not bound: the calls the
	// last component cost, by count.
	resolveAll := func(dir string, n int) map[uint64]int {
		hist := map[uint64]int{}
		for i := 0; i <= n; i++ {
			path := fmt.Sprintf("%s/f%05d", dir, i)
			before := p.TC.SyscallsIssued()
			_, _, entry, err := p.lookup(path)
			if err != nil || (entry.Name != "") != (i < n) {
				t.Fatalf("lookup(%s) = %v, %v", path, entry, err)
			}
			hist[p.TC.SyscallsIssued()-before-2]++ // "tmp" and the directory: one read each
		}
		return hist
	}
	// 60 entries, 1 KiB: the last edit saw the directory shorter than dsWhole,
	// so a lookup reads it whole, in one call.
	fillDir(t, p, "/tmp/mid", 60)
	if hist := resolveAll("/tmp/mid", 60); hist[1] != 61 {
		t.Errorf("kernel calls per component resolved in a 60-entry directory: %v, want 1 each", hist)
	}
	fillDir(t, p, "/tmp/big", 1000)
	big, err := p.Stat("/tmp/big")
	if err != nil {
		t.Fatal(err)
	}
	hist := resolveAll("/tmp/big", 1000)
	if hist[1]+hist[2]+hist[3]+hist[4] != 1001 {
		t.Errorf("kernel calls per component resolved in a 1,000-entry directory: %v, want 1 to 4 each", hist)
	}
	t.Logf("kernel calls per component resolved in a 1,000-entry directory: %v", hist)
	before = p.TC.SyscallsIssued()
	if err := sys.editDir(p.TC, &p.names, big.ID, func(d *dirEdit) error {
		d.add(DirEntry{Name: "added", ID: 1, Type: kernel.ObjSegment})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := p.TC.SyscallsIssued() - before; got != edit+1 { // + the bucket
		t.Errorf("an edit of a 1,000-entry directory issued %d kernel calls, want %d", got, edit+1)
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
	seg, _, err := sys.dirSeg(p.TC, fi.ID)
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

// TestReadDirConsistentDuringEdits exercises the mutex word as a reader's
// only check: a reader that may read a directory but not write it (so it
// cannot take the mutex) lists it while the owner creates and unlinks,
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

// TestReadDirWaitsForHeldWriter: a reader that finds a writer holding the
// directory's mutex sleeps until the unlock, however long the writer takes,
// and then lists the state the edit left — never the bytes it read while the
// writer held the directory.  A second writer queued behind the same mutex
// must finish too: readers and writers sleep on one futex word, so an unlock
// that woke only one sleeper could wake the reader and strand the writer.
func TestReadDirWaitsForHeldWriter(t *testing.T) {
	sys := bootSys(t)
	var procs [3]*Process // the owner, a second process of hers, a reader
	for i, user := range []string{"alice", "alice", "bob"} {
		p, err := sys.NewInitProcess(user)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	owner, second, reader := procs[0], procs[1], procs[2]
	// World-readable, writable only with alice's uw: bob may only observe it.
	if err := owner.Mkdir("/tmp/shared", label.New(label.L1, label.P(owner.User.Uw, label.L0))); err != nil {
		t.Fatal(err)
	}
	if err := owner.WriteFile("/tmp/shared/a", nil, label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	dir, err := owner.Stat("/tmp/shared")
	if err != nil {
		t.Fatal(err)
	}
	// A listing reads names only, so the added entries need no objects.
	add := func(p *Process, name string, during func()) <-chan error {
		done := make(chan error, 1)
		go func() {
			done <- sys.editDir(p.TC, &p.names, dir.ID, func(d *dirEdit) error {
				during()
				d.add(DirEntry{Name: name, ID: kernel.ID(len(name)), Type: kernel.ObjSegment})
				return nil
			})
		}()
		return done
	}
	names := func(entries []DirEntry) (out []string) { // in name order: a listing's is by hash
		for _, e := range entries {
			out = append(out, e.Name)
		}
		sort.Strings(out)
		return out
	}
	held, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	defer free() // also when the reader fails: the writer must not outlive the test
	first := add(owner, "b", func() { close(held); <-release })
	<-held

	type listing struct {
		entries []DirEntry
		err     error
	}
	listed := make(chan listing, 1)
	go func() {
		entries, err := reader.ReadDir("/tmp/shared")
		listed <- listing{entries, err}
	}()
	select {
	case l := <-listed:
		t.Fatalf("ReadDir returned %v (%v) while a writer held the directory", names(l.entries), l.err)
	case <-time.After(300 * time.Millisecond):
	}
	// The queued writer's read finds the word odd and it enters the futex
	// wait: two calls, after the reader's.
	calls := second.TC.SyscallsIssued()
	queued := add(second, "c", func() {})
	for deadline := time.Now().Add(10 * time.Second); second.TC.SyscallsIssued() < calls+2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	free()

	wait := func(what string, ch <-chan error) {
		t.Helper()
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never finished after the unlock", what)
		}
	}
	wait("the writer that held the mutex", first)
	wait("the writer queued behind it", queued)
	select {
	case l := <-listed:
		got := fmt.Sprint(names(l.entries))
		if l.err != nil || got != "[a b]" && got != "[a b c]" {
			t.Errorf("ReadDir after the unlock = %s, %v; want the edit's state [a b], or [a b c] when the queued writer went first", got, l.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the reader never finished after the unlock")
	}
}

// TestLookupConsistentDuringRehash: a reader that may read a directory but
// not write it resolves two names while the owner's edits carry the
// directory across bucket boundaries and back — from one bucket, read whole,
// to eight buckets read one at a time past the length a lookup reads whole —
// so entries move within their buckets under the lookup's reads, and fences
// and buckets move whenever a bucket's slack runs out and the directory is
// laid out anew.  A name bound before the edits began and never touched must
// never be missed, and a name never bound must never be found.
func TestLookupConsistentDuringRehash(t *testing.T) {
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
	if err := owner.Mkdir("/tmp/shared", label.New(label.L1, label.P(owner.User.Uw, label.L0))); err != nil {
		t.Fatal(err)
	}
	if err := owner.WriteFile("/tmp/shared/stays", nil, label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	stays, err := owner.Stat("/tmp/shared/stays")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Create("/tmp/shared/intruder", label.New(label.L1)); !errors.Is(err, ErrPermission) {
		t.Fatalf("reader creating in the directory: %v, want ErrPermission", err)
	}
	// 80 names of 42 bytes: past 16 entries the directory has two buckets,
	// past 32 four and past 64 eight, and from 38 on it is longer than a
	// lookup reads whole.  Each round binds them all and removes them all.
	const rounds, names = 12, 80
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	defer wg.Wait() // nobody must outlive the test
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < rounds*2*names && !t.Failed(); i++ {
			path := fmt.Sprintf("/tmp/shared/toggled-name-%04d-%s", i%names, strings.Repeat("x", 24))
			var err error
			if i/names%2 == 0 {
				err = owner.WriteFile(path, nil, label.New(label.L1))
			} else {
				err = owner.Unlink(path)
			}
			if err != nil {
				t.Errorf("edit %d (%s): %v", i, path, err)
				return
			}
		}
	}()
	lookups := 0
	for ; !done.Load() && !t.Failed(); lookups++ {
		if fi, err := reader.Stat("/tmp/shared/stays"); err != nil || fi.ID != stays.ID {
			t.Fatalf("lookup %d of the name that stays = %v, %v; want object %v", lookups, fi.ID, err, stays.ID)
		}
		if fi, err := reader.Stat("/tmp/shared/never"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("lookup %d of a name never bound = %v, %v; want ErrNotExist", lookups, fi.ID, err)
		}
	}
	t.Logf("%d lookups of each name against %d edits", lookups, rounds*2*names)
}

// TestDirSegCacheForgetsRemovedDirectories: the cache of directory-segment
// bindings drops a directory's binding when Unlink removes it, or a rename
// replaces it, so making and removing directories leaves it no larger.
func TestDirSegCacheForgetsRemovedDirectories(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	cached := func() (n int) {
		for i := range sys.dirSegs {
			s := &sys.dirSegs[i]
			s.mu.RLock()
			n += len(s.m)
			s.mu.RUnlock()
		}
		return n
	}
	if _, err := p.ReadDir("/tmp"); err != nil {
		t.Fatal(err)
	}
	before := cached()
	for i := 0; i < 1000; i++ {
		if err := p.Mkdir("/tmp/d", label.Label{}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ReadDir("/tmp/d"); err != nil { // caches its binding
			t.Fatal(err)
		}
		if err := p.Unlink("/tmp/d"); err != nil {
			t.Fatal(err)
		}
	}
	if got := cached(); got != before {
		t.Errorf("%d cached directory bindings after 1,000 Mkdir/Unlink cycles, %d before", got, before)
	}
	for _, d := range []string{"/tmp/a", "/tmp/b"} {
		if err := p.Mkdir(d, label.Label{}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ReadDir(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Rename("/tmp/a", "/tmp/b"); err != nil { // replaces the directory b named
		t.Fatal(err)
	}
	if err := p.Unlink("/tmp/b"); err != nil {
		t.Fatal(err)
	}
	if got := cached(); got != before {
		t.Errorf("%d cached directory bindings after a rename replaced a directory and an Unlink removed the other, %d before", got, before)
	}
}
