package unixlib

// Whole-file calls: ReadFile and WriteFile open no descriptor, so what they
// must keep is what a descriptor never decided — the kernel's label checks at
// the file segment, the directory's one binding per name — and what they must
// not leave is a descriptor or an object.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"histar/internal/kernel"
	"histar/internal/label"
)

// TestWholeFileOnDirectory: a whole-file call on a directory is EISDIR and
// leaves the directory as it was.
func TestWholeFileOnDirectory(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Mkdir("/tmp/d", label.Label{}); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/tmp/d/f", []byte("inside"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	before, err := p.ReadDir("/tmp/d")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/tmp/d", "/tmp/d/", "/"} {
		if _, err := p.ReadFile(path); !errors.Is(err, ErrIsDir) {
			t.Errorf("ReadFile(%q) = %v, want ErrIsDir", path, err)
		}
		if err := p.WriteFile(path, []byte("over"), label.Label{}); !errors.Is(err, ErrIsDir) {
			t.Errorf("WriteFile(%q) = %v, want ErrIsDir", path, err)
		}
	}
	if fi, err := p.Stat("/tmp/d"); err != nil || !fi.IsDir {
		t.Fatalf("Stat(/tmp/d) = %+v, %v; want a directory", fi, err)
	}
	after, err := p.ReadDir("/tmp/d")
	if err != nil || fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("ReadDir(/tmp/d) = %v, %v; want %v", after, err, before)
	}
	if data, err := p.ReadFile("/tmp/d/f"); err != nil || string(data) != "inside" {
		t.Errorf("ReadFile(/tmp/d/f) = %q, %v", data, err)
	}
}

// TestWholeFileLeavesNoDescriptor: a thousand create, read, overwrite, read
// and unlink cycles leave no descriptor in the table, no entry in the process
// container and no object in the kernel.
func TestWholeFileLeavesNoDescriptor(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/tmp/kept", []byte("warm"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	procEntries := func() int {
		ids, err := p.TC.ContainerList(kernel.Self(p.ProcCt))
		if err != nil {
			t.Fatal(err)
		}
		return len(ids)
	}
	entries, objects := procEntries(), sys.Kern.ObjectCount()
	for i := 0; i < 1000; i++ {
		data := []byte(fmt.Sprintf("cycle %d", i))
		for _, path := range []string{"/tmp/kept", "/tmp/fresh"} {
			if err := p.WriteFile(path, data, label.Label{}); err != nil {
				t.Fatalf("cycle %d: WriteFile(%s): %v", i, path, err)
			}
			if got, err := p.ReadFile(path); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("cycle %d: ReadFile(%s) = %q, %v", i, path, got, err)
			}
		}
		if err := p.Unlink("/tmp/fresh"); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if fds := p.FDTable(); len(fds) != 0 {
		t.Errorf("descriptors left open: %v", fds)
	}
	if got := procEntries(); got != entries {
		t.Errorf("process container holds %d entries, %d before", got, entries)
	}
	if got := sys.Kern.ObjectCount(); got != objects {
		t.Errorf("kernel holds %d objects, %d before", got, objects)
	}
}

// TestWholeFileKeepsLabelRefusals: the kernel still refuses, at the file
// segment, what the file's label forbids — a read of alice's private file, an
// overwrite of her world-readable one — and a refused overwrite truncates
// nothing.
func TestWholeFileKeepsLabelRefusals(t *testing.T) {
	sys := bootSys(t)
	alice, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := sys.NewInitProcess("bob")
	if err != nil {
		t.Fatal(err)
	}
	private := []byte("alice only")
	if err := alice.WriteFile("/tmp/private", private, label.Label{}); err != nil {
		t.Fatal(err)
	}
	public := []byte("anyone may read this")
	readable := label.New(label.L1, label.P(alice.User.Uw, label.L0))
	if err := alice.WriteFile("/tmp/public", public, readable); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.ReadFile("/tmp/private"); !errors.Is(err, ErrPermission) {
		t.Errorf("bob's ReadFile of alice's private file = %v, want ErrPermission", err)
	}
	for path, want := range map[string][]byte{"/tmp/private": private, "/tmp/public": public} {
		if err := bob.WriteFile(path, []byte("x"), label.Label{}); !errors.Is(err, ErrPermission) {
			t.Errorf("bob's WriteFile over %s = %v, want ErrPermission", path, err)
		}
		if got, err := alice.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s after bob's refused overwrite = %q, %v; want %q", path, got, err, want)
		}
		if fi, err := alice.Stat(path); err != nil || fi.Size != int64(len(want)) {
			t.Errorf("Stat(%s) after bob's refused overwrite = %+v, %v; want size %d", path, fi, err, len(want))
		}
	}
	if got, err := bob.ReadFile("/tmp/public"); err != nil || !bytes.Equal(got, public) {
		t.Errorf("bob's ReadFile of the world-readable file = %q, %v", got, err)
	}
}

// TestConcurrentWriteFileSamePath races two processes' WriteFile on each of
// many new paths.  Whichever loses the race to bind the name overwrites the
// winner's file: both calls succeed, the name is bound once, and the file
// holds one payload whole (the payloads are the same length, so the last
// write covers the other).
func TestConcurrentWriteFileSamePath(t *testing.T) {
	sys := bootSys(t)
	var procs [2]*Process
	var payloads [2][]byte
	for i := range procs {
		p, err := sys.NewInitProcess(fmt.Sprintf("racer%d", i))
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
		payloads[i] = bytes.Repeat([]byte{'a' + byte(i)}, 4096)
	}
	if err := procs[0].Mkdir("/tmp/race", label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	const paths = 200
	for n := 0; n < paths; n++ {
		path := fmt.Sprintf("/tmp/race/f%d", n)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i, p := range procs {
			wg.Add(1)
			go func(i int, p *Process) {
				defer wg.Done()
				<-start
				if err := p.WriteFile(path, payloads[i], label.New(label.L1)); err != nil {
					t.Errorf("racer %d: WriteFile(%s): %v", i, path, err)
				}
			}(i, p)
		}
		close(start)
		wg.Wait()
		got, err := procs[0].ReadFile(path)
		if err != nil || !(bytes.Equal(got, payloads[0]) || bytes.Equal(got, payloads[1])) {
			t.Fatalf("%s holds %d bytes (%v), not one payload whole", path, len(got), err)
		}
	}
	entries, err := procs[0].ReadDir("/tmp/race")
	if err != nil {
		t.Fatal(err)
	}
	bound := map[string]int{}
	for _, e := range entries {
		bound[e.Name]++
	}
	for n := 0; n < paths; n++ {
		if name := fmt.Sprintf("f%d", n); bound[name] != 1 {
			t.Errorf("%s is bound %d times", name, bound[name])
		}
	}
	if len(entries) != paths {
		t.Errorf("/tmp/race holds %d entries, want %d", len(entries), paths)
	}
}

// cleanPathRef is the split-and-join rewrite cleanPath once was, kept as
// the reference its path.Clean form is checked against.
func cleanPathRef(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	var parts []string
	for _, part := range strings.Split(p, "/") {
		if part == "" || part == "." {
			continue
		}
		if part == ".." {
			if len(parts) > 0 {
				parts = parts[:len(parts)-1]
			}
			continue
		}
		parts = append(parts, part)
	}
	return "/" + strings.Join(parts, "/")
}

// TestCleanPathFastFormAgrees: cleanPath agrees with the split-and-join
// rewrite on edge cases and on random strings over {a, /, .}, and a path it
// returns comes back unchanged.
func TestCleanPathFastFormAgrees(t *testing.T) {
	cases := []string{
		"", "/", "//", "///", ".", "..", "/.", "/..", "./", "../", "a", "a/",
		"/a", "/a/", "//a", "/a//b", "/a/./b", "/a/../b", "/a/b/..", "/..a",
		"/a..", "/.a", "/a.", "/...", "/a/...", "/a/.b/c.", "a/b", "./a", "/a/b/c",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = "a/."[rng.Intn(3)]
		}
		cases = append(cases, string(b))
	}
	for _, p := range cases {
		want := cleanPathRef(p)
		if got := cleanPath(p); got != want {
			t.Fatalf("cleanPath(%q) = %q, want %q", p, got, want)
		}
		if again := cleanPath(want); again != want {
			t.Fatalf("cleanPath(%q) = %q, want it unchanged", want, again)
		}
	}
}

// TestCleanPathAllocs: a clean path costs no allocation.
func TestCleanPathAllocs(t *testing.T) {
	for _, p := range []string{"/", "/home/alice/profile", "/tmp/a.b/..c"} {
		if n := testing.AllocsPerRun(100, func() { _ = cleanPath(p) }); n != 0 {
			t.Errorf("cleanPath(%q) allocates %.0f times, want 0", p, n)
		}
	}
}
