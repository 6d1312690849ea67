package unixlib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"histar/internal/kernel"
	"histar/internal/label"
)

// seqWord reads the sequence word of the directory at path, as p sees it.
func seqWord(t *testing.T, p *Process, path string) uint64 {
	t.Helper()
	fi, err := p.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	seg, _, err := p.sys.dirSeg(p.TC, fi.ID)
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.TC.SegmentRead(seg, dsMutexOff, 8)
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(w)
}

// statID is the object path names, as p resolves it.
func statID(t *testing.T, p *Process, path string) kernel.ID {
	t.Helper()
	fi, err := p.Stat(path)
	if err != nil {
		t.Fatalf("Stat(%s): %v", path, err)
	}
	return fi.ID
}

// tableEmpty reports whether p's name table holds no slot.
func tableEmpty(p *Process) bool {
	p.names.mu.Lock()
	defer p.names.mu.Unlock()
	return p.names.sets == nil || *p.names.sets == [nameSets][nameWays]nameSlot{}
}

// namesRig boots a system whose writer has made /a/b/f, /a/b/g and /a/c/h,
// world readable and writable, and a reader whose name table holds every
// component of /a/b/f.
func namesRig(t *testing.T) (sys *System, writer, reader *Process, b kernel.ID) {
	t.Helper()
	sys = bootSys(t)
	writer, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	reader, err = sys.NewInitProcess("bob")
	if err != nil {
		t.Fatal(err)
	}
	open := label.New(label.L1)
	for _, d := range []string{"/a", "/a/b", "/a/c"} {
		if err := writer.Mkdir(d, open); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"/a/b/f", "/a/b/g", "/a/c/h"} {
		if err := writer.WriteFile(f, []byte(f), open); err != nil {
			t.Fatal(err)
		}
	}
	b = statID(t, writer, "/a/b")
	statID(t, reader, "/a/b/f")
	if _, ok := reader.names.get(b, "f"); !ok {
		t.Fatal("the reader's table does not hold /a/b/f after resolving it")
	}
	return sys, writer, reader, b
}

// TestNameTableSeesOtherProcessesEdits: a process that resolved /a/b/f
// resolves it again after another process changed /a/b, and gets what /a/b
// holds now — never the binding it remembers.  Each edit moves the
// directory's sequence word past the one the remembered binding was read
// under, so the lookup reads the directory again.
func TestNameTableSeesOtherProcessesEdits(t *testing.T) {
	t.Run("unlink", func(t *testing.T) {
		_, writer, reader, b := namesRig(t)
		if err := writer.Unlink("/a/b/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := reader.Stat("/a/b/f"); !errors.Is(err, ErrNotExist) {
			t.Errorf("Stat of the unlinked name: %v, want ErrNotExist", err)
		}
		if _, ok := reader.names.get(b, "f"); ok {
			t.Error("the table still holds a name the lookup did not find")
		}
	})
	t.Run("rename, then an edit of the reader's own", func(t *testing.T) {
		// The reader's edit locks the word the rename released with, and
		// moves only the slots read under that word: not the binding of f,
		// read under the word before.  The object stays in /a/b, so a stale
		// binding would resolve.
		_, writer, reader, _ := namesRig(t)
		f := statID(t, writer, "/a/b/f")
		if err := writer.Rename("/a/b/f", "/a/b/f2"); err != nil {
			t.Fatal(err)
		}
		if err := reader.WriteFile("/a/b/mine", nil, label.New(label.L1)); err != nil {
			t.Fatal(err)
		}
		if fi, err := reader.Stat("/a/b/f"); !errors.Is(err, ErrNotExist) {
			t.Errorf("Stat of the renamed name = %v, %v; want ErrNotExist", fi.ID, err)
		}
		if got := statID(t, reader, "/a/b/f2"); got != f {
			t.Errorf("Stat of the new name = %v, want %v", got, f)
		}
	})
	t.Run("unlink and create again", func(t *testing.T) {
		_, writer, reader, _ := namesRig(t)
		old := statID(t, writer, "/a/b/f")
		if err := writer.Unlink("/a/b/f"); err != nil {
			t.Fatal(err)
		}
		if err := writer.WriteFile("/a/b/f", []byte("again"), label.New(label.L1)); err != nil {
			t.Fatal(err)
		}
		now := statID(t, writer, "/a/b/f")
		if got := statID(t, reader, "/a/b/f"); got != now || got == old {
			t.Errorf("Stat of the name bound again = %v; want the new object %v, not %v", got, now, old)
		}
	})
	t.Run("rename over it in the directory", func(t *testing.T) {
		_, writer, reader, _ := namesRig(t)
		g := statID(t, writer, "/a/b/g")
		if err := writer.Rename("/a/b/g", "/a/b/f"); err != nil {
			t.Fatal(err)
		}
		if got := statID(t, reader, "/a/b/f"); got != g {
			t.Errorf("Stat of the name renamed over = %v, want %v", got, g)
		}
		if _, err := reader.Stat("/a/b/g"); !errors.Is(err, ErrNotExist) {
			t.Errorf("Stat of the name renamed away: %v, want ErrNotExist", err)
		}
	})
	t.Run("rename it to another directory", func(t *testing.T) {
		_, writer, reader, _ := namesRig(t)
		f := statID(t, writer, "/a/b/f")
		if err := writer.Rename("/a/b/f", "/a/c/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := reader.Stat("/a/b/f"); !errors.Is(err, ErrNotExist) {
			t.Errorf("Stat of the name moved away: %v, want ErrNotExist", err)
		}
		if got := statID(t, reader, "/a/c/f"); got != f {
			t.Errorf("Stat of the moved name = %v, want %v", got, f)
		}
	})
	t.Run("rename over it from another directory", func(t *testing.T) {
		_, writer, reader, _ := namesRig(t)
		h := statID(t, writer, "/a/c/h")
		if err := writer.Rename("/a/c/h", "/a/b/f"); err != nil {
			t.Fatal(err)
		}
		if got := statID(t, reader, "/a/b/f"); got != h {
			t.Errorf("Stat of the name renamed over = %v, want %v", got, h)
		}
	})
	t.Run("grow until the directory is laid out anew", func(t *testing.T) {
		sys, writer, reader, b := namesRig(t)
		f := statID(t, writer, "/a/b/f")
		seg, _, err := sys.dirSeg(writer.TC, b)
		if err != nil {
			t.Fatal(err)
		}
		fence0 := func() int {
			raw, err := writer.TC.SegmentRead(seg, dsDataOff, fenceSize)
			if err != nil {
				t.Fatal(err)
			}
			return le32(raw)
		}
		was := fence0()
		for i := 0; fence0() == was; i++ {
			if i == 4*bucketFill {
				t.Fatalf("%d creates never laid /a/b out anew", i)
			}
			if err := writer.WriteFile(fmt.Sprintf("/a/b/grown%03d", i), nil, label.New(label.L1)); err != nil {
				t.Fatal(err)
			}
		}
		if got := statID(t, reader, "/a/b/f"); got != f {
			t.Errorf("Stat after the rewrite = %v, want %v", got, f)
		}
		if s, ok := reader.names.get(b, "f"); !ok || s.seq != seqWord(t, writer, "/a/b") {
			t.Errorf("after the rewrite the table holds %+v, %v; want the binding read again under the word now", s, ok)
		}
		if got := statID(t, reader, "/a/b/grown000"); got != statID(t, writer, "/a/b/grown000") {
			t.Errorf("Stat of a name the growth bound = %v", got)
		}
	})
}

// TestNameTableFollowsOwnEdits: a process's own create, unlink and rename
// drop the names they touched from its table, and move the directory's other
// slots, read under the word the edit locked from, to the word it released
// with — so those still resolve with one header read each, and right, while
// the touched names are read from the directory again.
func TestNameTableFollowsOwnEdits(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"/a", "/a/b", "/a/c"} {
		if err := p.Mkdir(d, label.Label{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"/a/b/x", "/a/b/y", "/a/b/z"} {
		if err := p.WriteFile(f, []byte(f), label.Label{}); err != nil {
			t.Fatal(err)
		}
	}
	b, c := statID(t, p, "/a/b"), statID(t, p, "/a/c")
	ids := map[string]kernel.ID{}
	for _, n := range []string{"x", "y", "z"} {
		ids[n] = statID(t, p, "/a/b/"+n)
	}
	// edit runs one of p's edits of /a/b, do, after resolving every name of
	// kept and touched, and checks that the table then holds none of the
	// names the edit touched, and each of kept it held under the word the
	// edit locked from under the word it released with — which a set of the
	// table that pushed one out may make fewer than all, but not none; then
	// that each name of kept resolves, as it did, and each of gone is
	// ErrNotExist.
	edit := func(what string, do func() error, touched, kept, gone []string) {
		t.Helper()
		for _, n := range append(kept, touched...) {
			_, _ = p.Stat("/a/b/" + n)
		}
		was := seqWord(t, p, "/a/b")
		held := map[string]bool{}
		for _, n := range kept {
			s, ok := p.names.get(b, n)
			held[n] = ok && s.seq == was
		}
		if err := do(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		now := seqWord(t, p, "/a/b")
		for _, n := range touched {
			if s, ok := p.names.get(b, n); ok {
				t.Errorf("%s: the table still holds the touched name %s: %+v", what, n, s)
			}
		}
		moved := 0
		for _, n := range kept {
			if s, ok := p.names.get(b, n); held[n] && (!ok || s.seq != now || s.e.ID != ids[n]) {
				t.Errorf("%s: the table holds %+v, %v for %s; want %v under the word %d", what, s, ok, n, ids[n], now)
			} else if held[n] {
				moved++
			}
			before := p.TC.SyscallsIssued()
			if got := statID(t, p, "/a/b/"+n); got != ids[n] {
				t.Errorf("%s: Stat(/a/b/%s) = %v, want %v", what, n, got, ids[n])
			}
			// Stat is the walk's three calls, the length and the stat.
			if calls := p.TC.SyscallsIssued() - before; calls != 5 {
				t.Errorf("%s: Stat(/a/b/%s) issued %d kernel calls, want 5", what, n, calls)
			}
		}
		if moved == 0 {
			t.Errorf("%s: no slot of /a/b moved to the word the edit released with", what)
		}
		for _, n := range gone {
			if _, err := p.Stat("/a/b/" + n); !errors.Is(err, ErrNotExist) {
				t.Errorf("%s: Stat(/a/b/%s): %v, want ErrNotExist", what, n, err)
			}
		}
	}

	edit("create", func() error { return p.WriteFile("/a/b/w", nil, label.Label{}) },
		[]string{"w"}, []string{"x", "y", "z"}, nil)
	ids["w"] = statID(t, p, "/a/b/w")
	edit("unlink", func() error { return p.Unlink("/a/b/x") },
		[]string{"x"}, []string{"y", "z", "w"}, []string{"x"})
	edit("rename in the directory", func() error { return p.Rename("/a/b/y", "/a/b/v") },
		[]string{"y", "v"}, []string{"z", "w"}, []string{"y"})
	if got := statID(t, p, "/a/b/v"); got != ids["y"] {
		t.Errorf("Stat of the renamed name = %v, want %v", got, ids["y"])
	}
	ids["v"] = ids["y"]
	edit("rename over a name", func() error { return p.Rename("/a/b/v", "/a/b/w") },
		[]string{"v", "w"}, []string{"z"}, []string{"v"})
	if got := statID(t, p, "/a/b/w"); got != ids["v"] {
		t.Errorf("Stat of the name renamed over = %v, want %v", got, ids["v"])
	}
	ids["w"] = ids["v"]
	edit("rename to another directory", func() error { return p.Rename("/a/b/z", "/a/c/z") },
		[]string{"z"}, []string{"w"}, []string{"z"})
	if _, ok := p.names.get(c, "z"); ok {
		t.Error("the table holds the name the rename bound in /a/c before any lookup of it")
	}
	if got := statID(t, p, "/a/c/z"); got != ids["z"] {
		t.Errorf("Stat of the moved name = %v, want %v", got, ids["z"])
	}
}

// TestNameTableKeepsWordAfterFailedFlush: an edit whose flush fails may have
// written some of the directory before the write that failed, so the
// directory it releases at s+2 need not be the one at s but for the names it
// meant to change.  The editor's slots read under s must stay at s, and its
// next lookup of each read the directory again.  Here the flush fails at its
// resize: renaming to a name no bucket's slack holds lays the directory out
// anew, and the segment's fixed quota refuses the growth.
func TestNameTableKeepsWordAfterFailedFlush(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Mkdir("/a", label.Label{}); err != nil {
		t.Fatal(err)
	}
	a := statID(t, p, "/a")
	seg, _, err := sys.dirSeg(p.TC, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TC.ObjectSetFixedQuota(seg); err != nil {
		t.Fatal(err)
	}
	names := []string{"x", "y"}
	ids := map[string]kernel.ID{}
	for _, n := range names {
		if err := p.WriteFile("/a/"+n, nil, label.Label{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range names {
		ids[n] = statID(t, p, "/a/"+n)
	}
	was := seqWord(t, p, "/a")
	for _, n := range names {
		if s, ok := p.names.get(a, n); !ok || s.seq != was {
			t.Fatalf("before the edit the table holds %+v, %v for %s; want it under the word %d", s, ok, n, was)
		}
	}

	if err := p.Rename("/a/y", "/a/"+strings.Repeat("z", 20000)); err == nil {
		t.Fatal("a rename that outgrows the directory's fixed quota succeeded")
	}
	if now := seqWord(t, p, "/a"); now != was+2 {
		t.Fatalf("the failed edit released the word at %d, want %d", now, was+2)
	}
	for _, n := range names {
		if s, ok := p.names.get(a, n); !ok || s.seq != was {
			t.Errorf("after a failed flush the table holds %+v, %v for %s; want it under the word %d the edit locked from", s, ok, n, was)
		}
	}
	for _, n := range names {
		before := p.TC.SyscallsIssued()
		if got := statID(t, p, "/a/"+n); got != ids[n] {
			t.Errorf("Stat(/a/%s) = %v, want %v", n, got, ids[n])
		}
		// Stat is the walk's two calls, the length and the stat, and one
		// more: /a's slot, no longer current, costs the header read, then
		// the directory's first read.
		if calls := p.TC.SyscallsIssued() - before; calls != 5 {
			t.Errorf("Stat(/a/%s) after a failed flush issued %d kernel calls, want 5", n, calls)
		}
	}
}

// TestNameTableAnswersOnlyWhatTheKernelLets holds the table to the rule it
// rests on: no lookup is answered without a kernel-checked read of that
// directory's segment, made under the caller's label at that moment.  A
// process that remembers a binding in its home directory, then drops the
// ownership that let it read the directory, gets ErrPermission — not the
// binding it remembers.  The file itself is world-readable, so only the
// directory's read can refuse.  And a process knows only what it resolved itself:
// a child spawned or forked after its parent filled its table starts with an
// empty one.
func TestNameTableAnswersOnlyWhatTheKernelLets(t *testing.T) {
	sys := bootSys(t)
	started := make(chan bool, 1)
	if err := sys.RegisterProgram("/bin/names", func(p *Process, _ []string) int {
		started <- tableEmpty(p)
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/home/alice/secret", []byte("s"), label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	home := statID(t, p, "/home/alice")
	statID(t, p, "/home/alice/secret")
	if _, ok := p.names.get(home, "secret"); !ok {
		t.Fatal("the table does not hold /home/alice/secret after resolving it")
	}

	spawned, err := p.Spawn("/bin/names", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !<-started {
		t.Error("a spawned child started with its parent's bindings")
	}
	if st, err := p.Wait(spawned); err != nil || st != 0 {
		t.Errorf("wait(spawned) = %d, %v", st, err)
	}
	forked, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if !tableEmpty(forked) {
		t.Error("a forked child started with its parent's bindings")
	}
	forked.Run(func(*Process, []string) int { return 0 }, nil)
	if _, err := p.Wait(forked); err != nil {
		t.Fatal(err)
	}

	lbl, err := p.TC.SelfLabel()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TC.SelfSetLabel(lbl.Without(p.User.Ur)); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.names.get(home, "secret"); !ok {
		t.Fatal("the table lost the binding: the lookup below would not consult it")
	}
	if _, _, e, err := p.lookup("/home/alice/secret"); !errors.Is(err, ErrPermission) || e.Name != "" {
		t.Errorf("lookup after dropping ur⋆ = %+v, %v; want ErrPermission and no entry", e, err)
	}
	if _, err := p.Stat("/home/alice/secret"); !errors.Is(err, ErrPermission) {
		t.Errorf("Stat after dropping ur⋆: %v, want ErrPermission", err)
	}
	if _, err := p.ReadFile("/home/alice/secret"); !errors.Is(err, ErrPermission) {
		t.Errorf("ReadFile after dropping ur⋆: %v, want ErrPermission", err)
	}
}

// TestNameTableConcurrentLookups races one process's lookups against its own
// edits, on another goroutine, and another process's, in one directory:
// the own edits move and drop slots while lookups fill them.  A name bound
// throughout must always resolve to its object, a name never bound never
// resolve, and once the edits stop every name must resolve as the
// directory's listing says.
func TestNameTableConcurrentLookups(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.NewInitProcess("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Mkdir("/tmp/d", label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/tmp/d/stays", nil, label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	stays := statID(t, p, "/tmp/d/stays")
	const edits, names = 300, 24
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w, e := range []*Process{p, q} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < edits && !t.Failed(); i++ {
				path := fmt.Sprintf("/tmp/d/%c%02d", 'p'+w, i%names)
				err := e.WriteFile(path, nil, label.New(label.L1))
				if i/names%2 == 1 {
					err = e.Rename(path, fmt.Sprintf("/tmp/d/%c%02d", 'p'+w, (i+1)%names))
				}
				if err != nil && !errors.Is(err, ErrNotExist) {
					t.Errorf("edit %d of %s: %v", i, path, err)
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; !t.Failed(); i++ {
				select {
				case <-done:
					return
				default:
				}
				if fi, err := p.Stat("/tmp/d/stays"); err != nil || fi.ID != stays {
					t.Errorf("lookup of the name that stays = %v, %v; want %v", fi.ID, err, stays)
				}
				if _, err := p.Stat("/tmp/d/never"); !errors.Is(err, ErrNotExist) {
					t.Errorf("lookup of a name never bound: %v, want ErrNotExist", err)
				}
				_, _ = p.Stat(fmt.Sprintf("/tmp/d/%c%02d", 'p'+i%2, i%names))
			}
		}()
	}
	readers.Wait()
	wg.Wait()
	entries, err := q.ReadDir("/tmp/d")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]kernel.ID{}
	for _, e := range entries {
		listed[e.Name] = e.ID
	}
	for w := range 2 {
		for i := range names {
			name := fmt.Sprintf("%c%02d", 'p'+w, i)
			fi, err := p.Stat("/tmp/d/" + name)
			switch id, ok := listed[name]; {
			case ok && (err != nil || fi.ID != id):
				t.Errorf("after the edits %s resolves to %v, %v; the listing says %v", name, fi.ID, err, id)
			case !ok && !errors.Is(err, ErrNotExist):
				t.Errorf("after the edits %s resolves to %v, %v; the listing does not hold it", name, fi.ID, err)
			}
		}
	}
}

// TestWarmReadFileAllocs pins what a ReadFile of a 3-component path whose
// every binding the process remembers allocates: one 16-byte header read a
// component and the file's bytes.  At f3481f5, before the name table, it was
// 5 allocations and 336 B: each of the three directories read whole, and
// the leaf's entry.
func TestWarmReadFileAllocs(t *testing.T) {
	sys := bootSys(t)
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Mkdir("/tmp/a", label.Label{}); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/tmp/a/f", []byte("0123456789abcdef"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if _, err := p.ReadFile("/tmp/a/f"); err != nil {
			t.Fatal(err)
		}
	}
	read()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, read)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		read()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if allocs != 4 || bytes != 3*dsDataOff+16 {
		t.Errorf("a warm ReadFile allocates %.0f times, %.0f B; want 4 and %d", allocs, bytes, 3*dsDataOff+16)
	}
}
