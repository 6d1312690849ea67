package unixlib

import (
	"encoding/binary"
	"errors"
	"strings"
	"sync"

	"histar/internal/kernel"
	"histar/internal/label"
)

// The HiStar file system (Section 5.1): files are segments, directories are
// containers with a directory segment, and permissions are plain kernel
// labels enforced by the kernel rather than by this (untrusted) library.
// Directories are given an unlimited quota and the library manages file
// segment quotas automatically via quota_move, matching the paper's "we do
// not expect users to manage quotas manually" stance.

// dirQuota is the quota assigned to directory containers.
const dirQuota = kernel.QuotaInfinite

// mkDirContainer creates a directory: a container plus its directory
// segment, with the segment's ID recorded in the container metadata.
func (sys *System) mkDirContainer(tc *kernel.ThreadCall, parent kernel.ID, name string, lbl label.Label) (kernel.ID, error) {
	dir, err := tc.ContainerCreate(parent, lbl, "dir:"+name, 0, dirQuota)
	if err != nil {
		return kernel.NilID, mapKernelErr(err)
	}
	seg, err := tc.SegmentCreate(dir, lbl, "dirseg:"+name, dsDataOff)
	if err != nil {
		return kernel.NilID, mapKernelErr(err)
	}
	sys.markPersistent(tc, kernel.CEnt{Container: dir, Object: seg})
	var md [kernel.MetadataSize]byte
	binary.LittleEndian.PutUint64(md[:8], uint64(seg))
	if err := tc.ObjectSetMetadata(kernel.Self(dir), md); err != nil {
		return kernel.NilID, mapKernelErr(err)
	}
	return dir, nil
}

// addEntry binds name in dir to the object create makes, and fails with
// ErrExist — before anything is created — when the name is taken.
func (sys *System) addEntry(tc *kernel.ThreadCall, dir kernel.ID, name string, typ kernel.ObjectType, create func() (kernel.ID, error)) (kernel.ID, error) {
	var id kernel.ID
	err := sys.editDir(tc, dir, func(d *dirEdit) error {
		if d.find(name) >= 0 {
			return ErrExist
		}
		var err error
		if id, err = create(); err == nil {
			d.add(DirEntry{Name: name, ID: id, Type: typ})
		}
		return err
	})
	return id, err
}

// mkdirIn creates a named subdirectory inside dir and records it in dir's
// directory segment.
func (sys *System) mkdirIn(tc *kernel.ThreadCall, dir kernel.ID, name string, lbl label.Label) (kernel.ID, error) {
	return sys.addEntry(tc, dir, name, kernel.ObjContainer, func() (kernel.ID, error) {
		return sys.mkDirContainer(tc, dir, name, lbl)
	})
}

// createFileIn creates a file segment named name inside dir with the given
// label.
func (sys *System) createFileIn(tc *kernel.ThreadCall, dir kernel.ID, name string, lbl label.Label) (kernel.ID, error) {
	return sys.addEntry(tc, dir, name, kernel.ObjSegment, func() (kernel.ID, error) {
		file, err := tc.SegmentCreate(dir, lbl, "file:"+truncName(name), 0)
		if err != nil {
			return kernel.NilID, mapKernelErr(err)
		}
		sys.markPersistent(tc, kernel.CEnt{Container: dir, Object: file})
		return file, nil
	})
}

// markPersistent asks the kernel, where a file's or directory's segment was
// just created, to page it to the store from now on: the whole of what the
// library says about persistence besides fsync.  A creator that cannot modify
// what it made (a label allocated above its own) could not have written it
// either, so the refusal is dropped and the segment stays unpaged.
func (sys *System) markPersistent(tc *kernel.ThreadCall, seg kernel.CEnt) {
	if sys.evictCache != nil {
		_ = tc.SegmentPersist(seg)
	}
}

func truncName(s string) string {
	if len(s) > 20 {
		return s[:20]
	}
	return s
}

// lookupEntry finds name in a snapshot of dir's bytes, where it lies: what it
// allocates does not depend on how many entries the directory holds.
func (sys *System) lookupEntry(tc *kernel.ThreadCall, r *kernel.Ring, dir kernel.ID, name string) (DirEntry, error) {
	buf, err := sys.readDir(tc, r, dir)
	if err != nil {
		return DirEntry{}, err
	}
	at, _, _ := scanDir(buf, name, false)
	if at < 0 {
		return DirEntry{}, ErrNotExist
	}
	return entryOf(buf, at, name), nil
}

// removeEntry removes a name binding from a directory (the object itself is
// unreferenced by the caller).
func (sys *System) removeEntry(tc *kernel.ThreadCall, dir kernel.ID, name string) error {
	return sys.editDir(tc, dir, func(d *dirEdit) error {
		_, err := d.take(name)
		return err
	})
}

// bindEntry is the edit step that binds e.Name to e's object, replacing —
// and dropping from dir — whatever else held the name (Unix rename
// semantics; what the store held for the victim dies with its last link, in
// the kernel).  e's object must already be linked in dir.
func (sys *System) bindEntry(tc *kernel.ThreadCall, dir kernel.ID, d *dirEdit, e DirEntry) {
	if victim := d.bind(e); victim != kernel.NilID && victim != e.ID {
		_ = tc.Unref(dir, victim)
	}
}

// resolve walks an absolute or cwd-relative path to its final component.  It
// returns the containing directory, the final component's name, and — if the
// path names an existing entry — that entry.  The mounts table, when
// non-nil, overlays mounted containers on path prefixes (Section 5.1's
// per-process mount table, in the style of Plan 9).
func (sys *System) resolve(tc *kernel.ThreadCall, rootDir kernel.ID, path string, mounts *MountTable) (dir kernel.ID, leaf string, entry *DirEntry, err error) {
	cur, rest := rootDir, cleanPath(path)
	if mounts != nil && rest != "/" { // longest-prefix mount match
		if target, remainder, ok := mounts.match(rest); ok {
			cur, rest = target, remainder
		}
	}
	if rest = strings.Trim(rest, "/"); rest == "" {
		return cur, ".", &DirEntry{Name: ".", ID: cur, Type: kernel.ObjContainer}, nil
	}
	// cleanPath left no empty or "." component: every part names an entry.
	r := tc.NewRing() // one for the walk: each lookup's batch reuses its queues
	for {
		var more bool
		leaf, rest, more = strings.Cut(rest, "/")
		e, err := sys.lookupEntry(tc, r, cur, leaf)
		switch {
		case !more && errors.Is(err, ErrNotExist):
			return cur, leaf, nil, nil
		case err != nil:
			return kernel.NilID, "", nil, err
		case !more:
			found := e // only the leaf's entry escapes
			return cur, leaf, &found, nil
		case e.Type != kernel.ObjContainer:
			return kernel.NilID, "", nil, ErrNotDir
		}
		cur = e.ID
	}
}

func cleanPath(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	// Collapse duplicate slashes; no ".." support (the library resolves
	// parents through container_get_parent where needed).
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

// MountTable maps path prefixes onto containers, like Plan 9 namespaces: a
// process may copy and modify its table, for example at user login or to
// select which network stack /netd refers to (Section 6.3).  Tables are safe
// for concurrent use: path resolution takes the read lock, so concurrent
// lookups through a shared table never serialize on each other.
type MountTable struct {
	mu      sync.RWMutex
	entries map[string]kernel.ID
}

// NewMountTable returns an empty mount table.
func NewMountTable() *MountTable {
	return &MountTable{entries: make(map[string]kernel.ID)}
}

// Clone returns a copy of the table (used across fork).
func (m *MountTable) Clone() *MountTable {
	n := NewMountTable()
	m.mu.RLock()
	defer m.mu.RUnlock()
	for k, v := range m.entries {
		n.entries[k] = v
	}
	return n
}

// Mount overlays container id on path prefix.
func (m *MountTable) Mount(prefix string, id kernel.ID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries[cleanPath(prefix)] = id
}

// Unmount removes an overlay.
func (m *MountTable) Unmount(prefix string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.entries, cleanPath(prefix))
}

// Lookup returns the container mounted exactly at prefix.
func (m *MountTable) Lookup(prefix string) (kernel.ID, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	id, ok := m.entries[cleanPath(prefix)]
	return id, ok
}

// match finds the longest mount prefix of path and returns the mounted
// container and the remaining path.
func (m *MountTable) match(path string) (kernel.ID, string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	best := ""
	var bestID kernel.ID
	for prefix, id := range m.entries {
		if path == prefix || strings.HasPrefix(path, prefix+"/") {
			if len(prefix) > len(best) {
				best = prefix
				bestID = id
			}
		}
	}
	if best == "" {
		return kernel.NilID, "", false
	}
	return bestID, strings.TrimPrefix(path, best), true
}

// withQuota is the library's automatic quota management: it runs op, and
// when op fails for want of quota it moves in enough for the segment to be n
// bytes long (with room to grow) through quota_move and runs op again.
func (sys *System) withQuota(tc *kernel.ThreadCall, seg kernel.CEnt, n int, op func() error) error {
	err := op()
	if errors.Is(err, kernel.ErrQuota) {
		if qerr := tc.QuotaMove(seg.Container, seg.Object, int64(n)*2+64*1024); qerr != nil {
			return mapKernelErr(qerr)
		}
		err = op()
	}
	return mapKernelErr(err)
}

// segWrite writes data to a segment, growing its quota when necessary.
func (sys *System) segWrite(tc *kernel.ThreadCall, seg kernel.CEnt, off int, data []byte) error {
	return sys.withQuota(tc, seg, off+len(data), func() error { return tc.SegmentWrite(seg, off, data) })
}

// segResize resizes a segment, growing its quota when necessary.
func (sys *System) segResize(tc *kernel.ThreadCall, seg kernel.CEnt, n int) error {
	return sys.withQuota(tc, seg, n, func() error { return tc.SegmentResize(seg, n) })
}
