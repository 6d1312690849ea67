package unixlib

import (
	"cmp"
	"encoding/binary"
	"errors"
	"path"
	"strings"

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
// ErrExist — before anything is created — when the name is taken.  nt is the
// calling process's name table, as for editDir.
func (sys *System) addEntry(tc *kernel.ThreadCall, nt *nameTable, dir kernel.ID, name string, typ kernel.ObjectType, create func() (kernel.ID, error)) (kernel.ID, error) {
	var id kernel.ID
	err := sys.editDir(tc, nt, dir, func(d *dirEdit) error {
		if d.has(name) || d.err != nil {
			return cmp.Or(d.err, ErrExist)
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
func (sys *System) mkdirIn(tc *kernel.ThreadCall, nt *nameTable, dir kernel.ID, name string, lbl label.Label) (kernel.ID, error) {
	return sys.addEntry(tc, nt, dir, name, kernel.ObjContainer, func() (kernel.ID, error) {
		return sys.mkDirContainer(tc, dir, name, lbl)
	})
}

// createFileIn creates a file segment named name inside dir with the given
// label.
func (sys *System) createFileIn(tc *kernel.ThreadCall, nt *nameTable, dir kernel.ID, name string, lbl label.Label) (kernel.ID, error) {
	return sys.addEntry(tc, nt, dir, name, kernel.ObjSegment, func() (kernel.ID, error) {
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
	if sys.persist {
		_ = tc.SegmentPersist(seg)
	}
}

func truncName(s string) string {
	if len(s) > 20 {
		return s[:20]
	}
	return s
}

// removeEntry removes a name binding from a directory (the object itself is
// unreferenced by the caller).
func (sys *System) removeEntry(tc *kernel.ThreadCall, nt *nameTable, dir kernel.ID, name string) error {
	return sys.editDir(tc, nt, dir, func(d *dirEdit) error {
		_, err := d.take(name)
		return err
	})
}

// bindEntry is the edit step that binds e.Name to e's object, replacing —
// and dropping from dir — whatever else held the name (Unix rename
// semantics; what the store held for the victim dies with its last link, in
// the kernel).  e's object must already be linked in dir.
func (sys *System) bindEntry(tc *kernel.ThreadCall, dir kernel.ID, d *dirEdit, e DirEntry) {
	if victim := d.bind(e); victim.ID != kernel.NilID && victim.ID != e.ID {
		_ = tc.Unref(dir, victim.ID)
		if victim.Type == kernel.ObjContainer {
			sys.forgetDir(victim.ID)
		}
	}
}

// resolve walks an absolute or cwd-relative path to its final component,
// through the name table nt (nil for none).  It returns the containing
// directory, the final component's name, and the entry the path names — the
// zero DirEntry, whose Name is empty, when the name is not bound.
func (sys *System) resolve(tc *kernel.ThreadCall, nt *nameTable, path string) (dir kernel.ID, leaf string, entry DirEntry, err error) {
	cur, rest := sys.RootDir, strings.Trim(cleanPath(path), "/")
	if rest == "" {
		return cur, ".", DirEntry{Name: ".", ID: cur, Type: kernel.ObjContainer}, nil
	}
	// cleanPath left no empty or "." component: every part names an entry.
	for {
		var more bool
		leaf, rest, more = strings.Cut(rest, "/")
		e, err := sys.lookupEntry(tc, nt, cur, leaf)
		switch {
		case !more && errors.Is(err, ErrNotExist):
			return cur, leaf, DirEntry{}, nil
		case err != nil:
			return kernel.NilID, "", DirEntry{}, err
		case !more:
			return cur, leaf, e, nil
		case e.Type != kernel.ObjContainer:
			return kernel.NilID, "", DirEntry{}, ErrNotDir
		}
		cur = e.ID
	}
}

// cleanPath makes p absolute and lexically clean; path.Clean returns a path
// already clean, as nearly every one the library resolves is, unallocated.
func cleanPath(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
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
