package unixlib

import (
	"encoding/binary"
	"time"

	"histar/internal/kernel"
	"histar/internal/label"
)

// Per-process file API: the POSIX-ish calls uClibc would make, implemented
// on the fs helpers and the process's descriptor table.

// DefaultFileLabel returns the label new files get for this process: the
// owning user's {ur3, uw0, 1} when running as a user, otherwise {1}, in both
// cases joined with the thread's current taint — a tainted process can only
// create objects at least as tainted as itself.
func (p *Process) DefaultFileLabel() label.Label {
	l := label.New(label.L1)
	if p.User != nil {
		l = l.With(p.User.Ur, label.L3).With(p.User.Uw, label.L0)
	}
	return p.withThreadTaint(l)
}

// withThreadTaint raises l to cover every category in which the calling
// thread is currently tainted at level 2 or 3.
func (p *Process) withThreadTaint(l label.Label) label.Label {
	cur, err := p.TC.SelfLabel()
	if err != nil {
		return l
	}
	for _, c := range cur.Explicit() {
		if lv := cur.Get(c); lv >= label.L2 && l.Get(c) < lv {
			l = l.With(c, lv)
		}
	}
	return l
}

// lookup resolves path — relative to the working directory — to the
// directory holding its last component, that component's name and, when the
// name is bound, its entry.
func (p *Process) lookup(path string) (dir kernel.ID, leaf string, entry *DirEntry, err error) {
	return p.sys.resolve(p.TC, p.abs(path))
}

// existing is lookup for a path that must name something.
func (p *Process) existing(path string) (kernel.ID, DirEntry, error) {
	dir, _, entry, err := p.lookup(path)
	if err == nil && entry == nil {
		err = ErrNotExist
	}
	if err != nil {
		return kernel.NilID, DirEntry{}, err
	}
	return dir, *entry, nil
}

// Create creates a file with the given label and opens it for reading and
// writing.  Pass the zero label to use the process default.
func (p *Process) Create(path string, lbl label.Label) (int, error) {
	if lbl.IsZero() {
		lbl = p.DefaultFileLabel()
	}
	dir, leaf, entry, err := p.lookup(path)
	if err != nil {
		return -1, err
	}
	if entry != nil {
		return -1, ErrExist
	}
	file, err := p.sys.createFileIn(p.TC, dir, leaf, lbl)
	if err != nil {
		return -1, err
	}
	return p.openEntry(dir, DirEntry{Name: leaf, ID: file, Type: kernel.ObjSegment}, ORead|OWrite)
}

// Open opens an existing file or directory.
func (p *Process) Open(path string, flags uint64) (int, error) {
	dir, entry, err := p.existing(path)
	if err != nil {
		return -1, err
	}
	if flags == 0 {
		flags = ORead
	}
	return p.openEntry(dir, entry, flags)
}

func (p *Process) openEntry(dir kernel.ID, entry DirEntry, flags uint64) (int, error) {
	fdSeg, err := p.newFDSegment(flags)
	if err != nil {
		return -1, err
	}
	fd := &FD{Seg: fdSeg}
	if entry.Type != kernel.ObjContainer {
		fd.File = kernel.CEnt{Container: dir, Object: entry.ID}
	}
	return p.allocFD(fd), nil
}

// Close closes a descriptor.
func (p *Process) Close(num int) error {
	fd, err := p.getFD(num)
	if err != nil {
		return err
	}
	p.fdMu.Lock()
	delete(p.fds, num)
	p.fdMu.Unlock()
	if fd.Pipe != nil {
		return p.closePipeEnd(fd)
	}
	// Drop the descriptor segment; the object disappears when every process
	// holding it open has closed and unreferenced it.
	_ = p.TC.Unref(fd.Seg.Container, fd.Seg.Object)
	return nil
}

// file returns the file segment a descriptor does positional I/O on.
func (fd *FD) file() (kernel.CEnt, error) {
	switch {
	case fd.Pipe != nil:
		return kernel.CEnt{}, ErrInvalid // no offsets in a pipe, as for Seek
	case fd.File.Object == kernel.NilID:
		return kernel.CEnt{}, ErrIsDir
	}
	return fd.File, nil
}

// syncTarget returns what fsync of a descriptor syncs: its file segment, or
// for a directory the zero CEnt, which syncFiles turns into a checkpoint.  A
// pipe or socket has nothing to make durable, as in fsync(2).
func (fd *FD) syncTarget() (kernel.CEnt, error) {
	if fd.Pipe != nil || fd.Socket != nil {
		return kernel.CEnt{}, ErrInvalid
	}
	return fd.File, nil
}

// readAt is the one body that reads a file's bytes: up to n bytes at off.
// The kernel pages the whole segment in first (Section 7.1), and a home
// extent the store finds damaged comes back as ErrIO.
func (p *Process) readAt(file kernel.CEnt, off int64, n int) ([]byte, error) {
	data, err := p.TC.SegmentRead(file, int(off), n)
	return data, mapKernelErr(err)
}

// writeAt is the one body that writes a file's bytes: the write itself
// (growing the quota when it must) and the modification time.
func (p *Process) writeAt(file kernel.CEnt, off int64, data []byte) error {
	if err := p.sys.segWrite(p.TC, file, int(off), data); err != nil {
		return err
	}
	p.touchMtime(file)
	return nil
}

// Read reads from the descriptor at its current seek position.  The
// descriptor's shared seek lock makes the read-position update atomic even
// when related processes share the descriptor across fork.
func (p *Process) Read(num int, buf []byte) (int, error) {
	fd, err := p.getFD(num)
	if err != nil {
		return 0, err
	}
	if fd.Pipe != nil {
		return p.pipeRead(fd.Pipe, buf)
	}
	file, err := fd.file()
	if err != nil {
		return 0, err
	}
	fd.seekMu.Lock()
	defer fd.seekMu.Unlock()
	pos, err := p.fdSeek(fd)
	if err != nil {
		return 0, err
	}
	data, err := p.readAt(file, pos, len(buf))
	if err != nil {
		return 0, err
	}
	copy(buf, data)
	return len(data), p.fdSetSeek(fd, pos+int64(len(data)))
}

// Pread reads at an explicit offset without moving the seek position.
func (p *Process) Pread(num int, buf []byte, off int64) (int, error) {
	fd, err := p.getFD(num)
	if err != nil {
		return 0, err
	}
	file, err := fd.file()
	if err != nil {
		return 0, err
	}
	data, err := p.readAt(file, off, len(buf))
	return copy(buf, data), err
}

// Write writes at the descriptor's current seek position (or the end, with
// OAppend).
func (p *Process) Write(num int, data []byte) (int, error) {
	fd, err := p.getFD(num)
	if err != nil {
		return 0, err
	}
	if fd.Pipe != nil {
		return p.pipeWrite(fd.Pipe, data)
	}
	file, err := fd.file()
	if err != nil {
		return 0, err
	}
	fd.seekMu.Lock()
	defer fd.seekMu.Unlock()
	flags, err := p.fdFlags(fd)
	if err != nil {
		return 0, err
	}
	var pos int64
	if flags&OAppend != 0 {
		n, err := p.TC.SegmentLen(file)
		if err != nil {
			return 0, mapKernelErr(err)
		}
		pos = int64(n)
	} else {
		pos, err = p.fdSeek(fd)
		if err != nil {
			return 0, err
		}
	}
	if err := p.writeAt(file, pos, data); err != nil {
		return 0, err
	}
	return len(data), p.fdSetSeek(fd, pos+int64(len(data)))
}

// Pwrite writes at an explicit offset without moving the seek position.
func (p *Process) Pwrite(num int, data []byte, off int64) (int, error) {
	fd, err := p.getFD(num)
	if err != nil {
		return 0, err
	}
	file, err := fd.file()
	if err != nil {
		return 0, err
	}
	if err := p.writeAt(file, off, data); err != nil {
		return 0, err
	}
	return len(data), nil
}

// Whence values for Seek.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Seek repositions the descriptor.
func (p *Process) Seek(num int, off int64, whence int) (int64, error) {
	fd, err := p.getFD(num)
	if err != nil {
		return 0, err
	}
	if fd.File.Object == kernel.NilID && fd.Pipe != nil {
		return 0, ErrInvalid
	}
	fd.seekMu.Lock()
	defer fd.seekMu.Unlock()
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base, err = p.fdSeek(fd)
		if err != nil {
			return 0, err
		}
	case SeekEnd:
		n, lerr := p.TC.SegmentLen(fd.File)
		if lerr != nil {
			return 0, mapKernelErr(lerr)
		}
		base = int64(n)
	default:
		return 0, ErrInvalid
	}
	pos := base + off
	if pos < 0 {
		return 0, ErrInvalid
	}
	if err := p.fdSetSeek(fd, pos); err != nil {
		return 0, err
	}
	return pos, nil
}

// FileInfo is the result of Stat.
type FileInfo struct {
	Name  string
	Size  int64
	IsDir bool
	Label label.Label
	Mtime time.Duration
	ID    kernel.ID
}

// Stat returns metadata about a path.
func (p *Process) Stat(path string) (FileInfo, error) {
	dir, entry, err := p.existing(path)
	if err != nil {
		return FileInfo{}, err
	}
	fi := FileInfo{Name: entry.Name, ID: entry.ID, IsDir: entry.Type == kernel.ObjContainer}
	var ce kernel.CEnt
	if fi.IsDir {
		ce = kernel.Self(entry.ID)
	} else {
		ce = kernel.CEnt{Container: dir, Object: entry.ID}
		n, err := p.TC.SegmentLen(ce)
		if err == nil {
			fi.Size = int64(n)
		}
	}
	st, err := p.TC.ObjectStat(ce)
	if err != nil {
		return fi, mapKernelErr(err)
	}
	fi.Label = st.Label
	fi.Mtime = time.Duration(binary.LittleEndian.Uint64(st.Metadata[8:16]))
	return fi, nil
}

// touchMtime stores a modification timestamp in the object metadata.
func (p *Process) touchMtime(ce kernel.CEnt) {
	st, err := p.TC.ObjectStat(ce)
	if err != nil {
		return
	}
	md := st.Metadata
	binary.LittleEndian.PutUint64(md[8:16], uint64(time.Now().UnixNano()))
	_ = p.TC.ObjectSetMetadata(ce, md)
}

// Mkdir creates a directory with the given label (zero label = process
// default).
func (p *Process) Mkdir(path string, lbl label.Label) error {
	if lbl.IsZero() {
		lbl = p.DefaultFileLabel()
	}
	dir, leaf, entry, err := p.lookup(path)
	if err != nil {
		return err
	}
	if entry != nil {
		return ErrExist
	}
	_, err = p.sys.mkdirIn(p.TC, dir, leaf, lbl)
	return err
}

// ReadDir lists a directory.
func (p *Process) ReadDir(path string) ([]DirEntry, error) {
	_, entry, err := p.existing(path)
	if err != nil {
		return nil, err
	}
	if entry.Type != kernel.ObjContainer {
		return nil, ErrNotDir
	}
	seg, _, err := p.sys.dirSeg(p.TC, entry.ID)
	if err != nil {
		return nil, err
	}
	buf, err := readDir(p.TC, seg, maxSegRead)
	return decodeDirEntries(buf), err
}

// Unlink removes a file or (empty) directory.
func (p *Process) Unlink(path string) error {
	dir, entry, err := p.existing(path)
	if err != nil {
		return err
	}
	if entry.Type == kernel.ObjContainer {
		// The count word of the directory just resolved says whether it is
		// empty; one whose count cannot be read is not removed on a guess.
		seg, _, err := p.sys.dirSeg(p.TC, entry.ID)
		if err != nil {
			return err
		}
		count, err := p.TC.SegmentRead(seg, dsCountOff, 8)
		if err != nil {
			return mapKernelErr(err)
		}
		if len(count) < 8 || binary.LittleEndian.Uint64(count) != 0 {
			return ErrNotEmpty
		}
	}
	if err := p.sys.removeEntry(p.TC, dir, entry.Name); err != nil {
		return err
	}
	if entry.Type == kernel.ObjContainer {
		p.sys.forgetDir(entry.ID)
	}
	return mapKernelErr(p.TC.Unref(dir, entry.ID))
}

// Rename renames a file within a directory, or moves it between directories,
// replacing whatever held the new name.  The within-directory case is one
// directory edit, so it is atomic under the directory mutex (Section 5.1's
// atomic rename example).
func (p *Process) Rename(oldPath, newPath string) error {
	oldDir, oldEntry, err := p.existing(oldPath)
	if err != nil {
		return err
	}
	newDir, newLeaf, _, err := p.lookup(newPath)
	if err != nil {
		return err
	}
	if oldDir == newDir {
		return p.sys.editDir(p.TC, oldDir, func(d *dirEdit) error {
			src, err := d.take(oldEntry.Name)
			if err == nil {
				src.Name = newLeaf
				p.sys.bindEntry(p.TC, oldDir, d, src)
			}
			return err
		})
	}
	// Cross-directory: link into the new directory and bind the name there,
	// then remove the old name and the old link.  The object must have a
	// fixed quota to be multiply linked.
	ce := kernel.CEnt{Container: oldDir, Object: oldEntry.ID}
	_ = p.TC.ObjectSetFixedQuota(ce)
	if err := p.TC.Link(newDir, ce); err != nil && err != kernel.ErrExists {
		return mapKernelErr(err)
	}
	err = p.sys.editDir(p.TC, newDir, func(d *dirEdit) error {
		p.sys.bindEntry(p.TC, newDir, d, DirEntry{Name: newLeaf, ID: oldEntry.ID, Type: oldEntry.Type})
		return nil
	})
	if err != nil {
		return err
	}
	if err := p.sys.removeEntry(p.TC, oldDir, oldEntry.Name); err != nil {
		return err
	}
	_ = p.TC.Unref(oldDir, oldEntry.ID)
	return nil
}

// ReadFile reads a whole file.  Like FsyncPath it opens no descriptor: a
// descriptor exists to share a seek position, and a one-shot read shares
// nothing.  The kernel checks the file's label at the read itself.
func (p *Process) ReadFile(path string) ([]byte, error) {
	dir, entry, err := p.existing(path)
	if err != nil {
		return nil, err
	}
	if entry.Type == kernel.ObjContainer {
		return nil, ErrIsDir
	}
	return p.readAt(kernel.CEnt{Container: dir, Object: entry.ID}, 0, maxSegRead)
}

// WriteFile creates a file (with lbl, or the process default for the zero
// label) or truncates an existing one, and writes data to it, opening no
// descriptor.  The kernel checks the file's label at the truncation, so a
// refused overwrite changes nothing.
func (p *Process) WriteFile(path string, data []byte, lbl label.Label) error {
	dir, leaf, entry, err := p.lookup(path)
	if err == nil && entry == nil {
		if lbl.IsZero() {
			lbl = p.DefaultFileLabel()
		}
		var file kernel.ID
		if file, err = p.sys.createFileIn(p.TC, dir, leaf, lbl); err == nil {
			return p.writeAt(kernel.CEnt{Container: dir, Object: file}, 0, data)
		}
		if err == ErrExist { // a racer bound the name after the lookup: overwrite its file
			var bound DirEntry
			dir, bound, err = p.existing(path)
			entry = &bound
		}
	}
	switch {
	case err != nil:
		return err
	case entry.Type == kernel.ObjContainer:
		return ErrIsDir
	}
	file := kernel.CEnt{Container: dir, Object: entry.ID}
	if err := p.sys.segResize(p.TC, file, 0); err != nil {
		return err
	}
	return p.writeAt(file, 0, data)
}

// Fsync makes a file durable: the file's segment is synchronously appended
// to the single-level store's write-ahead log (a directory: see syncFiles).
func (p *Process) Fsync(num int) error {
	fd, err := p.getFD(num)
	if err != nil {
		return err
	}
	target, err := fd.syncTarget()
	if err != nil {
		return err
	}
	return p.syncFiles(target)
}

// FsyncPath is Fsync by path.
func (p *Process) FsyncPath(path string) error {
	dir, entry, err := p.existing(path)
	if err != nil {
		return err
	}
	target := kernel.CEnt{Container: dir, Object: entry.ID}
	if entry.Type == kernel.ObjContainer {
		target = kernel.CEnt{} // no file segment, as in a directory's descriptor
	}
	return p.syncFiles(target)
}

// GroupSync checkpoints the entire system state once — the new consistency
// choice the single-level store makes possible (Section 7.1): the
// application either runs to completion or appears never to have started.
func (p *Process) GroupSync() error {
	return p.syncFiles(kernel.CEnt{})
}
