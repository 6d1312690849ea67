package unixlib

import (
	"encoding/binary"
	"errors"
	"math"

	"histar/internal/kernel"
)

// Directory segments (Section 5.1): each directory container holds a special
// segment mapping file names to object IDs.  Directory operations are
// synchronized with a mutex word in the segment (built on the kernel futex).
// The paper's readers, which read mapped memory that a writer changes under
// them, also check a generation number and a busy flag before and after each
// read; here a reader's read is one system call made under the segment's
// lock, so the mutex word alone tells it whether an edit is under way.
//
// Layout of a directory segment:
//
//	offset  0: mutex word (futex; 0 = unlocked, 1 = locked)
//	offset  8: entry count
//	offset 16: entries — {u16 name length, name bytes, u64 object ID, u8 type}
//
// Entries are read and changed where they lie.  The count word is whatever the
// directory's last writer left, so it bounds a walk and never sizes an
// allocation, and a walk also ends at the first entry that overruns the bytes.
//
// The edit protocol, which editDir is the only code to run:
//
//  1. lock: compare-and-swap the mutex word 0 → 1, sleeping on its futex while
//     someone else holds it — a thread that cannot write the directory fails
//     here;
//  2. one read of the whole segment: the header words and the entries;
//  3. resize to the entries' new length, then ONE write of the entry bytes
//     that changed — an add's new entry at the tail, the entries after a
//     removed one over it, the nine ID and type bytes of a name bound again —
//     under the held mutex and the OLD count;
//  4. unlock with ONE write of both header words — mutex 0, the new count — so
//     no reader sees a released mutex beside a count its entries do not
//     match, then wake every waiter: readers and writers sleep on the same
//     word, so waking one could wake a reader and strand a writer.  An edit
//     that changed nothing releases with the count it found.
//
// A reader (readDir) keeps a read of the whole segment only if the mutex word
// in it is 0, and otherwise sleeps on the futex until the unlock.  So a writer
// halted mid-edit, or one that sets the word and leaves, stops readers as it
// stops writers: trusted code must read no directory less trusted code writes.
//
// A directory segment is persistent (markPersistent, at creation), so the
// kernel carries every edit to the store at the next sync: nothing here does.
const (
	dsMutexOff = 0
	dsCountOff = 8
	dsDataOff  = 16
	entryTail  = 9 // after an entry's name: u64 object ID, u8 type
)

// DirEntry is one name binding in a directory.
type DirEntry struct {
	Name string
	ID   kernel.ID
	Type kernel.ObjectType
}

// entryAt bounds the entry encoded at off ≤ len(buf): its name is
// buf[off+2:nameEnd], and ok is false when buf ends before the entry does.
func entryAt(buf []byte, off int) (nameEnd int, ok bool) {
	if len(buf)-off < 2 {
		return 0, false
	}
	nameEnd = off + 2 + int(binary.LittleEndian.Uint16(buf[off:]))
	return nameEnd, len(buf)-nameEnd >= entryTail
}

// entryOf decodes what the entry at at, whose name is name, binds it to.
func entryOf(buf []byte, at int, name string) DirEntry {
	t := buf[at+2+len(name):]
	return DirEntry{Name: name, ID: kernel.ID(binary.LittleEndian.Uint64(t)), Type: kernel.ObjectType(t[8])}
}

// scanDir walks buf's entries — as many as its count word says, fewer if the
// bytes end first — comparing each name with name where it lies.  It returns
// the offset of the first entry so named or -1, the offset at which the
// entries end and how many there are; with whole unset it stops at the match.
func scanDir(buf []byte, name string, whole bool) (at, end int, n uint64) {
	at, end = -1, dsDataOff
	if len(buf) < dsDataOff {
		return
	}
	for count := binary.LittleEndian.Uint64(buf[dsCountOff:]); n < count; n++ {
		nameEnd, ok := entryAt(buf, end)
		if !ok {
			break
		}
		if at < 0 && string(buf[end+2:nameEnd]) == name {
			if at = end; !whole {
				break
			}
		}
		end = nameEnd + entryTail
	}
	return
}

// decodeDirEntries lists the entries scanDir walks.
func decodeDirEntries(buf []byte) []DirEntry {
	_, end, n := scanDir(buf, "", true)
	out := make([]DirEntry, 0, n)
	for off := dsDataOff; off < end; {
		nameEnd, _ := entryAt(buf, off)
		out = append(out, entryOf(buf, off, string(buf[off+2:nameEnd])))
		off = nameEnd + entryTail
	}
	return out
}

// dirEdit is a directory's bytes as editDir read them under the mutex,
// changed where they lie: buf[lo:hi], cut at len(buf), is what to write back.
type dirEdit struct {
	buf    []byte
	lo, hi int
}

// touch records a change: buf[lo:hi] no longer matches the segment, and the
// directory now holds count entries.
func (d *dirEdit) touch(lo, hi int, count uint64) {
	if d.hi == 0 { // nothing touched yet
		d.lo = lo
	}
	d.lo, d.hi = min(d.lo, lo), max(d.hi, hi)
	binary.LittleEndian.PutUint64(d.buf[dsCountOff:], count)
}

func (d *dirEdit) count() uint64 { return binary.LittleEndian.Uint64(d.buf[dsCountOff:]) }

// find returns the offset of name's entry, or -1, and leaves buf ending with
// its entries and counting exactly those, as a decode and re-encode would.
func (d *dirEdit) find(name string) int {
	at, end, n := scanDir(d.buf, name, true)
	d.buf = d.buf[:end]
	binary.LittleEndian.PutUint64(d.buf[dsCountOff:], n)
	return at
}

// add appends an entry for a name find did not find.
func (d *dirEdit) add(e DirEntry) {
	end := len(d.buf)
	d.buf = binary.LittleEndian.AppendUint16(d.buf, uint16(len(e.Name)))
	d.buf = append(d.buf, e.Name...)
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(e.ID))
	d.buf = append(d.buf, byte(e.Type))
	d.touch(end, len(d.buf), d.count()+1)
}

// take removes name's entry and returns what it was bound to.
func (d *dirEdit) take(name string) (DirEntry, error) {
	at := d.find(name)
	if at < 0 {
		return DirEntry{}, ErrNotExist
	}
	e := entryOf(d.buf, at, name)
	d.buf = append(d.buf[:at], d.buf[at+2+len(name)+entryTail:]...)
	d.touch(at, len(d.buf), d.count()-1)
	return e, nil
}

// bind binds e.Name to e's object — over the ID and type of the entry that
// holds the name, at the tail when none does — and returns the object the
// name was bound to before, NilID when it was free.
func (d *dirEdit) bind(e DirEntry) kernel.ID {
	at := d.find(e.Name)
	if at < 0 {
		d.add(e)
		return kernel.NilID
	}
	victim, t := entryOf(d.buf, at, e.Name).ID, at+2+len(e.Name)
	binary.LittleEndian.PutUint64(d.buf[t:], uint64(e.ID))
	d.buf[t+8] = byte(e.Type)
	d.touch(t, t+entryTail, d.count())
	return victim
}

// dirSegCE returns the container entry of a directory's segment, whose ID is
// stored in the directory container's metadata.  The binding is immutable
// once the directory exists, so it is served from the sharded dirSegs cache;
// only the first lookup of a directory pays the ObjectStat syscall.
func (sys *System) dirSegCE(tc *kernel.ThreadCall, dir kernel.ID) (kernel.CEnt, error) {
	shard := &sys.dirSegs[uint64(dir)%dirSegShards]
	shard.mu.RLock()
	segID, ok := shard.m[dir]
	shard.mu.RUnlock()
	if ok {
		return kernel.CEnt{Container: dir, Object: segID}, nil
	}
	st, err := tc.ObjectStat(kernel.Self(dir))
	if err != nil {
		return kernel.CEnt{}, mapKernelErr(err)
	}
	segID = kernel.ID(binary.LittleEndian.Uint64(st.Metadata[:8]))
	if segID == kernel.NilID {
		return kernel.CEnt{}, ErrNotDir
	}
	shard.mu.Lock()
	shard.m[dir] = segID
	shard.mu.Unlock()
	return kernel.CEnt{Container: dir, Object: segID}, nil
}

// editDir is the one way to change a directory: it runs the edit protocol
// above around edit, which changes the directory's bytes through the dirEdit
// it is handed.  When edit fails nothing is written and its error is
// returned; it runs with the directory mutex held, so it may create or
// unreference the objects the entries name but must not edit dir again.
func (sys *System) editDir(tc *kernel.ThreadCall, dir kernel.ID, edit func(*dirEdit) error) error {
	seg, err := sys.dirSegCE(tc, dir)
	if err != nil {
		return err
	}
	// Step 1, a user-level cmpxchg on the mapped segment: a thread that cannot
	// write it gets ErrPermission here, as the paper describes ("users that
	// cannot write a directory cannot acquire the mutex").
	for locked := false; !locked; {
		if locked, err = tc.SegmentCompareSwap(seg, dsMutexOff, 0, 1); err == nil && !locked {
			err = tc.FutexWait(seg, dsMutexOff, 1) // someone else holds it
		}
		if err != nil {
			return mapKernelErr(err)
		}
	}
	old, err := tc.SegmentRead(seg, 0, maxSegRead)
	if err != nil {
		// A thread that could take the mutex can read the segment, so the
		// segment (or the thread) has died since: there is no lock left to
		// release.
		return mapKernelErr(err)
	}
	if len(old) < dsDataOff { // cut below its header: the mutex word alone
		old = append(old, make([]byte, dsDataOff-len(old))...)
	}
	d := dirEdit{buf: old}
	count := d.count()
	if err = edit(&d); err == nil {
		if err = sys.segResize(tc, seg, len(d.buf)); err == nil {
			err = sys.segWrite(tc, seg, d.lo, d.buf[d.lo:min(d.hi, len(d.buf))])
		}
		if err == nil {
			count = d.count()
		}
	}
	var rel [dsDataOff]byte // step 4: mutex 0, count
	binary.LittleEndian.PutUint64(rel[dsCountOff:], count)
	uerr := tc.SegmentWrite(seg, 0, rel[:])
	if uerr == nil {
		_, uerr = tc.FutexWake(seg, dsMutexOff, math.MaxInt)
	}
	if err == nil {
		err = mapKernelErr(uerr)
	}
	return err
}

// maxSegRead asks a read for "the rest of the segment": SegmentRead clamps to
// the segment's length, so no separate SegmentLen call is needed.
const maxSegRead = int(^uint(0) >> 1)

// readDir returns a directory's bytes as they stand between two edits,
// without taking its mutex, which a reader may not be able to write: one read
// of the whole segment, kept when the mutex word in it is 0.  While a writer
// holds the mutex the reader sleeps on its futex — the unlock wakes every
// sleeper, and a wait on a word that has already changed returns at once —
// and then reads again.  A segment cut below its header is ErrInvalid.
func (sys *System) readDir(tc *kernel.ThreadCall, dir kernel.ID) ([]byte, error) {
	seg, err := sys.dirSegCE(tc, dir)
	if err != nil {
		return nil, err
	}
	for {
		buf, err := tc.SegmentRead(seg, 0, maxSegRead)
		if err != nil {
			return nil, mapKernelErr(err)
		}
		if len(buf) < dsDataOff {
			return nil, ErrInvalid
		}
		held := binary.LittleEndian.Uint64(buf[dsMutexOff:])
		if held == 0 {
			return buf, nil
		}
		if err := tc.FutexWait(seg, dsMutexOff, held); err != nil {
			return nil, mapKernelErr(err)
		}
	}
}

// mapKernelErr translates kernel errors into the library's errno-style
// errors, leaving nil and library errors untouched.
func mapKernelErr(err error) error {
	switch err {
	case nil:
		return nil
	case kernel.ErrLabel, kernel.ErrClearance, kernel.ErrImmutable:
		return ErrPermission
	case kernel.ErrNoSuchObject, kernel.ErrNotFound:
		return ErrNotExist
	case kernel.ErrInvalid:
		return ErrInvalid
	default:
		// Storage-corruption errors arrive wrapped with object detail.
		if errors.Is(err, kernel.ErrCorrupt) {
			return ErrIO
		}
		return err
	}
}
