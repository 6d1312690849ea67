package unixlib

import (
	"encoding/binary"
	"errors"
	"runtime"

	"histar/internal/kernel"
)

// Directory segments (Section 5.1): each directory container holds a special
// segment mapping file names to object IDs.  Directory operations are
// synchronized with a mutex word in the segment (built on the kernel futex),
// and readers that cannot write the directory obtain a consistent view by
// checking a generation number and busy flag before and after each read.
//
// Layout of a directory segment:
//
//	offset  0: mutex word (futex; 0 = unlocked, 1 = locked)
//	offset  8: generation number
//	offset 16: busy flag
//	offset 24: entry count
//	offset 32: entries — {u16 name length, name bytes, u64 object ID, u8 type}
//
// Entries are read and changed where they lie.  The count word is whatever the
// directory's last writer left, so it bounds a walk and never sizes an
// allocation, and a walk also ends at the first entry that overruns the bytes.
//
// The edit protocol, which editDir is the only code to run:
//
//  1. lock: compare-and-swap the mutex word 0 → 1 (sleeping on its futex while
//     someone else holds it), then set busy — a thread that cannot write the
//     directory fails here;
//  2. one read of the whole segment: the header words and the entries;
//  3. resize to the entries' new length, then ONE write of the entry bytes
//     that changed — an add's new entry at the tail, the entries after a
//     removed one over it, the nine ID and type bytes of a name bound again —
//     under the header step 1 left: busy, the old generation, the OLD count;
//  4. unlock with ONE write of the four header words — mutex 0, generation + 1,
//     busy 0, the new count — so a lock-free reader never sees a released
//     mutex beside a stale generation, a set busy flag or a count its entries
//     do not match, then wake one waiter.  An edit that changed nothing
//     releases with the generation and count it found.
//
// A reader that gives up on a writer that died between two calls (readDir)
// walks under the old count: the old entries, those cut short or zero-extended
// by the resize, or the new ones (an added entry uncounted, a removed one gone
// and the walk ending with the bytes) — no worse than a rewrite of the whole
// directory dying after its resize, and never past the bytes that were read.
//
// A directory segment is persistent (markPersistent, at creation), so the
// kernel carries every edit to the store at the next sync: nothing here does.
const (
	dsMutexOff = 0
	dsGenOff   = 8
	dsBusyOff  = 16
	dsCountOff = 24
	dsDataOff  = 32
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
	if err := tc.SegmentWrite(seg, dsBusyOff, []byte{1, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		return mapKernelErr(err)
	}
	old, err := tc.SegmentRead(seg, 0, maxSegRead)
	if err != nil {
		// A thread that could write the busy flag can read the segment, so
		// the segment (or the thread) has died since: there is no lock left
		// to release, and no generation was read to release it with.
		return mapKernelErr(err)
	}
	if len(old) < dsDataOff { // the busy write left it only three words long
		old = append(old, make([]byte, dsDataOff-len(old))...)
	}
	d := dirEdit{buf: old}
	gen, count := binary.LittleEndian.Uint64(old[dsGenOff:]), d.count()
	if err = edit(&d); err == nil {
		gen++ // the entries may change from here on, even if a step fails
		if err = sys.segResize(tc, seg, len(d.buf)); err == nil {
			err = sys.segWrite(tc, seg, d.lo, d.buf[d.lo:min(d.hi, len(d.buf))])
		}
		if err == nil {
			count = d.count()
		}
	}
	var rel [dsDataOff]byte // step 4: mutex 0, generation, busy 0, count
	binary.LittleEndian.PutUint64(rel[dsGenOff:], gen)
	binary.LittleEndian.PutUint64(rel[dsCountOff:], count)
	uerr := tc.SegmentWrite(seg, 0, rel[:])
	if uerr == nil {
		_, uerr = tc.FutexWake(seg, dsMutexOff, 1)
	}
	if err == nil {
		err = mapKernelErr(uerr)
	}
	return err
}

// maxSegRead asks a read for "the rest of the segment": SegmentRead clamps to
// the segment's length, so no separate SegmentLen call is needed.
const maxSegRead = int(^uint(0) >> 1)

// readDir returns a consistent snapshot of a directory's bytes without taking
// its mutex, which a reader may not be able to write: it retries until the
// generation number is stable and the busy flag clear.  r is the caller's
// ring; a path walk hands the same one to every lookup.
//
// The three reads of one attempt (generation+busy, whole segment, generation
// again) are one chained ring batch: one kernel entry and — because
// same-target entries coalesce — one lock round-trip on the segment.  The
// protocol is kept although such a batch reads atomically: a writer updates
// the segment across several syscalls, so a batch can still see it mid-update.
func (sys *System) readDir(tc *kernel.ThreadCall, r *kernel.Ring, dir kernel.ID) ([]byte, error) {
	seg, err := sys.dirSegCE(tc, dir)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		r.Submit(
			kernel.RingEntry{Op: kernel.OpSegmentRead, Seg: seg, Off: dsGenOff, Len: 16},
			kernel.RingEntry{Op: kernel.OpSegmentRead, Seg: seg, Off: 0, Len: maxSegRead, Chain: true},
			kernel.RingEntry{Op: kernel.OpSegmentRead, Seg: seg, Off: dsGenOff, Len: 8, Chain: true},
		)
		comps, err := r.Wait(3)
		if err != nil {
			return nil, mapKernelErr(err)
		}
		for i := range comps {
			if comps[i].Err != nil {
				return nil, mapKernelErr(comps[i].Err)
			}
		}
		before, buf, after := comps[0].Val, comps[1].Val, comps[2].Val
		if len(before) < 16 || len(after) < 8 {
			return nil, ErrInvalid
		}
		genBefore := binary.LittleEndian.Uint64(before[:8])
		busy := binary.LittleEndian.Uint64(before[8:16])
		genAfter := binary.LittleEndian.Uint64(after)
		// Stable — or a writer died holding the mutex, and this is as good a
		// listing as there will be.
		if busy == 0 && genBefore == genAfter || attempt > 10000 {
			return buf, nil
		}
		// A live writer needs the processor to finish: without the yield a
		// reader on the writer's core spins its 10,000 attempts away inside
		// one scheduler quantum and returns the torn listing above.
		runtime.Gosched()
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
