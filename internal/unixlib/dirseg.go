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
// The edit protocol, which editDir is the only code to run:
//
//  1. lock: compare-and-swap the mutex word 0 → 1 (sleeping on its futex while
//     someone else holds it), then set busy — a thread that cannot write the
//     directory fails here;
//  2. one read of the whole segment: the header words and the entries;
//  3. write the new entries back under the header just read (mutex 1, busy 1,
//     the old generation), so a reader that overlaps the write still sees busy;
//  4. unlock with ONE write of the first three words — mutex 0, generation + 1,
//     busy 0 — so a lock-free reader never sees a released mutex beside a stale
//     generation or a set busy flag, then wake one waiter.  An edit that
//     changed nothing releases with the generation it found.
//
// A directory segment is persistent (markPersistent, at creation), so the
// kernel carries every edit to the store at the next sync: nothing here does.
const (
	dsMutexOff = 0
	dsGenOff   = 8
	dsBusyOff  = 16
	dsCountOff = 24
	dsDataOff  = 32
)

// DirEntry is one name binding in a directory.
type DirEntry struct {
	Name string
	ID   kernel.ID
	Type kernel.ObjectType
}

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

func decodeDirEntries(buf []byte) []DirEntry {
	if len(buf) < dsDataOff {
		return nil
	}
	count := binary.LittleEndian.Uint64(buf[dsCountOff:])
	out := make([]DirEntry, 0, count)
	p := buf[dsDataOff:]
	for i := uint64(0); i < count && len(p) >= 2; i++ {
		nameLen := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < nameLen+9 {
			break
		}
		name := string(p[:nameLen])
		p = p[nameLen:]
		id := kernel.ID(binary.LittleEndian.Uint64(p[:8]))
		typ := kernel.ObjectType(p[8])
		p = p[9:]
		out = append(out, DirEntry{Name: name, ID: id, Type: typ})
	}
	return out
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

// lockDir is step 1 of the edit protocol.  Threads that cannot write the
// directory segment get ErrPermission from the underlying write, exactly as
// the paper describes ("users that cannot write a directory cannot acquire
// the mutex").
func (sys *System) lockDir(tc *kernel.ThreadCall, seg kernel.CEnt) error {
	for {
		// Atomically set the mutex word 0 → 1 (a user-level cmpxchg on the
		// mapped directory segment).
		ok, err := tc.SegmentCompareSwap(seg, dsMutexOff, 0, 1)
		if err != nil {
			return mapKernelErr(err)
		}
		if ok {
			// Mark busy for lock-free readers.
			var busy [8]byte
			binary.LittleEndian.PutUint64(busy[:], 1)
			return mapKernelErr(tc.SegmentWrite(seg, dsBusyOff, busy[:]))
		}
		// Locked by someone else: wait on the futex.
		if err := tc.FutexWait(seg, dsMutexOff, 1); err != nil {
			return mapKernelErr(err)
		}
	}
}

// unlockDir is step 4: old is the segment as the edit read it under the lock
// (the busy write left it at least a header long), and bump says whether the
// entries may have changed since.
func (sys *System) unlockDir(tc *kernel.ThreadCall, seg kernel.CEnt, old []byte, bump bool) error {
	gen := binary.LittleEndian.Uint64(old[dsGenOff:])
	if bump {
		gen++
	}
	var rel [dsCountOff]byte // mutex 0, generation, busy 0
	binary.LittleEndian.PutUint64(rel[dsGenOff:], gen)
	if err := tc.SegmentWrite(seg, 0, rel[:]); err != nil {
		return mapKernelErr(err)
	}
	_, err := tc.FutexWake(seg, dsMutexOff, 1)
	return mapKernelErr(err)
}

// editDir is the one way to change a directory: it runs the edit protocol
// above around edit, which is handed the directory's entries and returns the
// entries to store.  When edit fails nothing is written and its error is
// returned; it runs with the directory mutex held, so it may create or
// unreference the objects the entries name but must not edit dir again.
func (sys *System) editDir(tc *kernel.ThreadCall, dir kernel.ID, edit func([]DirEntry) ([]DirEntry, error)) error {
	seg, err := sys.dirSegCE(tc, dir)
	if err != nil {
		return err
	}
	if err := sys.lockDir(tc, seg); err != nil {
		return err
	}
	old, err := tc.SegmentRead(seg, 0, maxSegRead)
	if err != nil {
		// A thread that could write the busy flag can read the segment, so
		// the segment (or the thread) has died since: there is no lock left
		// to release, and no generation was read to release it with.
		return mapKernelErr(err)
	}
	entries, err := edit(decodeDirEntries(old))
	wrote := err == nil
	if wrote {
		buf := encodeDirEntries(entries)
		copy(buf[:dsCountOff], old)
		if err = sys.segResize(tc, seg, len(buf)); err == nil {
			err = sys.segWrite(tc, seg, 0, buf)
		}
	}
	if uerr := sys.unlockDir(tc, seg, old, wrote); err == nil {
		err = uerr
	}
	return err
}

// findEntry returns the index of name in entries, or -1.
func findEntry(entries []DirEntry, name string) int {
	for i := range entries {
		if entries[i].Name == name {
			return i
		}
	}
	return -1
}

// maxSegRead asks a read for "the rest of the segment": SegmentRead clamps to
// the segment's length, so no separate SegmentLen call is needed.
const maxSegRead = int(^uint(0) >> 1)

// readDirEntries returns a consistent snapshot of a directory's entries
// without taking its mutex, which a reader may not be able to write: it
// retries until the generation number is stable and the busy flag clear.
//
// The three reads of one attempt (generation+busy, whole segment, generation
// again) go through the syscall ring as a single chained batch: one kernel
// entry and — because same-target entries coalesce — one lock round-trip on
// the directory segment.  The generation/busy protocol is kept even though
// a coalesced batch reads atomically under the segment's lock: a writer
// holding the user-level directory mutex updates the segment across several
// syscalls, so a batch can still observe a mid-update (busy) state.
func (sys *System) readDirEntries(tc *kernel.ThreadCall, seg kernel.CEnt) ([]DirEntry, error) {
	r := tc.NewRing()
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
			return decodeDirEntries(buf), nil
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
