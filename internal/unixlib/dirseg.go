package unixlib

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"

	"histar/internal/kernel"
)

// Directory segments (Section 5.1): each directory container holds a special
// segment mapping file names to object IDs, which readers search in place.
// Edits are serialized by a word in the segment (built on the kernel futex)
// used as a sequence lock: even while no edit is under way, odd while one is,
// two more after every edit.  A reader never takes it — it may not be able to
// write the directory — but checks it: one read that saw an even word, or
// several reads that saw the same even word before and after, are one state
// of the directory.  The paper's readers check a generation number and a busy
// flag for the same purpose; here the sequence word is both.
//
// Layout of a directory segment:
//
//	offset  0: sequence word (futex)
//	offset  8: entry count
//	offset 16: with nb > 1 buckets, nb fences: u32 offsets at which the
//	           buckets' entries end
//	then:      entries — {u16 name length, name bytes, u64 object ID, u8 type}
//
// Entries are sorted by (h(name), name), where h is nameHash, 64-bit FNV-1a
// with a finalizer — fixed and unseeded, so the order survives a reboot —
// and bucket k holds the entries whose hash has k in its top log2(nb) bits.
// nb is a function of the count (bucketBits), derived and never stored: one
// bucket up to bucketFill entries, then the least power of two that keeps a
// bucket's mean at bucketFill or under.  So the bytes are a function of the
// set of entries alone, and an edit that crosses a bucket boundary keeps the
// entries' order and rewrites the fences.
//
// The count word and the fences are whatever the directory's last writer
// left, so they bound walks and reads and never size an allocation: a walk
// ends at the first entry that overruns the bytes, fences out of order name
// an empty bucket, and a count whose fences would lie past the segment's end
// is read as one bucket holding the entries after the header.
//
// A lookup (lookupEntry) reads the first dsPrefix bytes — more, for a
// directory last seen shorter than dsWhole: its length then, and dsPrefix
// more.  A directory that fits there is searched there: one read.  Otherwise
// the lookup reads the bucket's two fences when the prefix did not hold them,
// then the bucket, then the sequence word again, and starts over unless that
// is still the even value the prefix held.  ReadDir reads the whole segment
// once.  Both sleep on the futex while the word is odd.
//
// The edit protocol, which editDir is the only code to run:
//
//  1. one read of the whole segment, sleeping on the futex while its sequence
//     word s is odd;
//  2. lock: compare-and-swap s → s+1.  Success proves that read current — no
//     edit began since — and a failure means one did, so the edit reads
//     again.  A thread that cannot write the directory fails here;
//  3. resize to the entries' new length, then ONE write of the bytes that
//     changed — from the edited bucket's fence on, or from the edited entry
//     on; the nine ID and type bytes of a name bound again — under the held
//     word and the OLD count;
//  4. unlock with ONE write of both header words — s+2, the new count — so no
//     reader sees a released word beside a count its entries do not match,
//     then wake every waiter: readers and writers sleep on the same word, so
//     waking one could wake a reader and strand a writer.  An edit that
//     changed nothing releases with the count it found.
//
// So a writer halted mid-edit, or one that leaves the word odd, stops readers
// as it stops writers: trusted code must read no directory less trusted code
// writes.
//
// A directory segment is persistent (markPersistent, at creation), so the
// kernel carries every edit to the store at the next sync: nothing here does.
const (
	dsMutexOff = 0
	dsCountOff = 8
	dsDataOff  = 16 // the header's end: the fences, or a one-bucket directory's entries
	entryTail  = 9  // after an entry's name: u64 object ID, u8 type
	fenceSize  = 4
	bucketFill = 16
	dsPrefix   = 256  // what a lookup reads first
	dsWhole    = 2048 // a directory shorter than this is worth reading whole
)

// DirEntry is one name binding in a directory.
type DirEntry struct {
	Name string
	ID   kernel.ID
	Type kernel.ObjectType
}

// nameHash is 64-bit FNV-1a, then MurmurHash3's 64-bit finalizer.  FNV-1a
// alone carries a name's last bytes into its top bits only through the
// prime's 2⁴⁰ term, so names that differ at the end — f00000 to f00999 —
// would share a few buckets; the finalizer spreads them.
func nameHash[T string | []byte](name T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// compareNames orders entries as a directory holds them: by hash, then name.
func compareNames[A, B string | []byte](a A, b B) int {
	if c := cmp.Compare(nameHash(a), nameHash(b)); c != 0 {
		return c
	}
	return cmp.Compare(string(a), string(b))
}

// bucketBits is log2 of the number of buckets of a directory of count entries.
func bucketBits(count uint64) uint {
	if count <= bucketFill {
		return 0
	}
	return uint(bits.Len64((count - 1) / bucketFill))
}

// entriesOff is where the entries of a directory of 1<<b buckets begin.
func entriesOff(b uint) int {
	if b == 0 {
		return dsDataOff
	}
	return dsDataOff + fenceSize<<b
}

func fenceAt(buf []byte, k int) int {
	return int(binary.LittleEndian.Uint32(buf[dsDataOff+fenceSize*k:]))
}

func putFence(buf []byte, k, off int) {
	binary.LittleEndian.PutUint32(buf[dsDataOff+fenceSize*k:], uint32(off))
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

// appendEntry appends e's encoding to buf.
func appendEntry(buf []byte, e DirEntry) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Name)))
	buf = append(buf, e.Name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.ID))
	return append(buf, byte(e.Type))
}

// scanDir walks the entries of buf from off on — at most n, fewer if one
// overruns buf — comparing each name with name where it lies.  It returns
// the offset of the first entry so named or -1, where the walk ended and how
// many entries it passed.
func scanDir(buf []byte, off int, n uint64, name string) (at, end int, walked uint64) {
	for at, end = -1, off; walked < n; walked++ {
		nameEnd, ok := entryAt(buf, end)
		if !ok {
			break
		}
		if at < 0 && string(buf[end+2:nameEnd]) == name {
			at = end
		}
		end = nameEnd + entryTail
	}
	return at, end, walked
}

// decodeDirEntries lists the entries of a directory's bytes, in order: as
// many as its count word says, fewer if the bytes end first, from past its
// fences — from the header on when the fences would lie past the bytes.
func decodeDirEntries(buf []byte) []DirEntry {
	if len(buf) < dsDataOff {
		return nil
	}
	count := binary.LittleEndian.Uint64(buf[dsCountOff:])
	off := entriesOff(bucketBits(count))
	if off > len(buf) {
		off = dsDataOff
	}
	var out []DirEntry
	for ; uint64(len(out)) < count; off += entryTail {
		nameEnd, ok := entryAt(buf, off)
		if !ok {
			break
		}
		out = append(out, entryOf(buf, off, string(buf[off+2:nameEnd])))
		off = nameEnd
	}
	return out
}

// encodeDir lays entries out, sorting them, as a directory of exactly those
// bindings.  The sequence word is left zero.
func encodeDir(entries []DirEntry) []byte {
	slices.SortStableFunc(entries, func(a, b DirEntry) int { return compareNames(a.Name, b.Name) })
	buf := make([]byte, dsDataOff)
	binary.LittleEndian.PutUint64(buf[dsCountOff:], uint64(len(entries)))
	for _, e := range entries {
		buf = appendEntry(buf, e)
	}
	return refence(buf, 0)
}

// refence returns buf, whose entries begin past the fences of 1<<from
// buckets, with the fences its count calls for in front of the same entries.
func refence(buf []byte, from uint) []byte {
	b := bucketBits(binary.LittleEndian.Uint64(buf[dsCountOff:]))
	ents := buf[entriesOff(from):]
	out := make([]byte, entriesOff(b), entriesOff(b)+len(ents))
	copy(out, buf[:dsDataOff])
	out = append(out, ents...)
	if b == 0 {
		return out
	}
	k := 0
	for off := entriesOff(b); off < len(out); off += entryTail {
		nameEnd, ok := entryAt(out, off)
		if !ok {
			break
		}
		for bk := int(nameHash(out[off+2:nameEnd]) >> (64 - b)); k < bk; k++ {
			putFence(out, k, off)
		}
		off = nameEnd
	}
	for ; k < 1<<b; k++ {
		putFence(out, k, len(out))
	}
	return out
}

// dirReader serves a lookup the bytes [lo, hi) of a directory segment, cut
// at its end: out of the prefix the lookup read first when they lie there —
// all of them when the prefix is the whole segment — and with one more read
// otherwise.
type dirReader struct {
	pre   []byte
	whole bool // pre is the whole segment
	read  func(off, n int) ([]byte, error)
	extra bool // a read past the prefix was made
}

func (r *dirReader) bytes(lo, hi int) ([]byte, error) {
	switch {
	case hi <= lo:
		return nil, nil
	case hi <= len(r.pre) || r.whole:
		return r.pre[min(lo, len(r.pre)):min(hi, len(r.pre))], nil
	}
	r.extra = true
	b, err := r.read(lo, hi-lo)
	if errors.Is(err, kernel.ErrInvalid) {
		return nil, nil // lo lies past the segment's end
	}
	return b, err
}

// find looks for name in the bucket its hash names, between the fences on
// either side of it — or, in a directory of one bucket or one whose count
// places those fences past its bytes, among the entries after the header, as
// many as the count word says — and returns the first entry so named.
func (r *dirReader) find(name string) (e DirEntry, found bool, err error) {
	count := binary.LittleEndian.Uint64(r.pre[dsCountOff:])
	lo, hi, n := dsDataOff, maxSegRead, count
	if b := bucketBits(count); b > 0 {
		k := int(nameHash(name) >> (64 - b))
		at, end := dsDataOff+fenceSize*max(k-1, 0), dsDataOff+fenceSize*(k+1) // fences k-1 and k
		f, err := r.bytes(at, end)
		if err != nil {
			return DirEntry{}, false, err
		}
		if len(f) == end-at {
			lo, hi, n = entriesOff(b), int(binary.LittleEndian.Uint32(f[len(f)-fenceSize:])), math.MaxUint64
			if k > 0 {
				lo = int(binary.LittleEndian.Uint32(f))
			}
			if lo < entriesOff(b) {
				return DirEntry{}, false, nil
			}
		}
	}
	buf, err := r.bytes(lo, hi)
	if at, _, _ := scanDir(buf, 0, n, name); at >= 0 && err == nil {
		return entryOf(buf, at, name), true, nil
	}
	return DirEntry{}, false, err
}

// dirEdit is a directory's bytes as editDir read them under the lock,
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

// open makes buf a directory the edit steps can trust.  It keeps buf when its
// fences lie in the bytes, in order, the last at their end — or, with one
// bucket, when its entries are as many as the count and end where the bytes
// do — and otherwise lays out anew the entries a listing shows.
func (d *dirEdit) open() {
	b := bucketBits(d.count())
	end := entriesOff(b)
	ok := end <= len(d.buf)
	if ok && b == 0 {
		var n uint64
		_, end, n = scanDir(d.buf, end, d.count(), "")
		ok = n == d.count()
	}
	for k := 0; ok && b > 0 && k < 1<<b; k++ {
		f := fenceAt(d.buf, k)
		ok, end = f >= end, f
	}
	if !ok || end != len(d.buf) {
		d.buf = encodeDir(decodeDirEntries(d.buf))
		d.touch(dsDataOff, len(d.buf), d.count())
	}
}

// bucket returns the bytes [lo, hi) that hold the entries of hash h's bucket.
func (d *dirEdit) bucket(h uint64) (lo, hi int) {
	b := bucketBits(d.count())
	if b == 0 {
		return dsDataOff, len(d.buf)
	}
	k := int(h >> (64 - b))
	lo = entriesOff(b)
	if k > 0 {
		lo = fenceAt(d.buf, k-1)
	}
	return lo, fenceAt(d.buf, k)
}

// find returns the offset of name's entry, or -1: the first entry of its
// bucket so named, as a lookup finds it.
func (d *dirEdit) find(name string) int {
	lo, hi := d.bucket(nameHash(name))
	at, _, _ := scanDir(d.buf[:hi], lo, math.MaxUint64, name)
	return at
}

// resized records that the entries from at on moved by delta bytes, in the
// bucket for hash h, and that the directory now holds count entries: it moves
// the later fences with them, or, when the count calls for another number of
// buckets, lays the fences out anew.
func (d *dirEdit) resized(h uint64, at, delta int, count uint64) {
	b := bucketBits(d.count())
	binary.LittleEndian.PutUint64(d.buf[dsCountOff:], count)
	if bucketBits(count) != b {
		d.buf = refence(d.buf, b)
		d.touch(dsDataOff, len(d.buf), count)
		return
	}
	if b > 0 {
		k := int(h >> (64 - b))
		for i := k; i < 1<<b; i++ {
			putFence(d.buf, i, fenceAt(d.buf, i)+delta)
		}
		at = dsDataOff + fenceSize*k
	}
	d.touch(at, len(d.buf), count)
}

// add inserts an entry for a name find did not find, before the first entry
// of its bucket that sorts after it.
func (d *dirEdit) add(e DirEntry) {
	h := nameHash(e.Name)
	at, hi := d.bucket(h)
	for buf := d.buf[:hi]; ; {
		nameEnd, ok := entryAt(buf, at)
		if !ok || compareNames(buf[at+2:nameEnd], e.Name) > 0 {
			break
		}
		at = nameEnd + entryTail
	}
	ent := appendEntry(nil, e)
	d.buf = slices.Insert(d.buf, at, ent...)
	d.resized(h, at, len(ent), d.count()+1)
}

// take removes name's entry and returns what it was bound to.
func (d *dirEdit) take(name string) (DirEntry, error) {
	at := d.find(name)
	if at < 0 {
		return DirEntry{}, ErrNotExist
	}
	e, n := entryOf(d.buf, at, name), 2+len(name)+entryTail
	d.buf = slices.Delete(d.buf, at, at+n)
	d.resized(nameHash(name), at, -n, d.count()-1)
	return e, nil
}

// bind binds e.Name to e's object — over the ID and type of the entry that
// holds the name, in its place when none does — and returns what the name was
// bound to before, an entry with NilID when it was free.
func (d *dirEdit) bind(e DirEntry) DirEntry {
	at := d.find(e.Name)
	if at < 0 {
		d.add(e)
		return DirEntry{}
	}
	victim, t := entryOf(d.buf, at, e.Name), at+2+len(e.Name)
	binary.LittleEndian.PutUint64(d.buf[t:], uint64(e.ID))
	d.buf[t+8] = byte(e.Type)
	d.touch(t, t+entryTail, d.count())
	return victim
}

// dirSeg returns the container entry of a directory's segment, whose ID is
// stored in the directory container's metadata, and the segment's length
// when last seen whole (0 if never).  The binding is immutable once the
// directory exists, so it is served from the sharded dirSegs cache; only the
// first lookup of a directory pays the ObjectStat syscall.
func (sys *System) dirSeg(tc *kernel.ThreadCall, dir kernel.ID) (kernel.CEnt, int, error) {
	shard := &sys.dirSegs[uint64(dir)%dirSegShards]
	shard.mu.RLock()
	ds, ok := shard.m[dir]
	shard.mu.RUnlock()
	if ok {
		return kernel.CEnt{Container: dir, Object: ds.id}, ds.size, nil
	}
	st, err := tc.ObjectStat(kernel.Self(dir))
	if err != nil {
		return kernel.CEnt{}, 0, mapKernelErr(err)
	}
	ds.id = kernel.ID(binary.LittleEndian.Uint64(st.Metadata[:8]))
	if ds.id == kernel.NilID {
		return kernel.CEnt{}, 0, ErrNotDir
	}
	shard.mu.Lock()
	if _, ok := shard.m[dir]; !ok {
		shard.m[dir] = ds
	}
	shard.mu.Unlock()
	return kernel.CEnt{Container: dir, Object: ds.id}, 0, nil
}

// sawDirSize records that dir's segment is n bytes long.
func (sys *System) sawDirSize(dir kernel.ID, n int) {
	shard := &sys.dirSegs[uint64(dir)%dirSegShards]
	shard.mu.Lock()
	if ds, ok := shard.m[dir]; ok {
		ds.size = n
		shard.m[dir] = ds
	}
	shard.mu.Unlock()
}

// forgetDir drops a removed directory's binding from the dirSegs cache.
func (sys *System) forgetDir(dir kernel.ID) {
	shard := &sys.dirSegs[uint64(dir)%dirSegShards]
	shard.mu.Lock()
	delete(shard.m, dir)
	shard.mu.Unlock()
}

// editDir is the one way to change a directory: it runs the edit protocol
// above around edit, which changes the directory's bytes through the dirEdit
// it is handed.  When edit fails nothing is written and its error is
// returned; it runs with the directory locked, so it may create or
// unreference the objects the entries name but must not edit dir again.
func (sys *System) editDir(tc *kernel.ThreadCall, dir kernel.ID, edit func(*dirEdit) error) error {
	seg, size, err := sys.dirSeg(tc, dir)
	if err != nil {
		return err
	}
	// Steps 1 and 2.  The compare-and-swap is a user-level cmpxchg on the
	// mapped segment: a thread that cannot write it gets ErrPermission here,
	// as the paper describes ("users that cannot write a directory cannot
	// acquire the mutex").
	var old []byte
	var seq uint64
	for locked := false; !locked; {
		if old, err = readDir(tc, seg, maxSegRead); err != nil {
			return err
		}
		seq = binary.LittleEndian.Uint64(old[dsMutexOff:])
		if locked, err = tc.SegmentCompareSwap(seg, dsMutexOff, seq, seq+1); err != nil {
			return mapKernelErr(err)
		}
	}
	d := dirEdit{buf: old}
	count := d.count()
	d.open()
	if err = edit(&d); err == nil {
		if err = sys.segResize(tc, seg, len(d.buf)); err == nil {
			err = sys.segWrite(tc, seg, d.lo, d.buf[d.lo:min(d.hi, len(d.buf))])
		}
		if err == nil {
			count = d.count()
			if len(d.buf) != size {
				sys.sawDirSize(dir, len(d.buf))
			}
		}
	}
	var rel [dsDataOff]byte // step 4: s+2, count
	binary.LittleEndian.PutUint64(rel[dsMutexOff:], seq+2)
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

// readDir reads up to n bytes from the start of a directory segment as they
// stand between two edits, without taking the lock: a read is kept when the
// sequence word in it is even.  While it is odd the reader sleeps on its
// futex — the unlock wakes every sleeper, and a wait on a word that has
// already changed returns at once — and then reads again.  A segment cut
// below its header is ErrInvalid.
func readDir(tc *kernel.ThreadCall, seg kernel.CEnt, n int) ([]byte, error) {
	for {
		buf, err := tc.SegmentRead(seg, 0, n)
		if err != nil {
			return nil, mapKernelErr(err)
		}
		if len(buf) < dsDataOff {
			return nil, ErrInvalid
		}
		seq := binary.LittleEndian.Uint64(buf[dsMutexOff:])
		if seq&1 == 0 {
			return buf, nil
		}
		if err := tc.FutexWait(seg, dsMutexOff, seq); err != nil {
			return nil, mapKernelErr(err)
		}
	}
}

// lookupEntry finds name in dir, reading what the layout above says a lookup
// reads: what it reads and allocates does not grow with the directory.  A
// directory last seen shorter than dsWhole is asked for whole, with dsPrefix
// bytes to spare, and so is searched in one read while it stays that short.
func (sys *System) lookupEntry(tc *kernel.ThreadCall, dir kernel.ID, name string) (DirEntry, error) {
	seg, size, err := sys.dirSeg(tc, dir)
	if err != nil {
		return DirEntry{}, err
	}
	n := dsPrefix
	if size < dsWhole {
		n += size
	}
	for {
		pre, err := readDir(tc, seg, n)
		if err != nil {
			return DirEntry{}, err
		}
		r := dirReader{pre: pre, whole: len(pre) < n, read: func(off, k int) ([]byte, error) { return tc.SegmentRead(seg, off, k) }}
		if r.whole && len(pre) != size {
			size = len(pre)
			sys.sawDirSize(dir, size)
		}
		e, found, err := r.find(name)
		if err == nil && r.extra {
			// Several reads are one state of the directory when no edit began
			// since the first; otherwise read again, asleep while one is under way.
			var w []byte
			if w, err = tc.SegmentRead(seg, dsMutexOff, 8); err == nil && string(w) != string(pre[:8]) {
				continue
			}
		}
		switch {
		case err != nil:
			return DirEntry{}, mapKernelErr(err)
		case !found:
			return DirEntry{}, ErrNotExist
		}
		return e, nil
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
