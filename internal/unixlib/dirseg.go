package unixlib

import (
	"bytes"
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
//	offset 16: nb+1 fences, u32 each: fence k is where bucket k's region
//	           begins, fence nb where the last region ends, at the
//	           segment's end — so fence 0 says how many buckets there are
//	then:      the nb regions, each a u32 count of the bytes of entries
//	           after it, those entries — {u16 name length, name bytes, u64
//	           object ID, u8 type} — and zero bytes of slack up to the next
//	           fence
//
// A segment of the header alone, as mkDirContainer makes it, is an empty
// directory no edit has laid out yet.
//
// Entries are sorted by (h(name), name), where h is nameHash, 64-bit FNV-1a
// with a finalizer — fixed and unseeded, so the order survives a reboot —
// and bucket k holds the entries whose hash has k in its top log2(nb) bits,
// nb being a power of two.  A rewrite lays a directory out from its entries
// alone (encodeDir): one bucket up to bucketFill entries, then the least
// power of two that keeps a bucket's mean at bucketFill or under, each
// bucket's entries followed by slack of a quarter of their bytes, at least
// minSlack.  An edit that fits its bucket's slack changes that bucket where
// it lies; an insert that does not fit, or a removal that leaves the buckets
// fewer than a quarter of bucketFill entries each on average, rewrites the
// directory.  So rewrites are amortized, and churn at a steady count
// rewrites the directory from its entries now and then rather than growing
// it.  The bytes are therefore a function of the entries and the edits since
// the last rewrite: how many buckets there are, and how much slack each has
// left, depend on that history.  What stays canonical is the order of the
// entries, which bucket holds each, the zero slack, and the bytes of a
// rewrite — encodeDir's for the set of entries it holds.
//
// The count word and the fences are whatever the directory's last writer
// left, so they bound walks and reads and never size an allocation: a walk
// ends at its bucket's used bytes or at the first entry that overruns them,
// a fence 0 that names no power of two names no bucket, and a bucket whose
// region starts inside the fence table or cannot hold its used word holds
// nothing.  Lookups and listings do not read the count; Unlink reads it to
// learn that a directory is empty, and an edit keeps it only when the
// buckets it reads hold no more entries than it says (in a directory of one
// bucket, exactly as many).
//
// A lookup (lookupEntry) first reads as much as the directory's last first
// read said is worth reading (firstRead): all of a directory shorter than
// dsWhole, with dsPrefix bytes to spare; the header and every fence of one
// whose fences end by dsWhole; dsPrefix bytes of any other.  A directory
// that fits there is searched there: one read.  Otherwise the lookup reads
// the bucket's two fences when that read did not hold them, then the
// bucket's region, then the sequence word again, and starts over unless
// that is still the even value the first read held.  ReadDir reads the
// whole segment once.  Both sleep on the futex while the word is odd.
//
// A warm lookup reads less.  A process remembers, in its name table
// (names.go), each binding it found and the even word it was read under; a
// lookup of a remembered binding reads the directory's 16-byte header — the
// word, and the count word, which only shows that the segment still holds a
// header — and returns the binding when the word is unchanged, since every
// edit moves it.  Otherwise it runs the lookup above.  The read is the
// caller's, under its label at that moment, so the table answers nothing the
// kernel would refuse.  A process's own edits keep its table current: an
// edit that locked the word at s and released it at s+2 drops the names it
// touched and moves the directory's other slots read under s to s+2, so
// editing a directory does not make what the editor knows of it stale.
//
// The edit protocol, which editDir is the only code to run:
//
//  1. the same first read, sleeping on the futex while its sequence word s
//     is odd;
//  2. lock: compare-and-swap s → s+1.  Success proves that read current —
//     no edit began since — and a failure means one did, so the edit reads
//     again.  A thread that cannot write the directory fails here;
//  3. under the held word and the OLD count, for each bucket the edit names,
//     its fences and its region, one read each unless the first read held
//     them, and ONE write of each bucket it changed: the used word, the
//     entries and, zeroed, the bytes they no longer cover.  A rewrite
//     instead reads the whole segment unless the first read held it, then
//     resizes it and writes everything past the header in ONE write;
//  4. unlock with ONE write of both header words — s+2, the new count — so
//     no reader sees a released word beside a count its entries do not
//     match, bring the editor's name table up to s+2, then wake every
//     waiter: readers and writers sleep on the same word, so waking one
//     could wake a reader and strand a writer.  An edit that changed nothing
//     releases with the count it found.
//
// So an edit that fits its bucket reads and writes that bucket, not the
// directory, in six calls — the first read, the compare-and-swap, the
// region, its write, the unlock, the wake — or five when the first read
// held the region.  A writer halted mid-edit, or one that leaves the word
// odd, stops readers as it stops writers: trusted code must read no
// directory less trusted code writes.
//
// A directory segment is persistent (markPersistent, at creation), so the
// kernel carries every edit to the store at the next sync: nothing here does.
const (
	dsMutexOff = 0
	dsCountOff = 8
	dsDataOff  = 16 // the header's end: where the fences begin
	entryTail  = 9  // after an entry's name: u64 object ID, u8 type
	fenceSize  = 4
	usedSize   = 4 // a region's first word: how many bytes of entries follow
	bucketFill = 16
	minSlack   = 32   // the least slack a rewrite leaves after a bucket
	dsPrefix   = 256  // what a first read asks for when nothing says more
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

// dirEnt is an entry as a directory encodes it — {u16 name length, name,
// u64 object ID, u8 type} — with its name's hash.
type dirEnt struct {
	h uint64
	b []byte
}

func (e dirEnt) name() []byte { return e.b[2 : len(e.b)-entryTail] }

// compareEnts orders entries as a directory holds them: by hash, then name.
func compareEnts(a, b dirEnt) int {
	if c := cmp.Compare(a.h, b.h); c != 0 {
		return c
	}
	return bytes.Compare(a.name(), b.name())
}

// bucketBits is log2 of the number of buckets a rewrite gives a directory of
// count entries.
func bucketBits(count uint64) uint {
	if count <= bucketFill {
		return 0
	}
	return uint(bits.Len64((count - 1) / bucketFill))
}

// bucketOf is the bucket, of 1<<b, that holds the names of hash h.
func bucketOf(h uint64, b uint) int { return int(h >> (64 - b)) }

// regionsOff is where the regions of a directory of 1<<b buckets begin: past
// the header and the nb+1 fences, so it is also fence 0.
func regionsOff(b uint) int { return dsDataOff + fenceSize*(1<<b+1) }

// layoutBits is log2 of the bucket count a fence 0 of f names; ok is false
// when it names none.
func layoutBits(f int) (b uint, ok bool) {
	nb := (f-dsDataOff)/fenceSize - 1
	if f < regionsOff(0) || (f-dsDataOff)%fenceSize != 0 || nb&(nb-1) != 0 {
		return 0, false
	}
	return uint(bits.TrailingZeros(uint(nb))), true
}

// slack is the room a rewrite leaves after a bucket of used bytes.
func slack(used int) int { return max(used/4, minSlack) }

func le32(b []byte) int { return int(binary.LittleEndian.Uint32(b)) }

func fenceAt(buf []byte, k int) int { return le32(buf[dsDataOff+fenceSize*k:]) }

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

// scanDir walks the entries encoded in buf, up to the first that overruns
// it, comparing each name with name where it lies.  It returns the offset of
// the first entry so named or -1, where the walk ended and how many entries
// it passed.
func scanDir(buf []byte, name string) (at, end int, walked uint64) {
	for at = -1; ; walked++ {
		nameEnd, ok := entryAt(buf, end)
		if !ok {
			return at, end, walked
		}
		if at < 0 && string(buf[end+2:nameEnd]) == name {
			at = end
		}
		end = nameEnd + entryTail
	}
}

// appendEnts appends the entries encoded in buf, up to the first that
// overruns it, where they lie.
func appendEnts(out []dirEnt, buf []byte) []dirEnt {
	for off := 0; ; {
		nameEnd, ok := entryAt(buf, off)
		if !ok {
			return out
		}
		out = append(out, dirEnt{nameHash(buf[off+2 : nameEnd]), buf[off : nameEnd+entryTail]})
		off = nameEnd + entryTail
	}
}

// bucketEntries returns the bytes of a region that its used word says hold
// entries, cut at the region's end.
func bucketEntries(reg []byte) []byte {
	if len(reg) < usedSize {
		return nil
	}
	return reg[usedSize:][:min(le32(reg), len(reg)-usedSize)]
}

// walkBuckets calls f with each region of buf, in bucket order, as the
// fences place it, cut at the bytes' end: a region that starts before the
// one before it ends, or cannot hold its used word, is skipped.  A buf whose
// fence 0 names no bucket count, or whose fences it does not hold, has none.
func walkBuckets(buf []byte, f func(k int, reg []byte)) {
	if len(buf) < dsDataOff+fenceSize {
		return
	}
	b, ok := layoutBits(fenceAt(buf, 0))
	if !ok || regionsOff(b) > len(buf) {
		return
	}
	for k, prev := 0, regionsOff(b); k < 1<<b; k++ {
		lo, hi := fenceAt(buf, k), min(fenceAt(buf, k+1), len(buf))
		if lo < prev || hi < lo+usedSize {
			continue
		}
		f(k, buf[lo:hi])
		prev = hi
	}
}

// decodeDirEntries lists the entries of a directory's bytes, bucket by
// bucket, in order.
func decodeDirEntries(buf []byte) []DirEntry {
	var ents []dirEnt
	walkBuckets(buf, func(_ int, reg []byte) { ents = appendEnts(ents, bucketEntries(reg)) })
	out := make([]DirEntry, len(ents))
	for i, e := range ents {
		out[i] = entryOf(e.b, 0, string(e.name()))
	}
	return out
}

// encodeDir lays entries out, in directory order, as a rewrite lays out a
// directory of exactly those bindings.  The sequence word is left zero.
func encodeDir(entries []dirEnt) []byte {
	b := bucketBits(uint64(len(entries)))
	buf := make([]byte, regionsOff(b))
	binary.LittleEndian.PutUint64(buf[dsCountOff:], uint64(len(entries)))
	for k, i := 0, 0; k < 1<<b; k++ {
		start := len(buf)
		putFence(buf, k, start)
		buf = append(buf, make([]byte, usedSize)...)
		for ; i < len(entries) && bucketOf(entries[i].h, b) == k; i++ {
			buf = append(buf, entries[i].b...)
		}
		used := len(buf) - start - usedSize
		binary.LittleEndian.PutUint32(buf[start:], uint32(used))
		buf = append(buf, make([]byte, slack(used))...)
	}
	putFence(buf, 1<<b, len(buf))
	return buf
}

// firstRead is how many bytes a first read of a directory should ask for,
// given what one got: all of a directory shorter than dsWhole — as long as
// pre is, when it is the whole segment, or as its last fence says — and
// dsPrefix bytes to spare; up to its fences' end when that is past dsPrefix
// and no later than dsWhole; dsPrefix bytes otherwise.
func firstRead(pre []byte, whole bool) int {
	if len(pre) < dsDataOff+fenceSize {
		return len(pre) + dsPrefix
	}
	n, f := len(pre), fenceAt(pre, 0)
	if b, ok := layoutBits(f); !whole {
		n = dsWhole
		if ok && regionsOff(b) <= len(pre) {
			n = fenceAt(pre, 1<<b)
		}
	}
	switch {
	case n < dsWhole:
		return n + dsPrefix
	case f > dsPrefix && f <= dsWhole:
		return f
	}
	return dsPrefix
}

// dirReader serves a lookup or an edit the bytes [lo, hi) of a directory
// segment, cut at its end: out of the first read when they lie there — all
// of them when that read is the whole segment — and with one more read
// otherwise.
type dirReader struct {
	pre   []byte
	whole bool // pre is the whole segment
	read  func(off, n int) ([]byte, error)
	extra bool // a read past the first was made
}

// segReader is the dirReader of seg after a first read that asked for asked
// bytes and got pre.
func segReader(tc *kernel.ThreadCall, seg kernel.CEnt, pre []byte, asked int) dirReader {
	return dirReader{pre: pre, whole: len(pre) < asked, read: func(off, n int) ([]byte, error) { return tc.SegmentRead(seg, off, n) }}
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

// region returns where the region of hash h's bucket lies, as the fences
// say, and its bytes, cut at the segment's end — none when fence 0 names no
// bucket count, or the fences no region past the fence table that can hold
// a used word.
func (r *dirReader) region(h uint64) (lo, hi int, reg []byte, err error) {
	f, err := r.bytes(dsDataOff, dsDataOff+fenceSize)
	if len(f) < fenceSize || err != nil {
		return 0, 0, nil, err
	}
	b, ok := layoutBits(le32(f))
	if !ok {
		return 0, 0, nil, nil
	}
	at := dsDataOff + fenceSize*bucketOf(h, b)
	if f, err = r.bytes(at, at+2*fenceSize); len(f) < 2*fenceSize || err != nil {
		return 0, 0, nil, err
	}
	lo, hi = le32(f), le32(f[fenceSize:])
	if lo < regionsOff(b) || hi < lo+usedSize {
		return 0, 0, nil, nil
	}
	reg, err = r.bytes(lo, hi)
	return lo, hi, reg, err
}

// find looks for name among the used bytes of the bucket its hash names, and
// returns the first entry so named.
func (r *dirReader) find(name string) (e DirEntry, found bool, err error) {
	_, _, reg, err := r.region(nameHash(name))
	ents := bucketEntries(reg)
	if at, _, _ := scanDir(ents, name); at >= 0 && err == nil {
		return entryOf(ents, at, name), true, nil
	}
	return DirEntry{}, false, err
}

// dirEdit is one edit of a directory, under its lock: the buckets it read,
// changed where they lie — or, when the edit must lay the directory out anew,
// in memory, past their regions if need be.  Its steps never fail on the
// bytes they find; a read that fails leaves err set, and the steps after it
// change nothing.
type dirEdit struct {
	r     dirReader // the first read, current under the lock, and the way to read more
	found uint64    // the count word as the edit found it
	count uint64
	bits  uint // log2 of the bucket count, as fence 0 gives it
	bkts  []dirBucket
	seen  uint64 // entries in bkts, as they were read
	relay bool   // flush lays the directory out anew
	err   error
	names []string     // the names whose bindings the edit changed
	held  [2]dirBucket // room for bkts: an edit names one bucket, a rename two
	heldN [2]string    // room for names
}

// dirBucket is a bucket an edit read: its region, which starts at off in the
// segment, changed in place.
type dirBucket struct {
	k, off int
	reg    []byte
	old    int // the used bytes when read
	dirty  bool
}

func (b *dirBucket) used() int { return le32(b.reg) }

func (b *dirBucket) entries() []byte { return b.reg[usedSize : usedSize+b.used()] }

func (b *dirBucket) setUsed(n int) {
	binary.LittleEndian.PutUint32(b.reg, uint32(n))
	b.dirty = true
}

// openDirEdit starts an edit on the directory r's first read holds.  One
// whose fence 0 names no bucket count — the empty directory of a header
// alone among them — is laid out anew.
func openDirEdit(r dirReader) *dirEdit {
	d := &dirEdit{r: r, found: binary.LittleEndian.Uint64(r.pre[dsCountOff:])}
	d.count, d.bkts, d.names = d.found, d.held[:0], d.heldN[:0]
	ok := false
	if f, _ := r.bytes(dsDataOff, dsDataOff+fenceSize); len(f) == fenceSize {
		d.bits, ok = layoutBits(le32(f))
	}
	if !ok {
		d.relayOut()
	}
	return d
}

// bucket returns the bucket of hash h, reading it the first time; nil after
// a failed read.  A bucket that does not check (checkBucket), whose region
// overlaps another the edit read, or that holds more entries with those read
// before than the count says — in a directory of one bucket, other than it
// says — has the edit lay the directory out anew, in memory, first.  Whether
// its entries are in order and belong in it is not checked: a lookup
// searches a bucket whole, so it finds what a bucket out of order holds, and
// the next rewrite sorts it.
func (d *dirEdit) bucket(h uint64) *dirBucket {
	if d.err != nil {
		return nil
	}
	k := bucketOf(h, d.bits)
	for i := range d.bkts {
		if d.bkts[i].k == k {
			return &d.bkts[i]
		}
	}
	lo, hi, reg, err := d.r.region(h)
	if err != nil {
		d.err = err
		return nil
	}
	n, ok := checkBucket(reg, hi-lo)
	d.seen += n
	for i := range d.bkts {
		ok = ok && (hi <= d.bkts[i].off || lo >= d.bkts[i].off+len(d.bkts[i].reg))
	}
	if !ok || d.seen > d.found || d.bits == 0 && d.seen != d.found {
		if d.relayOut(); d.err != nil {
			return nil
		}
		return d.bucket(h) // laid out by encodeDir: it checks
	}
	d.bkts = append(d.bkts, dirBucket{k: k, off: lo, reg: reg, old: le32(reg)})
	return &d.bkts[len(d.bkts)-1]
}

// checkBucket counts the entries of a region the fences say is want bytes
// long and that reads as reg, and checks that it is all there, with room
// for its used bytes, and that they end where an entry does.
func checkBucket(reg []byte, want int) (n uint64, ok bool) {
	if len(reg) != want || len(reg) < usedSize || le32(reg) > len(reg)-usedSize {
		return 0, false
	}
	ents := bucketEntries(reg)
	_, end, n := scanDir(ents, "")
	return n, end == len(ents)
}

// ents lists every entry, in directory order: those of the buckets the edit
// read, as they now stand, and the others as a listing shows them — read
// whole unless the first read was.
func (d *dirEdit) ents() []dirEnt {
	buf, err := d.r.bytes(0, maxSegRead)
	if err != nil {
		d.err = err
		return nil
	}
	var ents []dirEnt
	walkBuckets(buf, func(k int, reg []byte) {
		for _, b := range d.bkts {
			if b.k == k {
				reg = b.reg
			}
		}
		ents = appendEnts(ents, bucketEntries(reg))
	})
	if !slices.IsSortedFunc(ents, compareEnts) {
		slices.SortStableFunc(ents, compareEnts)
	}
	return ents
}

// relayOut lays the directory out anew, in memory, for the edit's later
// steps to change and flush to lay out again and write whole.
func (d *dirEdit) relayOut() {
	ents := d.ents()
	if d.err != nil {
		return
	}
	d.r = dirReader{pre: encodeDir(ents), whole: true}
	d.bits = bucketBits(uint64(len(ents)))
	d.found, d.count, d.seen, d.bkts, d.relay = uint64(len(ents)), uint64(len(ents)), 0, d.held[:0], true
}

// has reports whether name is bound, as a lookup finds it.
func (d *dirEdit) has(name string) bool {
	b := d.bucket(nameHash(name))
	if b == nil {
		return false
	}
	at, _, _ := scanDir(b.entries(), name)
	return at >= 0
}

// add inserts an entry for a name has did not find, before the first entry
// of its bucket that sorts after it — in the bucket's slack, or, when it
// does not fit there, in memory, for flush to lay the directory out anew.
func (d *dirEdit) add(e DirEntry) {
	h := nameHash(e.Name)
	b := d.bucket(h)
	if b == nil {
		return
	}
	used, n := b.used(), 2+len(e.Name)+entryTail
	ents, at := b.entries(), 0
	for {
		nameEnd, ok := entryAt(ents, at)
		if !ok {
			break
		}
		if c := cmp.Compare(nameHash(ents[at+2:nameEnd]), h); c > 0 || c == 0 && string(ents[at+2:nameEnd]) > e.Name {
			break
		}
		at = nameEnd + entryTail
	}
	if usedSize+used+n > len(b.reg) {
		b.reg = append(b.reg[:usedSize+used:usedSize+used], make([]byte, n)...)
		d.relay = true
	}
	at += usedSize
	copy(b.reg[at+n:], b.reg[at:usedSize+used])
	appendEntry(b.reg[at:at], e) // in place: the region has room
	b.setUsed(used + n)
	d.count++
	d.names = append(d.names, e.Name)
}

// take removes name's entry and returns what it was bound to.
func (d *dirEdit) take(name string) (DirEntry, error) {
	b := d.bucket(nameHash(name))
	if b == nil {
		return DirEntry{}, d.err
	}
	used := b.used()
	at, _, _ := scanDir(b.entries(), name)
	if at < 0 {
		return DirEntry{}, ErrNotExist
	}
	at += usedSize
	e, n := entryOf(b.reg, at, name), 2+len(name)+entryTail
	copy(b.reg[at:], b.reg[at+n:usedSize+used])
	clear(b.reg[usedSize+used-n : usedSize+used])
	b.setUsed(used - n)
	d.count--
	d.names = append(d.names, name)
	return e, nil
}

// bind binds e.Name to e's object — over the ID and type of the entry that
// holds the name, in its place when none does — and returns what the name was
// bound to before, an entry with NilID when it was free.
func (d *dirEdit) bind(e DirEntry) DirEntry {
	b := d.bucket(nameHash(e.Name))
	if b == nil {
		return DirEntry{}
	}
	at, _, _ := scanDir(b.entries(), e.Name)
	if at < 0 {
		d.add(e)
		return DirEntry{}
	}
	at += usedSize
	victim, t := entryOf(b.reg, at, e.Name), at+2+len(e.Name)
	binary.LittleEndian.PutUint64(b.reg[t:], uint64(e.ID))
	b.reg[t+8] = byte(e.Type)
	b.dirty = true
	d.names = append(d.names, e.Name)
	return victim
}

// flush writes what the edit changed, past the header: each bucket it
// changed, with write, or — resized first — the whole directory laid out
// anew, which it returns.  An edit that brought the count below a quarter
// of bucketFill a bucket lays the directory out anew.
func (d *dirEdit) flush(resize func(n int) error, write func(off int, b []byte) error) ([]byte, error) {
	dirty := slices.ContainsFunc(d.bkts, func(b dirBucket) bool { return b.dirty })
	if d.err == nil && (d.relay || dirty && d.bits > 0 && d.count*4 < bucketFill<<d.bits) {
		buf := encodeDir(d.ents())
		if d.err != nil {
			return nil, d.err
		}
		if err := resize(len(buf)); err != nil {
			return nil, err
		}
		d.count = binary.LittleEndian.Uint64(buf[dsCountOff:])
		return buf, write(dsDataOff, buf[dsDataOff:])
	}
	for _, b := range d.bkts {
		if b.dirty && d.err == nil {
			d.err = write(b.off, b.reg[:usedSize+max(b.used(), b.old)])
		}
	}
	return nil, d.err
}

// dirSeg returns the container entry of a directory's segment, whose ID is
// stored in the directory container's metadata, and how many bytes a first
// read of it should ask for.  The binding is immutable once the directory
// exists, so it is served from the sharded dirSegs cache; only the first
// lookup of a directory pays the ObjectStat syscall.
func (sys *System) dirSeg(tc *kernel.ThreadCall, dir kernel.ID) (kernel.CEnt, int, error) {
	shard := &sys.dirSegs[uint64(dir)%dirSegShards]
	shard.mu.RLock()
	ds, ok := shard.m[dir]
	shard.mu.RUnlock()
	if ok {
		return kernel.CEnt{Container: dir, Object: ds.id}, cmp.Or(ds.first, dsPrefix), nil
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
	return kernel.CEnt{Container: dir, Object: ds.id}, dsPrefix, nil
}

// sawDir records that a first read of dir should ask for first bytes.
func (sys *System) sawDir(dir kernel.ID, first int) {
	shard := &sys.dirSegs[uint64(dir)%dirSegShards]
	shard.mu.Lock()
	if ds, ok := shard.m[dir]; ok {
		ds.first = first
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
// unreference the objects the entries name but must not edit dir again.  nt
// is the editing process's name table (nil for none), which the edit keeps
// current.
func (sys *System) editDir(tc *kernel.ThreadCall, nt *nameTable, dir kernel.ID, edit func(*dirEdit) error) error {
	seg, first, err := sys.dirSeg(tc, dir)
	if err != nil {
		return err
	}
	// Steps 1 and 2.  The compare-and-swap is a user-level cmpxchg on the
	// mapped segment: a thread that cannot write it gets ErrPermission here,
	// as the paper describes ("users that cannot write a directory cannot
	// acquire the mutex").
	var pre []byte
	var seq uint64
	for locked := false; !locked; {
		if pre, err = readDir(tc, seg, first); err != nil {
			return err
		}
		seq = binary.LittleEndian.Uint64(pre[dsMutexOff:])
		if locked, err = tc.SegmentCompareSwap(seg, dsMutexOff, seq, seq+1); err != nil {
			return mapKernelErr(err)
		}
	}
	r := segReader(tc, seg, pre, first)
	next := firstRead(pre, r.whole)
	d, count := openDirEdit(r), binary.LittleEndian.Uint64(pre[dsCountOff:])
	kept := true                   // the directory at s+2 is the one at s but for d.names
	if err = edit(d); err == nil { // step 3
		var laid []byte
		laid, err = d.flush(func(n int) error { return sys.segResize(tc, seg, n) },
			func(off int, b []byte) error { return sys.segWrite(tc, seg, off, b) })
		if kept = err == nil; kept {
			count = d.count
			if laid != nil {
				next = firstRead(laid, true)
			}
		}
	}
	if next != first {
		sys.sawDir(dir, next)
	}
	var rel [dsDataOff]byte // step 4: s+2, count
	binary.LittleEndian.PutUint64(rel[dsMutexOff:], seq+2)
	binary.LittleEndian.PutUint64(rel[dsCountOff:], count)
	uerr := tc.SegmentWrite(seg, 0, rel[:])
	if uerr == nil && kept {
		nt.edited(dir, seq, d.names)
	}
	if uerr == nil {
		_, uerr = tc.FutexWake(seg, dsMutexOff, math.MaxInt)
	}
	return mapKernelErr(cmp.Or(err, uerr))
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
// binding nt remembers costs one read of the header instead, and is returned
// when the sequence word there is the one it was read under; the count word
// beside it is read only to see that the segment still holds a header.
func (sys *System) lookupEntry(tc *kernel.ThreadCall, nt *nameTable, dir kernel.ID, name string) (DirEntry, error) {
	if s, ok := nt.get(dir, name); ok {
		h, err := tc.SegmentRead(kernel.CEnt{Container: dir, Object: s.seg}, 0, dsDataOff)
		if err != nil {
			return DirEntry{}, mapKernelErr(err)
		}
		if len(h) == dsDataOff && binary.LittleEndian.Uint64(h[dsMutexOff:]) == s.seq {
			return s.e, nil
		}
	}
	seg, n, err := sys.dirSeg(tc, dir)
	if err != nil {
		return DirEntry{}, err
	}
	for {
		pre, err := readDir(tc, seg, n)
		if err != nil {
			return DirEntry{}, err
		}
		r := segReader(tc, seg, pre, n)
		if next := firstRead(pre, r.whole); next != n {
			sys.sawDir(dir, next)
			n = next
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
			nt.drop(dir, name)
			return DirEntry{}, ErrNotExist
		}
		nt.put(dir, seg.Object, binary.LittleEndian.Uint64(pre[dsMutexOff:]), e)
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
