// Package wal implements the write-ahead log the HiStar single-level store
// uses for crash consistency (Section 4): synchronous updates are queued in
// a sequential on-disk log and applied to their home locations in batches.
// Records are logical — an object ID plus its new contents, the bytes of
// them that changed, or a tombstone — so recovery does not depend on the
// physical layout chosen later by the extent allocator.
//
// # On-disk format (version 9)
//
// The log occupies a fixed region of the disk.  It starts with a 32-byte
// header, written by New, ReclaimBefore, a compaction and a reseal — never by
// a commit:
//
//	off  size  field
//	0    4     magic "HWLO" (0x48574c4f, little endian)
//	4    1     format version (9)
//	5    3     reserved (zero)
//	8    8     generation: 64 random bits; only frames stamped with them
//	           belong to this log
//	16   4     CRC-32C of header bytes 0..15
//	20   8     start offset: bytes after the header where the first live
//	           frame begins (those before it were reclaimed)
//	28   4     CRC-32C of header bytes 20..27
//
// An all-zero header is a fresh region; anything else that fails its checks
// is ErrCorrupt — never silently treated as empty — and any other version
// byte under an intact header CRC is refused with ErrVersion, the region
// left untouched.
//
// Frames follow back to back.  A commit is one frame — Commit is handed the
// whole batch, and the log holds no record before or after the call that is
// not on the device — written at the tail with one write and one flush: a
// 40-byte descriptor, the same descriptor again, the batch's records back to
// back (the payload), and the descriptor a third time — the last bytes down,
// the commit point.  A descriptor is:
//
//	off  size  field
//	0    4     magic "HWFR" (0x48574652, little endian)
//	4    8     generation of the header this frame was written under
//	12   8     epoch the caller committed the frame in; never lower than
//	           the frame before it
//	20   4     offset of this frame, in bytes after the header
//	24   4     payload length
//	28   4     record count
//	32   4     CRC-32C of the payload
//	36   4     CRC-32C of descriptor bytes 0..35
//
// and a record is:
//
//	off  size  field
//	0    8     object ID
//	8    4     data length
//	12   2     label length (0 when the object carries no label)
//	14   1     flags: bit 0 = tombstone, bit 1 = label present,
//	           bit 5 = range (bits 2, 3 and 4 are retired: earlier
//	           versions flagged record kinds with them, bit 3 the store's
//	           clone aliases until version 8)
//	15   4     CRC-32 (IEEE) of bytes 0..15 plus the label and data bytes
//	19   ...   canonical serialized label (label.AppendBinary), then data
//
// A range record carries a store-defined payload (see Record), opaque to the
// log; it is not a tombstone, and its payload is at least 8 bytes.
//
// The epoch is the caller's: the store stamps each frame with the checkpoint
// generation it was committed in, and Recover hands it back on every record
// (Record.Epoch).  ReclaimBefore drops the frames of lower epochs by advancing
// the start offset past them — one crash-atomic header write, no frame moves —
// and compacts the region only when the live suffix fits the dead prefix.  A
// compaction (which re-stamps the frames it moves, epochs kept), a New and a
// reseal each open a new header generation (see adopt): nothing written under
// an earlier one, or under this one at another offset, is taken for a frame
// again, nor are record contents left lying past the tail, whoever wrote them
// — a generation cannot be guessed.
//
// # Recovery
//
// Recover reads the header and walks frames forward from the start offset,
// in bounded sequential reads, until neither leading descriptor verifies for
// this generation at this offset.  A frame with a leading descriptor that
// does verify gets one of three verdicts:
//
//	payload     trailing descriptor  verdict
//	checks out  (not consulted)      verified: its records replay
//	fails       equals the leading   rotted — it was written whole and has decayed:
//	                                 ErrCorrupt, with the records before the damage;
//	                                 the log is resealed to them, a new generation
//	fails       anything else        torn by a crash, never acknowledged: the end of
//	                                 the log, no error
//
// Where the walk ends Recover reads once more.  A descriptor of this
// generation for a frame at or after that point means acknowledged frames lie
// behind leading descriptors that rotted (the twins share a sector): rotted,
// as above.  Otherwise this is the end of the log, no error — which is also
// what a last frame that lost payload and trailer together looks like.
// Recover never panics on arbitrary log bytes (FuzzRecover holds it to that).
package wal

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"

	"histar/internal/disk"
)

// Record is one logged update: the full new contents of an object (plus its
// canonical serialized information-flow label, when it has one), or its
// deletion.
type Record struct {
	ObjectID uint64
	Data     []byte
	// Label is the object's canonical serialized label (label.AppendBinary),
	// or nil for an unlabeled object: opaque bytes under the record CRC.
	Label  []byte
	Delete bool
	// Range marks a range record: Data is the store's offset and bytes to
	// lay over the object's last whole record, not its contents.
	Range bool
	// Epoch is the epoch of the frame Recover read the record from; Commit
	// stamps its own argument instead.
	Epoch uint64
}

var (
	// ErrFull is returned when a commit would overflow the log region.
	// Nothing was written and nothing is kept: the caller checkpoints and
	// reclaims, which makes the records' states durable anyway.
	ErrFull = errors.New("wal: log region full")
	// ErrTooLarge is returned by Commit for a record that could never
	// commit: it would not fit an empty log region, or its label overflows
	// the 16-bit length field.  A checkpoint must provide the durability.
	ErrTooLarge = errors.New("wal: record exceeds log capacity")
	// ErrCorrupt is returned when recovery meets damage; all records before
	// it are still returned.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrVersion is returned when recovery meets an intact header naming a
	// format version this code does not write; the region is left untouched.
	ErrVersion = errors.New("wal: unsupported log format version")
	// ErrInvalid is returned by Commit for an epoch lower than the last
	// frame's: epochs never decrease in log order.
	ErrInvalid = errors.New("wal: epoch lower than the last frame's")
)

const (
	recHeaderSize = 8 + 4 + 2 + 1 + 4 // id, data len, label len, flags, crc
	logHeaderSize = 32
	logMagic      = 0x48574c4f // "HWLO"
	logVersion    = 9
	descSize      = 40
	frameMagic    = 0x48574652 // "HWFR"
	frameOverhead = 3 * descSize
	readChunk     = 256 << 10 // bounds one recovery read; a longer frame takes several

	flagDelete   = 1 << 0
	flagHasLabel = 1 << 1
	flagRange    = 1 << 5
)

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

func crc32c(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Log is a redo log over a fixed region of the disk, safe for concurrent use.
type Log struct {
	mu    sync.Mutex
	d     disk.Device
	start int64
	size  int64

	scratch []byte // the last frame of at most readChunk bytes, kept for its capacity
	gen     uint64 // the header's generation
	tail    int64  // body offset (bytes after the header) of the next frame
	stats   Stats

	// reclaimOff is the body offset where the live frames begin (the
	// header's start offset): what lies before it is reclaimed, not yet compacted.
	reclaimOff int64
	// runs holds, for each run of live frames of one epoch, in log order, the
	// epoch and the body offset of its first frame: where ReclaimBefore cuts.
	runs []run
}

// run is where a run of frames of one epoch begins.
type run struct {
	epoch uint64
	off   int64
}

// New creates a log over the region [start, start+size) of d and writes a
// fresh header.  Any previous log contents are discarded.
func New(d disk.Device, start, size int64) (*Log, error) {
	l := Open(d, start, size)
	if err := l.restart(); err != nil {
		return nil, err
	}
	return l, nil
}

// Open attaches to an existing log region without erasing it; Recover reads
// back its committed records and must run before anything is appended.
func Open(d disk.Device, start, size int64) *Log {
	return &Log{d: d, start: start, size: size}
}

// newGeneration draws a generation: 64 random bits, so that nothing already
// in the region names it — no earlier frame, and no record contents, which
// untrusted code writes and a New leaves lying past the tail.
func newGeneration() uint64 {
	var b [8]byte
	rand.Read(b[:]) // cannot fail: crypto/rand stops the program instead
	return le.Uint64(b[:])
}

// capacity is the room for frames; offsets and lengths are 32 bits, so 4 GiB at most.
func (l *Log) capacity() int64 { return min(l.size, math.MaxUint32) - logHeaderSize }

// pos maps a body offset to a device offset.
func (l *Log) pos(off int64) int64 { return l.start + logHeaderSize + off }

// writeThrough writes b at device offset at and flushes.
func (l *Log) writeThrough(b []byte, at int64) error {
	if _, err := l.d.WriteAt(b, at); err != nil {
		return err
	}
	return l.d.Flush()
}

// adopt makes frames, stamped gen for body offset at onwards, the whole log
// (none: an empty log).  It writes them where the caller has made sure the
// on-disk header references nothing, then the header that names them, and
// only when that has succeeded adopts them in memory: a crash leaves the old
// log or the new, and no commit is ever stamped with a generation the
// platter may not hold.  The caller holds l.mu and brings the runs along.
func (l *Log) adopt(gen uint64, frames []byte, at int64) error {
	if len(frames) > 0 {
		if err := l.writeThrough(frames, l.pos(at)); err != nil {
			return err
		}
	}
	if err := l.writeHeader(gen, at); err != nil {
		// Which header the platter holds is now unknown; nothing more is
		// acknowledged (the log reads as full) until one is written.
		l.tail = l.capacity()
		return err
	}
	l.gen, l.tail, l.reclaimOff = gen, at+int64(len(frames)), at
	return nil
}

// writeHeader writes the header for generation gen with its first frame at
// body offset start, and changes nothing in memory.
func (l *Log) writeHeader(gen uint64, start int64) error {
	var hdr [logHeaderSize]byte
	le.PutUint32(hdr[0:], logMagic)
	hdr[4] = logVersion
	le.PutUint64(hdr[8:], gen)
	le.PutUint32(hdr[16:], crc32c(hdr[:16]))
	le.PutUint64(hdr[20:], uint64(start))
	le.PutUint32(hdr[28:], crc32c(hdr[20:28]))
	return l.writeThrough(hdr[:], l.start)
}

// restart opens an empty log under a new generation; the caller holds l.mu.
func (l *Log) restart() error {
	l.runs = l.runs[:0]
	return l.adopt(newGeneration(), nil, 0)
}

// TooLarge reports whether r could never commit even in an empty log region
// (the ErrTooLarge criterion), so callers can check before sealing a record
// into a shared batch.  It reads nothing that changes: no lock.
func (l *Log) TooLarge(r Record) bool {
	return r.EncodedSize()+frameOverhead > l.capacity() || len(r.Label) > 0xffff
}

// appendRecord encodes r, as on disk, onto f.
func appendRecord(f []byte, r Record) []byte {
	var hdr [recHeaderSize]byte
	le.PutUint64(hdr[0:], r.ObjectID)
	le.PutUint32(hdr[8:], uint32(len(r.Data)))
	le.PutUint16(hdr[12:], uint16(len(r.Label)))
	if r.Delete {
		hdr[14] |= flagDelete
	}
	if len(r.Label) > 0 {
		hdr[14] |= flagHasLabel
	}
	if r.Range {
		hdr[14] |= flagRange
	}
	at := len(f)
	f = append(append(append(f, hdr[:]...), r.Label...), r.Data...)
	le.PutUint32(f[at+15:], recordCRC(f[at:]))
	return f
}

// recordCRC is a record's checksum: over its header up to the CRC field, then label and data.
func recordCRC(rec []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(rec[:15]), crc32.IEEETable, rec[recHeaderSize:])
}

// EncodedSize returns the record's on-disk size, letting callers bound the
// byte size of a group-commit batch before appending it.
func (r Record) EncodedSize() int64 {
	return recHeaderSize + int64(len(r.Label)) + int64(len(r.Data))
}

// Commit durably appends recs to the log as one frame stamped with epoch: one
// sequential write at the tail and one flush, the header untouched.  Once it
// returns nil the records survive a crash and Recover returns them; on any
// error none of them is in the log and the log keeps none (see ErrFull,
// ErrTooLarge, ErrInvalid).  This is the group-commit fast path: many
// syncers' records, one write and flush.
func (l *Log) Commit(epoch uint64, recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(recs) == 0 {
		return nil
	}
	if n := len(l.runs); n > 0 && epoch < l.runs[n-1].epoch {
		return ErrInvalid
	}
	for _, r := range recs {
		if l.TooLarge(r) {
			return ErrTooLarge
		}
	}
	n := frameSize(recs)
	if l.tail+n > l.capacity() {
		// A reclaimed-but-uncompacted prefix may be holding the space this
		// commit needs; compact it away before giving up.
		if err := l.compactLocked(); err != nil {
			return err
		}
	}
	if l.tail+n > l.capacity() {
		return ErrFull
	}
	at := l.tail
	frame := appendFrame(l.scratch[:0], recs, l.gen, epoch, at)
	if n <= readChunk {
		l.scratch = frame // a larger frame's own array is dropped after the write
	}
	if err := l.writeThrough(frame, l.pos(at)); err != nil {
		return err
	}
	// The tail moves only now: a frame whose flush failed is never
	// acknowledged, and the next one is written over it.
	l.tail += n
	l.noteFrame(epoch, at)
	l.stats.Commits++
	return nil
}

// noteFrame records that a frame of epoch begins at body offset off, the
// tail's frame; the caller holds l.mu.
func (l *Log) noteFrame(epoch uint64, off int64) {
	if n := len(l.runs); n == 0 || l.runs[n-1].epoch != epoch {
		l.runs = append(l.runs, run{epoch, off})
	}
}

// frameSize is the on-disk size of the frame holding recs.
func frameSize(recs []Record) int64 {
	n := int64(frameOverhead)
	for _, r := range recs {
		n += r.EncodedSize()
	}
	return n
}

// appendFrame encodes recs onto b as the frame of generation gen and epoch
// at body offset off.  Commit's frame is the only copy of the records' bytes
// made before the device's, in a buffer the next frame reuses.
func appendFrame(b []byte, recs []Record, gen, epoch uint64, off int64) []byte {
	at := len(b)
	f := slices.Grow(b, int(frameSize(recs)))[:at+2*descSize]
	for _, r := range recs {
		f = appendRecord(f, r)
	}
	payload := f[at+2*descSize:]
	f = f[:len(f)+descSize]
	d := descriptor{gen: gen, epoch: epoch, off: off, n: int64(len(payload)), count: len(recs), check: crc32c(payload)}
	d.stamp(f[at:])
	return f
}

// descriptor is what a frame says about itself.
type descriptor struct {
	gen   uint64 // generation of the header it was written under
	epoch uint64 // the epoch it was committed in
	off   int64  // body offset of the frame
	n     int64  // payload length
	count int    // records in the payload
	check uint32 // CRC-32C of the payload
}

// stamp writes d as all three descriptors of the frame at the front of b.
func (d descriptor) stamp(b []byte) {
	h := b[:descSize]
	le.PutUint32(h[0:], frameMagic)
	le.PutUint64(h[4:], d.gen)
	le.PutUint64(h[12:], d.epoch)
	le.PutUint32(h[20:], uint32(d.off))
	le.PutUint32(h[24:], uint32(d.n))
	le.PutUint32(h[28:], uint32(d.count))
	le.PutUint32(h[32:], d.check)
	le.PutUint32(h[36:], crc32c(h[:36]))
	copy(b[descSize:], h)
	copy(b[2*descSize+d.n:], h)
}

// parse decodes the descriptor at the front of h, if an intact one is there.
func parse(h []byte) (d descriptor, ok bool) {
	if le.Uint32(h[0:]) != frameMagic || le.Uint32(h[36:]) != crc32c(h[:36]) {
		return d, false
	}
	d.gen, d.epoch, d.off = le.Uint64(h[4:]), le.Uint64(h[12:]), int64(le.Uint32(h[20:]))
	d.n, d.count, d.check = int64(le.Uint32(h[24:])), int(le.Uint32(h[28:])), le.Uint32(h[32:])
	return d, true
}

// leading returns whichever of the two leading descriptors in b is intact
// and names a frame of generation gen at body offset off.
func leading(b []byte, gen uint64, off int64) (descriptor, bool) {
	for _, h := range [][]byte{b[:descSize], b[descSize : 2*descSize]} {
		if d, ok := parse(h); ok && d.gen == gen && d.off == off {
			return d, true
		}
	}
	return descriptor{}, false
}

// ReclaimBefore drops every frame of an epoch lower than epoch: a single
// crash-atomic header write advances the start offset to the first frame of
// epoch or higher (to the tail when there is none), then the region is
// compacted if the live suffix fits inside the dead prefix.
func (l *Log) ReclaimBefore(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := 0
	for i < len(l.runs) && l.runs[i].epoch < epoch {
		i++
	}
	off := l.tail
	if i < len(l.runs) {
		off = l.runs[i].off
	}
	if off > l.reclaimOff {
		if err := l.writeHeader(l.gen, off); err != nil {
			return err
		}
		l.reclaimOff = off
		l.runs = slices.Delete(l.runs, 0, i)
		l.stats.Reclaims++
	}
	return l.compactLocked()
}

// compactLocked removes the reclaimed dead prefix by copying the live frames
// to the front of the region, re-stamped for their new offsets under a new
// generation, but only when the two do not overlap: the copy then lands in
// bytes the on-disk header no longer references (see adopt).  Holds l.mu.
func (l *Log) compactLocked() error {
	live := l.tail - l.reclaimOff
	if l.reclaimOff == 0 || live > l.reclaimOff {
		return nil
	}
	buf, err := l.read(l.reclaimOff, live)
	if err != nil {
		return err
	}
	gen := newGeneration()
	for p := int64(0); p < live; {
		if live-p < frameOverhead {
			return nil
		}
		d, ok := leading(buf[p:], l.gen, l.reclaimOff+p)
		if !ok || d.n > live-p-frameOverhead {
			return nil // rot in the live frames: leave them for Recover to judge
		}
		d.gen, d.off = gen, p
		d.stamp(buf[p:])
		p += frameOverhead + d.n
	}
	moved := l.reclaimOff
	if err := l.adopt(gen, buf, 0); err != nil {
		return err
	}
	for i := range l.runs {
		l.runs[i].off -= moved
	}
	l.stats.Compactions++
	return nil
}

// LiveBytes returns the committed bytes recovery would replay: the frames
// written less any reclaimed dead prefix.
func (l *Log) LiveBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail - l.reclaimOff
}

// read returns the n bytes at body offset off, in device reads of at most readChunk each.
func (l *Log) read(off, n int64) ([]byte, error) {
	buf := make([]byte, n)
	for p := int64(0); p < n; p += readChunk {
		if _, err := l.d.ReadAt(buf[p:min(p+readChunk, n)], l.pos(off+p)); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Recover reads the committed records back from the log region (after a
// crash or restart), judging each frame by the package comment's table.
// When it reports rot it has resealed the log to the records it returns.
func (l *Log) Recover() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var hdr [logHeaderSize]byte
	if _, err := l.d.ReadAt(hdr[:], l.start); err != nil {
		return nil, err
	}
	startOff := int64(le.Uint64(hdr[20:]))
	switch {
	case hdr == [logHeaderSize]byte{}:
		// Fresh region.  Commits do not write the header: it goes down now.
		return nil, l.restart()
	case le.Uint32(hdr[0:]) != logMagic:
		// Non-zero but wrong magic is damage, not a fresh region: the log
		// is resealed empty, and not silently.
		return l.reseal(nil, 0, "bad magic in the log header")
	case crc32c(hdr[:16]) != le.Uint32(hdr[16:]):
		// Checked before trusting any header field, the version byte
		// included: a mismatch means rot, whatever version it spells.
		return l.reseal(nil, 0, "log header checksum mismatch")
	case hdr[4] != logVersion:
		// An intact header for a format this code does not speak: leave the
		// region untouched, so the code that wrote it can still recover.
		return nil, fmt.Errorf("%w %d", ErrVersion, hdr[4])
	case crc32c(hdr[20:28]) != le.Uint32(hdr[28:]), startOff < 0 || startOff > l.capacity():
		return l.reseal(nil, 0, "bad start offset in the log header")
	}
	l.gen, l.tail, l.reclaimOff = le.Uint64(hdr[8:]), startOff, startOff
	l.runs = l.runs[:0]
	var recs []Record
	for l.tail+frameOverhead <= l.capacity() {
		lead, err := l.read(l.tail, 2*descSize)
		if err != nil {
			return recs, err
		}
		d, ok := leading(lead, l.gen, l.tail)
		if !ok || d.n > l.capacity()-l.tail-frameOverhead {
			break
		}
		body, err := l.read(l.tail+2*descSize, d.n+descSize)
		if err != nil {
			return recs, err
		}
		frs, derr := decodeRecords(body[:d.n], d.epoch)
		if derr != nil || len(frs) != d.count || crc32c(body[:d.n]) != d.check {
			if t, ok := parse(body[d.n:]); !ok || t != d {
				break // torn, never acknowledged: the log ends before it
			}
			what := fmt.Sprintf("frame at log offset %d rotted after record %d of %d", l.tail, len(frs), d.count)
			return l.reseal(append(recs, frs...), l.tail+frameOverhead+d.n, what)
		}
		recs = append(recs, frs...)
		l.noteFrame(d.epoch, l.tail)
		l.tail += frameOverhead + d.n
	}
	// The walk ended without complaint; look one read further for frames
	// that rotted leading descriptors at the tail would be hiding.
	ahead, err := l.read(l.tail, min(readChunk, l.capacity()-l.tail))
	if err != nil {
		return recs, err
	}
	for p := 2 * descSize; p+descSize <= len(ahead); p++ {
		if d, ok := parse(ahead[p:]); ok && d.gen == l.gen && d.off >= l.tail {
			what := fmt.Sprintf("frame at log offset %d lost its leading descriptors", l.tail)
			return l.reseal(recs, l.tail+int64(p+descSize), what)
		}
	}
	return recs, nil
}

// reseal makes recs — what Recover could read before the rot that what
// describes — the log's contents, one frame per run of records of one epoch,
// under a new generation, and returns them with ErrCorrupt.  The frames go
// where running this recovery again would read nothing: the dead prefix if
// they fit there, otherwise from end on (see adopt).  When they fit nowhere
// the region is left as it is, to be judged the same way again, and the log
// reads as full, so that nothing is appended behind the rot before
// ReclaimBefore cuts past it.  The caller holds l.mu.
func (l *Log) reseal(recs []Record, end int64, what string) ([]Record, error) {
	var groups [][]Record // recs cut into runs of one epoch
	n := int64(0)
	for rest := recs; len(rest) > 0; {
		k := 1
		for k < len(rest) && rest[k].Epoch == rest[0].Epoch {
			k++
		}
		groups, n, rest = append(groups, rest[:k]), n+frameSize(rest[:k]), rest[k:]
	}
	at := end
	if n <= l.reclaimOff {
		at = 0
	} else if at+n > l.capacity() {
		l.tail, l.reclaimOff = l.capacity(), 0
		return recs, fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
	gen := newGeneration()
	var frames []byte
	var runs []run
	for _, g := range groups {
		off := at + int64(len(frames))
		runs = append(runs, run{g[0].Epoch, off})
		frames = appendFrame(frames, g, gen, g[0].Epoch, off)
	}
	if err := l.adopt(gen, frames, at); err != nil {
		return recs, err
	}
	l.runs = runs
	return recs, fmt.Errorf("%w: %s", ErrCorrupt, what)
}

// Stats describes cumulative log activity.
type Stats struct {
	Commits     uint64 // successful commits (each one frame write + flush)
	Reclaims    uint64 // ReclaimBefore calls that advanced the start offset
	Compactions uint64 // dead-prefix compactions (there or in a would-be-full Commit)
}

// Stats returns the cumulative counts.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// decodeRecords decodes the payload of a frame of epoch, returning the records
// decoded (Data and Label alias buf) and ErrCorrupt if damage stopped it early.
func decodeRecords(buf []byte, epoch uint64) ([]Record, error) {
	var out []Record
	for len(buf) > 0 {
		if len(buf) < recHeaderSize {
			return out, ErrCorrupt
		}
		id := le.Uint64(buf[0:])
		nd := int(le.Uint32(buf[8:]))
		nl := int(le.Uint16(buf[12:]))
		flags := buf[14]
		switch {
		case flags&^byte(flagDelete|flagHasLabel|flagRange) != 0,
			(flags&flagHasLabel != 0) != (nl > 0),
			// A range is not a tombstone, and holds at least its offset.
			flags&flagRange != 0 && (flags&flagDelete != 0 || nd < 8),
			nd < 0 || len(buf) < recHeaderSize+nl+nd:
			return out, ErrCorrupt
		}
		rec := buf[:recHeaderSize+nl+nd]
		if recordCRC(rec) != le.Uint32(rec[15:]) {
			return out, ErrCorrupt
		}
		r := Record{
			ObjectID: id,
			Delete:   flags&flagDelete != 0,
			Range:    flags&flagRange != 0,
			Epoch:    epoch,
		}
		if nd > 0 {
			r.Data = rec[recHeaderSize+nl:]
		}
		if nl > 0 {
			r.Label = rec[recHeaderSize : recHeaderSize+nl]
		}
		out = append(out, r)
		buf = buf[len(rec):]
	}
	return out, nil
}
