package store

// The on-disk format, all of it: every layout constant, encoder and decoder
// of the superblock, the chain's run headers and records — a base is a
// record of every row, a delta one of the rows that changed, and one codec
// writes and reads both — and the range body that rides in write-ahead log
// records (whose framing belongs to package wal); doc.go has the layouts in
// prose.  Encoders run in the checkpoint body, under mu while a log record is
// sealed, or in Format; decoders in Open and, to verify, in Scrub under
// ckptRun.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/bits"

	"histar/internal/label"
)

// castagnoli is the CRC32C table every store checksum shares.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc32c(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Superblock: the page at offset 0 holds two identical 80-byte checksummed
// copies (primary at offset 0, backup at offset 512, each in its own
// sector).  Field offsets within one copy (little-endian u64s unless noted).
const (
	sbCopySize   = 80
	sbBackupOff  = 512 // second copy sits in its own sector
	sbMagicOff   = 0
	sbChainOff   = 8 // the current base's chain id
	sbLogSizeOff = 16
	sbVersionOff = 24
	sbEpochOff   = 32
	sbBaseOff    = 40 // the current base's extent: offset, then length
	sbPrevOff    = 56 // the previous base's extent
	sbCRCOff     = 72 // u32 CRC32C over bytes [0, 72)

	superMagic   = 0x48495354 // "HIST"
	superVersion = 5
)

// Flags in the CRC field of a home row, above the CRC's 32 bits.  objCRCValid
// says the field carries a contents checksum: every row written has it, and
// a decoded row without it is corruption.  objLabeled says the object's
// canonical label follows the row.  A row with any higher bit set is
// corruption.
const (
	objCRCValid = uint64(1) << 32
	objLabeled  = uint64(1) << 33
)

// The chain: a run header is one sector of u64s — chain id, link, epoch,
// the record's offset, length and CRC — and a u32 CRC32C over those 48
// bytes.  A chain record, base or delta, is its epoch, its chain id and the
// sector of the run header after it, the counted home, segment and pin rows,
// zeros, and a u64 CRC32C over all before it, in whole sectors.
const (
	runHeaderSize = 512
	rhCRCOff      = 48
	segRowSize    = 24 // a segment row: base, size, used
)

// superblockInfo is one parsed superblock copy.
type superblockInfo struct {
	chain      uint64
	logSize    int64
	epoch      uint64
	base, prev extent // the current base's extent and the previous one's
}

// encodeSuperblockCopy builds one 80-byte checksummed copy.
func encodeSuperblockCopy(info superblockInfo) []byte {
	b := make([]byte, 0, sbCopySize)
	for _, v := range []uint64{superMagic, info.chain, uint64(info.logSize), superVersion, info.epoch,
		uint64(info.base.off), uint64(info.base.size), uint64(info.prev.off), uint64(info.prev.size)} {
		b = appendU64(b, v)
	}
	return binary.LittleEndian.AppendUint32(b, crc32c(b))[:sbCopySize]
}

// parseSuperblockCopy validates one copy at device offset off: magic, then
// the CRC over every field, then the version and the two bases' extents —
// no field of a copy that fails its CRC is interpreted.
func parseSuperblockCopy(b []byte, off int64) (info superblockInfo, err error) {
	u64 := func(at int) uint64 { return binary.LittleEndian.Uint64(b[at:]) }
	want := binary.LittleEndian.Uint32(b[sbCRCOff:])
	switch got := crc32c(b[:sbCRCOff]); {
	case u64(sbMagicOff) != superMagic:
		return info, corrupt("superblock", off+sbMagicOff, "bad magic: got %#x, want %#x", u64(sbMagicOff), uint64(superMagic))
	case got != want:
		return info, corrupt("superblock", off+sbCRCOff, "checksum mismatch: got %#x, want %#x", got, want)
	case u64(sbVersionOff) != superVersion:
		return info, corrupt("superblock", off+sbVersionOff, "unsupported superblock version %d", u64(sbVersionOff))
	}
	info = superblockInfo{chain: u64(sbChainOff), logSize: int64(u64(sbLogSizeOff)), epoch: u64(sbEpochOff),
		base: extent{int64(u64(sbBaseOff)), int64(u64(sbBaseOff + 8))}, prev: extent{int64(u64(sbPrevOff)), int64(u64(sbPrevOff + 8))}}
	for i, e := range []extent{info.base, info.prev} {
		if e.off < logOffset+max(info.logSize, 0) || e.off%runHeaderSize != 0 || e.size <= 0 || e.size%runHeaderSize != 0 {
			return info, corrupt("superblock", off+sbBaseOff+16*int64(i), "base extent at %d (size %d) is not whole sectors past the log", e.off, e.size)
		}
	}
	return info, nil
}

// appendU64 is the codecs' little-endian primitive.
func appendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// appendHome writes one home row: id, offset, size and the CRC field, then
// the label when there is one (lbl, encoded canonically).
func appendHome(buf []byte, id uint64, h home, lbl []byte) []byte {
	flags := objCRCValid
	if lbl != nil {
		flags |= objLabeled
	}
	buf = appendU64(appendU64(appendU64(buf, id), uint64(h.off)), uint64(h.size))
	return append(appendU64(buf, flags|uint64(h.crc)), lbl...)
}

// appendSeg writes one segment row: base, size, used.
func appendSeg(buf []byte, seg *segment) []byte {
	return appendU64(appendU64(appendU64(buf, uint64(seg.base)), uint64(seg.size)), uint64(seg.used))
}

// rowReader walks one record.  Its error is sticky: the first violation is
// kept as a CorruptError at off, and every read after it returns zero, so a
// decoder checks err once per row and a damaged count cannot spin.
type rowReader struct {
	buf []byte
	off int64 // device offset the record was read from, for error reports
	err error
}

func (r *rowReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = corrupt("chain", r.off, format, args...)
	}
}

func (r *rowReader) u64() uint64 {
	if len(r.buf) < 8 {
		r.fail("truncated: %d bytes left where a u64 is due", len(r.buf))
	}
	if r.err != nil {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// home consumes one home row (appendHome's inverse); its label aliases the
// record.
func (r *rowReader) home() homedObject {
	id, off, size, crcField := r.u64(), r.u64(), r.u64(), r.u64()
	switch {
	case r.err != nil:
	case crcField&objCRCValid == 0:
		r.fail("extent at offset %d recorded without a contents checksum", off)
	case crcField>>34 != 0:
		r.fail("object %d recorded with unknown flags %#x", id, crcField>>32)
	}
	h := homedObject{id: id, home: home{off: int64(off), size: int64(size), crc: uint32(crcField)}}
	if r.err == nil && crcField&objLabeled != 0 {
		_, rest, err := label.DecodeBinary(r.buf)
		if err != nil {
			r.fail("label of object %d does not decode: %v", id, err)
			return h
		}
		h.lbl, r.buf = r.buf[:len(r.buf)-len(rest)], rest
	}
	return h
}

// homes consumes a count and that many home rows, ascending by ID.
func (r *rowReader) homes() (out []homedObject) {
	for n := r.u64(); n > 0 && r.err == nil; n-- {
		if h := r.home(); r.err == nil && len(out) > 0 && h.id <= out[len(out)-1].id {
			r.fail("object %d out of ID order", h.id)
		} else if r.err == nil {
			out = append(out, h)
		}
	}
	return out
}

// segs consumes a count and that many segment rows, each of a possible
// geometry and starting past the end of the one before it.
func (r *rowReader) segs() (out []*segment) {
	var end uint64
	for n := r.u64(); n > 0 && r.err == nil; n-- {
		base, size, used := r.u64(), r.u64(), r.u64()
		switch {
		case r.err != nil:
		case used > size || base > 1<<62 || size > 1<<62 || base < end:
			r.fail("segment at %d (size %d, used %d) has impossible geometry or overlaps the one before it", base, size, used)
		default:
			out, end = append(out, &segment{base: int64(base), size: int64(size), used: int64(used)}), base+size
		}
	}
	return out
}

// runHeader is one run header.
type runHeader struct {
	chain, link, epoch uint64
	off, len           int64  // the delta's extent
	sum                uint32 // the delta's CRC32C
}

// nextLink is the link the run header after rh carries.
func (rh runHeader) nextLink() uint64 { return rh.chain ^ (rh.epoch<<32 | uint64(rh.sum)) }

func encodeRunHeader(rh runHeader) []byte {
	b := make([]byte, 0, runHeaderSize)
	for _, v := range []uint64{rh.chain, rh.link, rh.epoch, uint64(rh.off), uint64(rh.len), uint64(rh.sum)} {
		b = appendU64(b, v)
	}
	return binary.LittleEndian.AppendUint32(b, crc32c(b))[:runHeaderSize]
}

// parseRunHeader reads the run header in b: ok when its CRC verifies and it
// carries link, or is the first of chain first; damaged when not, yet its
// link is within a few bits of one of those: rot, not an unwritten sector.
func parseRunHeader(b []byte, link, first uint64) (rh runHeader, ok, damaged bool) {
	if len(b) < runHeaderSize {
		return rh, false, false
	}
	r := &rowReader{buf: b}
	rh = runHeader{chain: r.u64(), link: r.u64(), epoch: r.u64(), off: int64(r.u64()), len: int64(r.u64()), sum: uint32(r.u64())}
	if (rh.link == link || rh.link == first && rh.chain == first) && crc32c(b[:rhCRCOff]) == binary.LittleEndian.Uint32(b[rhCRCOff:]) {
		return rh, true, false
	}
	return rh, false, bits.OnesCount64(rh.link^link) <= 8 || bits.OnesCount64(rh.link^first) <= 8
}

// record is one chain record.  A base holds every home and segment row of
// its snapshot and pins the chain it ends; a delta holds the rows its
// checkpoint changed, ascending, where a home at offset 0 or a segment of
// size 0 has left, and no pins.  chain and next name the run header after
// the record: for a base, its chain's first.
type record struct {
	epoch, chain uint64
	next         int64
	homes        []homedObject
	segs         []*segment
	pins         []extent
}

// appendRecord appends r to buf, padded to size bytes with its CRC last
// (size 0: just the rows, to measure them).  Each home carries the label
// sealed with its contents, so a base is its epoch's even as puts proceed.
func appendRecord(buf []byte, r *record, size int64) []byte {
	start := len(buf)
	buf = appendU64(appendU64(appendU64(appendU64(buf, r.epoch), r.chain), uint64(r.next)), uint64(len(r.homes)))
	for _, h := range r.homes {
		buf = appendHome(buf, h.id, h.home, h.lbl)
	}
	buf = appendU64(buf, uint64(len(r.segs)))
	for _, seg := range r.segs {
		buf = appendSeg(buf, seg)
	}
	buf = appendU64(buf, uint64(len(r.pins)))
	for _, e := range r.pins {
		buf = appendU64(appendU64(buf, uint64(e.off)), uint64(e.size))
	}
	if size == 0 {
		return buf
	}
	buf = append(buf, make([]byte, start+int(size)-8-len(buf))...)
	return appendU64(buf, uint64(crc32c(buf[start:])))
}

// recordSize is the extent a record of r's rows takes, measured in buf:
// whole sectors, with room for its CRC and the one segment row its own
// placement can add.
func recordSize(buf []byte, r *record) int64 {
	return align512(int64(len(appendRecord(buf[:0], r, 0))) + 8 + segRowSize)
}

// recordSum returns the CRC in a record's last 8 bytes, and whether it holds.
func recordSum(b []byte) (uint32, bool) {
	if len(b) < 8 {
		return 0, false
	}
	sum := binary.LittleEndian.Uint64(b[len(b)-8:])
	return uint32(sum), sum == uint64(crc32c(b[:len(b)-8]))
}

// decodeRecord decodes a record read from device offset off, whose CRC the
// caller verified; whatever follows its rows must be zeros.  How the rows lie
// against the tables and the data region is the caller's check.
func decodeRecord(b []byte, off int64) (r record, err error) {
	rd := &rowReader{buf: b[:max(len(b)-8, 0)], off: off}
	r.epoch, r.chain, r.next = rd.u64(), rd.u64(), int64(rd.u64())
	r.homes, r.segs = rd.homes(), rd.segs()
	for n := rd.u64(); n > 0 && rd.err == nil; n-- {
		if e := (extent{int64(rd.u64()), int64(rd.u64())}); rd.err == nil {
			r.pins = append(r.pins, e)
		}
	}
	if rd.err == nil && len(bytes.TrimLeft(rd.buf, "\x00")) != 0 {
		rd.fail("%d bytes after the record's rows are not padding", len(rd.buf))
	}
	return r, rd.err
}

// encodeRangeBody is the payload of a WAL range record: the u64 offset of
// the changed bytes, then the bytes.
func encodeRangeBody(off int, b []byte) []byte {
	return append(appendU64(make([]byte, 0, 8+len(b)), uint64(off)), b...)
}

// applyRangeBody lays a range record's bytes over dst, the object's replayed
// contents, and reports whether they fit there; if not, dst is unchanged.
func applyRangeBody(dst, data []byte) bool {
	n := len(data) - 8
	if n < 0 || n > len(dst) || binary.LittleEndian.Uint64(data) > uint64(len(dst)-n) {
		return false
	}
	copy(dst[binary.LittleEndian.Uint64(data):], data[8:])
	return true
}
