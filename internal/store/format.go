package store

// The on-disk format, all of it: every layout constant, encoder and decoder
// of the superblock, the bases, the chain's run headers and deltas, and the
// range body that rides in write-ahead log records (whose framing belongs to
// package wal); doc.go has the layouts in prose.  Encoders run in the
// checkpoint body, under mu while a log record is sealed, or in Format;
// decoders in Open and, to verify, in Scrub under ckptRun.

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
	superVersion = 4
)

// Base: a 64-byte checksummed, epoch-stamped header, then the section
// stream, in whole sectors of the data region: the whole image at its epoch,
// the id of the chain of deltas that follows it, and the sector of that
// chain's first run header.
const (
	metaMagic      = 0x484d4554 // "HMET"
	metaVersion    = 10
	metaHeaderSize = 64
	mhMagicOff     = 0
	mhVersionOff   = 8
	mhEpochOff     = 16
	mhPayloadOff   = 24 // payload byte length (sections, after this header)
	mhSectionsOff  = 32 // section count
	mhChainOff     = 40 // the chain id, random per base
	mhRunOff       = 48 // the sector of the chain's first run header
	mhCRCOff       = 56 // u32 CRC32C over bytes [0, 56)

	// Section tags.  Each section is [tag u64][len u64][crc u64: low 32
	// bits CRC32C of the payload][payload], and an image holds each tag
	// exactly once.  Retired, never to be reused: 2 (the free extents, to
	// version 6), 3 (the labels, to version 8), 4 (a label index, to
	// version 4) and 6 (snapshot pins, to version 5).
	secObjMap  = 1
	secSegs    = 5
	secPins    = 7
	numSecs    = 3
	secHdrSize = 24
	segRowSize = 24 // a segment row: base, size, used

	// Flags in the CRC field of a home record, above the CRC's 32 bits.
	// objCRCValid says the field carries a contents checksum: every record
	// written has it, and a decoded record without it is corruption.
	// objLabeled says the object's canonical label follows the record.  A
	// record with any higher bit set is corruption.
	objCRCValid = uint64(1) << 32
	objLabeled  = uint64(1) << 33
)

// The chain: a run header is one sector of u64s — chain id, link, epoch,
// the delta's offset, length and CRC — and a u32 CRC32C over those 48 bytes.
// A delta is its magic, epoch and the next run header's sector, the counted
// home and segment rows it changed, zeros, and a u64 CRC, in whole sectors.
const (
	deltaMagic    = 0x48444c54 // "HDLT"
	runHeaderSize = 512
	rhCRCOff      = 48
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

// appendHome writes one object-map record: id, offset, size and the CRC
// field, then the label when there is one (lbl, encoded canonically).
func appendHome(buf []byte, id uint64, h home, lbl []byte) []byte {
	flags := objCRCValid
	if lbl != nil {
		flags |= objLabeled
	}
	buf = appendU64(appendU64(appendU64(buf, id), uint64(h.off)), uint64(h.size))
	return append(appendU64(buf, flags|uint64(h.crc)), lbl...)
}

// sectionReader walks one payload.  Its error is sticky: the first violation
// is kept as a CorruptError at off, and every read after it returns zero, so
// a decoder checks err once per entry and a damaged count cannot spin.
type sectionReader struct {
	buf  []byte
	off  int64 // device offset the payload was read from, for error reports
	area string
	err  error
}

func (r *sectionReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = corrupt(r.area, r.off, format, args...)
	}
}

func (r *sectionReader) u64() uint64 {
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

// bytes consumes the next n bytes (aliasing the payload).
func (r *sectionReader) bytes(n uint64) []byte {
	if n > uint64(len(r.buf)) {
		r.fail("length %d overruns the %d bytes left", n, len(r.buf))
	}
	if r.err != nil {
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// home consumes one object-map record (appendHome's inverse); its label
// aliases the payload.
func (r *sectionReader) home() homedObject {
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

// encodeMetadata serializes a base, whose chain id is chain and whose chain
// starts at the sector nextRun, into the last image's buffer, which the
// device copied; the caller holds mu.  Each home carries the label sealed
// with its contents, so the image is the sealed epoch's even as concurrent
// puts proceed.
func (s *Store) encodeMetadata(epoch, chain uint64) []byte {
	img := s.img[:0]
	// section appends one section, its entries counted by add, and frames it.
	section := func(tag uint64, add func() uint64) {
		at := len(img)
		img = append(img, make([]byte, secHdrSize+8)...)
		n := add()
		binary.LittleEndian.PutUint64(img[at+secHdrSize:], n)
		binary.LittleEndian.PutUint64(img[at:], tag)
		binary.LittleEndian.PutUint64(img[at+8:], uint64(len(img)-at-secHdrSize))
		binary.LittleEndian.PutUint64(img[at+16:], uint64(crc32c(img[at+secHdrSize:])))
	}
	img = append(img, make([]byte, metaHeaderSize)...)
	section(secObjMap, func() uint64 {
		for _, h := range s.homes {
			img = appendHome(img, h.id, h.home, h.lbl)
		}
		return uint64(len(s.homes))
	})
	section(secSegs, func() uint64 {
		for _, seg := range s.segs {
			img = appendSeg(img, seg)
		}
		return uint64(len(s.segs))
	})
	// The chain this base ends stays pinned while this base is the newest.
	section(secPins, func() uint64 {
		pins := s.ended()
		for _, e := range pins {
			img = appendU64(appendU64(img, uint64(e.off)), uint64(e.size))
		}
		return uint64(len(pins))
	})
	binary.LittleEndian.PutUint64(img[mhMagicOff:], metaMagic)
	binary.LittleEndian.PutUint64(img[mhVersionOff:], metaVersion)
	binary.LittleEndian.PutUint64(img[mhEpochOff:], epoch)
	binary.LittleEndian.PutUint64(img[mhPayloadOff:], uint64(len(img)-metaHeaderSize))
	binary.LittleEndian.PutUint64(img[mhSectionsOff:], numSecs)
	binary.LittleEndian.PutUint64(img[mhChainOff:], chain)
	binary.LittleEndian.PutUint64(img[mhRunOff:], uint64(s.nextRun))
	binary.LittleEndian.PutUint32(img[mhCRCOff:], crc32c(img[:mhCRCOff]))
	s.img = img
	return img
}

func appendSeg(buf []byte, seg *segment) []byte {
	return appendU64(appendU64(appendU64(buf, uint64(seg.base)), uint64(seg.size)), uint64(seg.used))
}

// parseMetaHeader validates the header of the base at device offset at
// — magic, CRC, version, geometry against the extent's capacity — and returns
// its fields as a metaImage with no sections yet.
func parseMetaHeader(hdr []byte, at, capacity int64) (img metaImage, err error) {
	if got := binary.LittleEndian.Uint64(hdr[mhMagicOff:]); got != metaMagic {
		return img, corrupt("metadata", at, "bad base magic: got %#x, want %#x", got, uint64(metaMagic))
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[mhCRCOff:])
	if got := crc32c(hdr[:mhCRCOff]); got != wantCRC {
		return img, corrupt("metadata", at+mhCRCOff, "base header checksum mismatch: got %#x, want %#x", got, wantCRC)
	}
	if v := binary.LittleEndian.Uint64(hdr[mhVersionOff:]); v != metaVersion {
		return img, corrupt("metadata", at+mhVersionOff, "unsupported metadata version %d", v)
	}
	payloadLen := int64(binary.LittleEndian.Uint64(hdr[mhPayloadOff:]))
	nSecs := binary.LittleEndian.Uint64(hdr[mhSectionsOff:])
	if payloadLen < 0 || payloadLen > capacity || nSecs != numSecs {
		return img, corrupt("metadata", at+mhPayloadOff, "implausible geometry: payload %d bytes, %d sections", payloadLen, nSecs)
	}
	return metaImage{
		epoch:  binary.LittleEndian.Uint64(hdr[mhEpochOff:]),
		chain:  binary.LittleEndian.Uint64(hdr[mhChainOff:]),
		run:    int64(binary.LittleEndian.Uint64(hdr[mhRunOff:])),
		length: metaHeaderSize + payloadLen,
	}, nil
}

// parseSections walks the section stream read from device offset base and
// returns the section payloads by tag, each verified against its CRC.  Every
// known tag must appear exactly once with an in-bounds length and nothing may
// trail the last section, so a flipped tag or length never silently
// reassigns bytes between sections.  No payload is decoded here —
// verification is complete before any byte is interpreted.
func parseSections(payload []byte, base int64) (secs [secPins + 1][]byte, err error) {
	r := &sectionReader{buf: payload, area: "metadata"}
	seen := 0
	for ; len(r.buf) > 0 && r.err == nil; seen++ {
		r.off = base + int64(len(payload)-len(r.buf))
		tag, slen, scrc := r.u64(), r.u64(), r.u64()
		body := r.bytes(slen)
		switch {
		case r.err != nil:
		case tag != secObjMap && tag != secSegs && tag != secPins || secs[tag] != nil:
			r.fail("bad section header: tag %d, length %d", tag, slen)
		case uint64(crc32c(body)) != scrc:
			r.off += secHdrSize
			r.fail("section %d checksum mismatch: got %#x, want %#x", tag, crc32c(body), scrc)
		default:
			secs[tag] = body
		}
	}
	if r.err == nil && seen != numSecs {
		r.off = base
		r.fail("expected %d sections, found %d", numSecs, seen)
	}
	return secs, r.err
}

// The section decoders fill a store under construction from one verified
// payload, leaving a structural violation in r.err; how the records lie
// against each other and the data region is deriveFree's check.

func (s *Store) decodeObjMapSection(r *sectionReader) { s.homes = r.homes() }

func (s *Store) decodeSegsSection(r *sectionReader) { s.segs = r.segs() }

func (s *Store) decodePinsSection(r *sectionReader) {
	for n := r.u64(); n > 0 && r.err == nil; n-- {
		if e := (extent{int64(r.u64()), int64(r.u64())}); r.err == nil {
			s.prevChain = append(s.prevChain, e)
		}
	}
}

// homes consumes a count and that many home records, ascending by ID.
func (r *sectionReader) homes() (out []homedObject) {
	for n := r.u64(); n > 0 && r.err == nil; n-- {
		if h := r.home(); r.err == nil && len(out) > 0 && h.id <= out[len(out)-1].id {
			r.fail("object %d out of ID order", h.id)
		} else if r.err == nil {
			out = append(out, h)
		}
	}
	return out
}

// segs consumes a count and that many segment records, each of a possible
// geometry and starting past the end of the one before it.
func (r *sectionReader) segs() (out []*segment) {
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
	r := &sectionReader{buf: b}
	rh = runHeader{chain: r.u64(), link: r.u64(), epoch: r.u64(), off: int64(r.u64()), len: int64(r.u64()), sum: uint32(r.u64())}
	if (rh.link == link || rh.link == first && rh.chain == first) && crc32c(b[:rhCRCOff]) == binary.LittleEndian.Uint32(b[rhCRCOff:]) {
		return rh, true, false
	}
	return rh, false, bits.OnesCount64(rh.link^link) <= 8 || bits.OnesCount64(rh.link^first) <= 8
}

// delta is one chain delta: the home and segment rows its checkpoint
// changed, ascending; a home at offset 0 or a segment of size 0 has left.
type delta struct {
	epoch uint64
	next  int64
	homes []homedObject
	segs  []*segment
}

// appendDelta appends d to buf, padded to size bytes with its CRC last
// (size 0: just the rows, to measure them).
func appendDelta(buf []byte, d *delta, size int64) []byte {
	start := len(buf)
	buf = appendU64(appendU64(appendU64(appendU64(buf, deltaMagic), d.epoch), uint64(d.next)), uint64(len(d.homes)))
	for _, h := range d.homes {
		buf = appendHome(buf, h.id, h.home, h.lbl)
	}
	buf = appendU64(buf, uint64(len(d.segs)))
	for _, seg := range d.segs {
		buf = appendSeg(buf, seg)
	}
	if size == 0 {
		return buf
	}
	buf = append(buf, make([]byte, start+int(size)-8-len(buf))...)
	return appendU64(buf, uint64(crc32c(buf[start:])))
}

// deltaSum returns the CRC in a delta's last 8 bytes, and whether it holds.
func deltaSum(b []byte) (uint32, bool) {
	if len(b) < 8 {
		return 0, false
	}
	sum := binary.LittleEndian.Uint64(b[len(b)-8:])
	return uint32(sum), sum == uint64(crc32c(b[:len(b)-8]))
}

// decodeDelta decodes a delta read from device offset off; whatever follows
// its rows must be zeros.
func decodeDelta(b []byte, off int64) (d delta, err error) {
	r := &sectionReader{buf: b[:max(len(b)-8, 0)], off: off, area: "chain"}
	if r.u64() != deltaMagic {
		r.fail("no delta here")
	}
	d.epoch, d.next = r.u64(), int64(r.u64())
	d.homes, d.segs = r.homes(), r.segs()
	if r.err == nil && len(bytes.TrimLeft(r.buf, "\x00")) != 0 {
		r.fail("%d bytes after the delta's rows are not padding", len(r.buf))
	}
	return d, r.err
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
