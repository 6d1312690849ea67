package store

// The on-disk format, all of it: every layout constant and every encoder and
// decoder for the superblock copies, the metadata-area header, the section
// framing, the four metadata sections, and the alias body that rides in
// write-ahead log records.  (The log's own record framing belongs to
// package wal.)  No other file interprets or produces a persistent byte; see
// the package comment and doc.go for the layouts in prose.
//
// Encoders run only in the checkpoint body (serialized by ckptRun), under
// the entry lock of the object a log record describes, or during
// single-threaded construction (Format); decoders run only in
// single-threaded Open and, for the verification half, in Scrub under sbMu.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"histar/internal/btree"
	"histar/internal/label"
)

// castagnoli is the CRC32C polynomial table shared by every store checksum
// (superblock copies, metadata headers and sections, object contents).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc32c(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Superblock: the page at offset 0 holds two identical 64-byte checksummed
// copies (primary at offset 0, backup at offset 512, each in its own
// sector).  Field offsets within one copy (little-endian u64s unless noted).
const (
	sbCopySize   = 64
	sbBackupOff  = 512 // second copy sits in its own sector
	sbMagicOff   = 0
	sbWhichOff   = 8
	sbMetaLenOff = 16
	sbLogSizeOff = 24
	sbMetaSzOff  = 32
	sbVersionOff = 40
	sbEpochOff   = 48
	sbCRCOff     = 56 // u32 CRC32C over bytes [0, 56)

	superMagic   = 0x48495354 // "HIST"
	superVersion = 2
)

// Metadata area: a 48-byte checksummed, epoch-stamped header, then the
// section stream.
const (
	metaMagic      = 0x484d4554 // "HMET"
	metaVersion    = 6
	metaHeaderSize = 48
	mhMagicOff     = 0
	mhVersionOff   = 8
	mhEpochOff     = 16
	mhPayloadOff   = 24 // payload byte length (sections, after this header)
	mhSectionsOff  = 32 // section count
	mhCRCOff       = 40 // u32 CRC32C over bytes [0, 40)

	// Section tags.  Each section is [tag u64][len u64][crc u64: low 32
	// bits CRC32C of the payload][payload], and an image holds each tag
	// exactly once.  Tags 4 and 6 are retired, never to be reused: metadata
	// version 4 persisted an index derived from the label section under the
	// one, version 5 a table of snapshot pins under the other.
	secObjMap  = 1
	secFree    = 2
	secLabels  = 3
	secSegs    = 5
	numSecs    = 4
	secHdrSize = 24

	// objCRCValid flags the CRC field of a home record as carrying a
	// contents checksum.  Every record written has it set; a decoded record
	// without it is corruption.
	objCRCValid = uint64(1) << 32

	// aliasBodySize is the fixed payload of a WAL alias record: the aliased
	// home record.
	aliasBodySize = 24
)

func knownSection(tag uint64) bool {
	return tag >= secObjMap && tag <= secSegs && tag != 4
}

// superblockInfo is one parsed superblock copy.
type superblockInfo struct {
	which    int
	metaLen  int64
	logSize  int64
	metaSize int64
	epoch    uint64
}

// encodeSuperblockCopy builds one 64-byte checksummed copy.
func encodeSuperblockCopy(info superblockInfo) []byte {
	b := make([]byte, sbCopySize)
	binary.LittleEndian.PutUint64(b[sbMagicOff:], superMagic)
	binary.LittleEndian.PutUint64(b[sbWhichOff:], uint64(info.which))
	binary.LittleEndian.PutUint64(b[sbMetaLenOff:], uint64(info.metaLen))
	binary.LittleEndian.PutUint64(b[sbLogSizeOff:], uint64(info.logSize))
	binary.LittleEndian.PutUint64(b[sbMetaSzOff:], uint64(info.metaSize))
	binary.LittleEndian.PutUint64(b[sbVersionOff:], superVersion)
	binary.LittleEndian.PutUint64(b[sbEpochOff:], info.epoch)
	binary.LittleEndian.PutUint32(b[sbCRCOff:], crc32c(b[:sbCRCOff]))
	return b
}

// parseSuperblockCopy validates one copy at device offset off: magic, then
// the CRC over every field, then the version — no field of a copy that fails
// its CRC is interpreted.
func parseSuperblockCopy(b []byte, off int64) (superblockInfo, error) {
	var info superblockInfo
	if got := binary.LittleEndian.Uint64(b[sbMagicOff:]); got != superMagic {
		return info, &CorruptError{Area: "superblock", Offset: off + sbMagicOff,
			Detail: fmt.Sprintf("bad magic: got %#x, want %#x", got, uint64(superMagic))}
	}
	info.which = int(binary.LittleEndian.Uint64(b[sbWhichOff:]))
	info.metaLen = int64(binary.LittleEndian.Uint64(b[sbMetaLenOff:]))
	info.logSize = int64(binary.LittleEndian.Uint64(b[sbLogSizeOff:]))
	info.metaSize = int64(binary.LittleEndian.Uint64(b[sbMetaSzOff:]))
	info.epoch = binary.LittleEndian.Uint64(b[sbEpochOff:])
	want := binary.LittleEndian.Uint32(b[sbCRCOff:])
	if got := crc32c(b[:sbCRCOff]); got != want {
		return info, &CorruptError{Area: "superblock", Offset: off + sbCRCOff,
			Detail: fmt.Sprintf("checksum mismatch: got %#x, want %#x", got, want)}
	}
	if v := binary.LittleEndian.Uint64(b[sbVersionOff:]); v != superVersion {
		return info, &CorruptError{Area: "superblock", Offset: off + sbVersionOff,
			Detail: fmt.Sprintf("unsupported superblock version %d", v)}
	}
	if info.which != 0 && info.which != 1 {
		return info, &CorruptError{Area: "superblock", Offset: off + sbWhichOff,
			Detail: fmt.Sprintf("metadata area selector %d out of range", info.which)}
	}
	return info, nil
}

// appendU64 is the codecs' little-endian primitive.
func appendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// appendHome writes one home record: offset, size, and the CRC field.  The
// object map and alias bodies both record a home this way.
func appendHome(buf []byte, h home) []byte {
	buf = appendU64(buf, uint64(h.off))
	buf = appendU64(buf, uint64(h.size))
	return appendU64(buf, objCRCValid|uint64(h.crc))
}

// sectionReader walks one verified payload.  Its error is sticky: the first
// structural violation is remembered as a CorruptError anchored at off,
// every read after it returns a zero value, and a decoder checks err once
// per decoded entry — which also stops its loop, so a damaged count cannot
// spin.
type sectionReader struct {
	buf  []byte
	off  int64 // device offset the payload was read from, for error reports
	area string
	err  error
}

func (r *sectionReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = &CorruptError{Area: r.area, Offset: r.off, Detail: fmt.Sprintf(format, args...)}
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

// home consumes one home record (appendHome's inverse).
func (r *sectionReader) home() home {
	off, size, crcField := r.u64(), r.u64(), r.u64()
	if r.err == nil && crcField&objCRCValid == 0 {
		r.fail("extent at offset %d recorded without a contents checksum", off)
	}
	return home{off: int64(off), size: int64(size), crc: uint32(crcField)}
}

// encodeMetadata serializes the metadata image: the header followed by four
// individually checksummed sections (object map, free list, labels, segment
// table).  The object map and free/segment state are read under their own
// locks — by the time the body serializes, it has finished mutating them,
// and no concurrent operation does (an alias waits the body out) — while the
// label section comes from the seal-time capture, so the snapshot is
// consistent with the sealed epoch even as concurrent PutLabeled calls
// proceed.  Everything derivable from these four — extent refcounts,
// per-segment live counts — is rebuilt at Open, not stored.
func (s *Store) encodeMetadata(epoch uint64, labels []sealedLabel) []byte {
	// Object map: (id, home record) entries, ascending id.
	s.metaMu.RLock()
	objs := appendU64(nil, uint64(s.objMap.Len()))
	s.scanHomes(func(id uint64, h home) bool {
		objs = appendHome(appendU64(objs, id), h)
		return true
	})
	s.metaMu.RUnlock()
	// Free list by offset, and the segment table (base, size, used), both
	// under allocMu.
	s.allocMu.Lock()
	free := appendU64(nil, uint64(s.freeByOff.Len()))
	s.freeByOff.Scan(func(k btree.Key, v uint64) bool {
		free = appendU64(appendU64(free, k[0]), v)
		return true
	})
	segsSec := appendU64(nil, uint64(len(s.segs)))
	s.segBases.Scan(func(k btree.Key, _ uint64) bool {
		seg := s.segs[int64(k[0])]
		segsSec = appendU64(appendU64(appendU64(segsSec, uint64(seg.base)), uint64(seg.size)), uint64(seg.used))
		return true
	})
	s.allocMu.Unlock()
	// Object labels in canonical serialized form.
	labelsSec := appendU64(nil, uint64(len(labels)))
	for _, sl := range labels {
		labelsSec = sl.lbl.AppendBinary(appendU64(labelsSec, sl.id))
	}

	var payload []byte
	for _, sec := range []struct {
		tag  uint64
		body []byte
	}{{secObjMap, objs}, {secFree, free}, {secLabels, labelsSec}, {secSegs, segsSec}} {
		payload = appendU64(payload, sec.tag)
		payload = appendU64(payload, uint64(len(sec.body)))
		payload = appendU64(payload, uint64(crc32c(sec.body)))
		payload = append(payload, sec.body...)
	}

	hdr := make([]byte, metaHeaderSize, metaHeaderSize+len(payload))
	binary.LittleEndian.PutUint64(hdr[mhMagicOff:], metaMagic)
	binary.LittleEndian.PutUint64(hdr[mhVersionOff:], metaVersion)
	binary.LittleEndian.PutUint64(hdr[mhEpochOff:], epoch)
	binary.LittleEndian.PutUint64(hdr[mhPayloadOff:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(hdr[mhSectionsOff:], numSecs)
	binary.LittleEndian.PutUint32(hdr[mhCRCOff:], crc32c(hdr[:mhCRCOff]))
	return append(hdr, payload...)
}

// parseMetaHeader validates the header of the metadata area at device offset
// areaOff — magic, then the CRC, then the version, then the geometry against
// the area's payload capacity — and returns the snapshot's epoch and payload
// length.
func parseMetaHeader(hdr []byte, areaOff, capacity int64) (epoch uint64, payloadLen int64, err error) {
	if got := binary.LittleEndian.Uint64(hdr[mhMagicOff:]); got != metaMagic {
		return 0, 0, &CorruptError{Area: "metadata", Offset: areaOff,
			Detail: fmt.Sprintf("bad area magic: got %#x, want %#x", got, uint64(metaMagic))}
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[mhCRCOff:])
	if got := crc32c(hdr[:mhCRCOff]); got != wantCRC {
		return 0, 0, &CorruptError{Area: "metadata", Offset: areaOff + mhCRCOff,
			Detail: fmt.Sprintf("area header checksum mismatch: got %#x, want %#x", got, wantCRC)}
	}
	if v := binary.LittleEndian.Uint64(hdr[mhVersionOff:]); v != metaVersion {
		return 0, 0, &CorruptError{Area: "metadata", Offset: areaOff + mhVersionOff,
			Detail: fmt.Sprintf("unsupported metadata version %d", v)}
	}
	payloadLen = int64(binary.LittleEndian.Uint64(hdr[mhPayloadOff:]))
	nSecs := binary.LittleEndian.Uint64(hdr[mhSectionsOff:])
	if payloadLen < 0 || payloadLen > capacity || nSecs != numSecs {
		return 0, 0, &CorruptError{Area: "metadata", Offset: areaOff + mhPayloadOff,
			Detail: fmt.Sprintf("implausible geometry: payload %d bytes, %d sections", payloadLen, nSecs)}
	}
	return binary.LittleEndian.Uint64(hdr[mhEpochOff:]), payloadLen, nil
}

// parseSections walks the section stream read from device offset base and
// returns the section payloads by tag, each verified against its CRC.  Every
// known tag must appear exactly once with an in-bounds length and nothing may
// trail the last section, so a flipped tag or length never silently
// reassigns bytes between sections.  No payload is decoded here —
// verification is complete before any byte is interpreted.
func parseSections(payload []byte, base int64) (secs [secSegs + 1][]byte, err error) {
	r := &sectionReader{buf: payload, area: "metadata"}
	seen := 0
	for ; len(r.buf) > 0 && r.err == nil; seen++ {
		r.off = base + int64(len(payload)-len(r.buf))
		tag, slen, scrc := r.u64(), r.u64(), r.u64()
		body := r.bytes(slen)
		switch {
		case r.err != nil:
		case !knownSection(tag) || secs[tag] != nil:
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

// The section decoders apply one verified payload to a store under
// construction; a structural violation is left in r.err.

func (s *Store) decodeObjMapSection(r *sectionReader) {
	for n := r.u64(); n > 0; n-- {
		id, h := r.u64(), r.home()
		if r.err != nil {
			return
		}
		s.setHome(id, h)
	}
}

func (s *Store) decodeFreeSection(r *sectionReader) {
	for n := r.u64(); n > 0; n-- {
		off, size := r.u64(), r.u64()
		if r.err != nil {
			return
		}
		s.freeBySize.Put(btree.K2(size, off), 0)
		s.freeByOff.Put(btree.K1(off), size)
	}
}

func (s *Store) decodeLabelSection(r *sectionReader) {
	for n := r.u64(); n > 0; n-- {
		id := r.u64()
		if r.err != nil {
			return
		}
		lbl, rest, err := label.DecodeBinary(r.buf)
		if err != nil {
			r.fail("label of object %d does not decode: %v", id, err)
			return
		}
		r.buf = rest
		e := s.shardOf(id).getOrCreate(id)
		e.lbl, e.hasLbl = lbl, true
	}
}

func (s *Store) decodeSegsSection(r *sectionReader) {
	for n := r.u64(); n > 0; n-- {
		base, size, used := r.u64(), r.u64(), r.u64()
		if r.err == nil && (size == 0 || used > size) {
			r.fail("segment at %d has impossible geometry (size %d, used %d)", base, size, used)
		}
		if r.err != nil {
			return
		}
		s.segs[int64(base)] = &segment{base: int64(base), size: int64(size), used: int64(used)}
		s.segBases.Put(btree.K1(base), 0)
	}
}

// encodeAliasBody is the payload of a WAL alias record: the home the
// destination shares.
func encodeAliasBody(h home) []byte {
	return appendHome(make([]byte, 0, aliasBodySize), h)
}

// decodeAliasBody is encodeAliasBody's inverse.
func decodeAliasBody(data []byte) (home, error) {
	r := &sectionReader{buf: data, off: logOffset, area: "wal"}
	if len(data) != aliasBodySize {
		r.fail("alias record has a %d-byte payload, want %d", len(data), aliasBodySize)
	}
	h := r.home()
	return h, r.err
}
