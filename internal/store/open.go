package store

import (
	"errors"
	"fmt"

	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/wal"
)

// Open mounts an existing store from d: "bootup restores the entire system
// state from the most recent on-disk snapshot".  It loads the base and its
// chain, then re-applies the committed log records on top — each carrying an
// object's contents and canonical label, so a synced object always comes
// back with the taint it was synced with.  Every structure is verified on the
// way in, and a failure walks the degradation ladder (doc.go) instead of
// failing the mount; only when both superblock copies or both bases are
// damaged does Open refuse, with an error matching ErrCorrupt.
func Open(d disk.Device, opts Options) (*Store, error) {
	s := newStore(d, opts)
	if err := s.readSuperblock(); err != nil {
		return nil, err
	}
	s.l = wal.Open(d, logOffset, s.logSize)
	recs, err := s.l.Recover()
	if err != nil {
		if !errors.Is(err, wal.ErrCorrupt) {
			return nil, err
		}
		// Damaged record or header: the valid prefix was recovered and the
		// log resealed.  Mount degraded rather than refusing.
		s.report.WALDamaged = true
		s.noteCorruption(err)
	}
	// Re-apply the committed log records of the snapshot's epoch or later,
	// synced after its seal; a torn last delta leaves the snapshot before
	// it, whose records FINISH keeps, so no committed sync is lost.  The next
	// seal takes an epoch above every recovered one.  Open is
	// single-threaded, so entries are written directly.
	top := s.metaEpoch
	for _, r := range recs {
		top = max(top, r.Epoch)
		if r.Epoch < s.metaEpoch {
			continue
		}
		s.report.WALRecordsReplayed++
		e := s.entry(r.ObjectID)
		// The record's label, or none, replaces whatever a checkpoint
		// recorded: a label-less record says the object had none.
		e.lbl = nil
		if r.Delete {
			e.data, e.dirty, e.dead = nil, false, true
			e.quar = false
			continue
		}
		if !r.Range {
			e.data = append([]byte(nil), r.Data...)
		} else if !e.resident() || !applyRangeBody(e.data, r.Data) {
			// Only a replayed whole record makes contents resident here, and
			// without one the log does not say what lies beside these bytes.
			s.noteCorruption(fmt.Errorf("%w: range record for object %d has no replayed whole record to patch", ErrCorrupt, r.ObjectID))
			e.data, e.dirty, e.dead = nil, false, false
			s.quarantine(e)
			continue
		}
		// A logged re-create after a logged tombstone clears the dead flag.
		e.dirty, e.dead, e.quar = true, false, false
		if len(r.Label) > 0 {
			if _, rest, derr := label.DecodeBinary(r.Label); derr != nil || len(rest) != 0 {
				return nil, s.noteCorruption(fmt.Errorf("%w: replaying label of object %d: %v", ErrCorrupt, r.ObjectID, derr))
			}
			e.lbl = append([]byte(nil), r.Label...) // r's bytes alias the whole log read
		}
	}
	s.epoch.Store(top)
	return s, nil
}

// readSuperblock mounts the superblock and the snapshot it names, walking
// the degradation ladder on failures; Open calls it single-threaded.
func (s *Store) readSuperblock() error {
	raw := make([]byte, sbBackupOff+sbCopySize)
	if _, err := s.d.ReadAt(raw, superblockOffset); err != nil {
		return err
	}
	primary, perr := parseSuperblockCopy(raw[:sbCopySize], superblockOffset)
	backup, berr := parseSuperblockCopy(raw[sbBackupOff:], superblockOffset+sbBackupOff)
	var sb superblockInfo
	switch {
	case perr == nil && berr == nil:
		// Both intact: trust the newer epoch (they differ only if a crash
		// tore the two-copy write, which sector atomicity makes one-sided).
		sb = primary
		if backup.epoch > primary.epoch {
			sb = backup
		}
	case perr == nil:
		sb = primary
		s.noteCorruption(berr)
	case berr == nil:
		sb = backup
		s.report.SuperblockFallback = true
		s.noteCorruption(perr)
	default:
		s.noteCorruption(berr)
		return s.noteCorruption(fmt.Errorf("both superblock copies invalid: %w (backup: %v)", perr, berr))
	}
	s.logSize, s.sb = sb.logSize, raw
	return s.loadMetadata(sb)
}

// loadMetadata loads the snapshot sb references — its base, then its chain
// — or, when that base fails, the previous base, whose chain runs on into the
// failed one's.  A mount that took any rung writes a new base at the next
// checkpoint.
func (s *Store) loadMetadata(sb superblockInfo) error {
	err := s.loadBase(sb.base, sb, false)
	if err != nil && errors.Is(err, ErrCorrupt) {
		s.noteCorruption(err)
		// Reset whatever the failed decode half-applied.
		s.resetTables()
		s.report.ChainTruncated = false
		if prevErr := s.loadBase(sb.prev, sb, true); prevErr != nil {
			return s.noteCorruption(fmt.Errorf("both bases unusable: %w (previous: %v)", err, prevErr))
		}
		s.report.MetaFallback, err = true, nil
	}
	if s.report.Degraded() {
		s.base.length = -1 // the next checkpoint writes a base, which heals the mount
	}
	return err
}

// loadBase reads, verifies and decodes the base at extent at, applies its
// chain, and derives the free list.  The current base must carry the
// superblock's epoch, and pins the previous base and the chain that ends in
// its own; the previous base, loaded in fallback, must be no newer, and its
// pins, released, are not loaded.
func (s *Store) loadBase(at extent, sb superblockInfo, fallback bool) error {
	img, err := s.verifyBase(at)
	if err != nil {
		return err
	}
	switch {
	case !fallback && img.epoch != sb.epoch:
		return corrupt("metadata", at.off+mhEpochOff, "snapshot epoch %d does not match superblock epoch %d", img.epoch, sb.epoch)
	case fallback && img.epoch > sb.epoch:
		return corrupt("metadata", at.off+mhEpochOff, "previous snapshot epoch %d newer than superblock epoch %d", img.epoch, sb.epoch)
	}
	for _, sec := range []struct {
		tag    uint64
		decode func(*sectionReader)
	}{
		{secObjMap, s.decodeObjMapSection}, {secSegs, s.decodeSegsSection}, {secPins, s.decodePinsSection},
	} {
		r := &sectionReader{buf: img.secs[sec.tag], off: at.off, area: "metadata"}
		if sec.decode(r); r.err != nil {
			return r.err
		}
	}
	s.prevBase = sb.prev
	if fallback {
		s.prevChain, s.prevBase = nil, extent{}
	}
	s.base, s.chainID, s.metaEpoch = img, sb.chain, img.epoch
	s.nextRun, s.link, s.chain = img.run, img.chain, []extent{{img.run, runHeaderSize}}
	_, err = s.walkChain(img.run, img.chain, sb.chain, img.epoch, s.applyLink)
	if errors.Is(err, ErrCorrupt) {
		s.report.ChainTruncated = true
		s.noteCorruption(err)
	} else if err != nil {
		return err
	}
	if s.free, err = s.deriveFree(at.off, true); err != nil {
		return err
	}
	s.recomputeSegLive()
	s.report.MetaEpoch = s.metaEpoch
	return nil
}

// walkChain follows a chain from the run header at sector at, carrying link
// (or the first of chain first) and no older than epoch, and hands each
// verified delta to apply (nil: verify only); it returns how many.  It ends
// quietly where no run header of the chain is, or at a delta its run
// header's CRC shows torn; with a CorruptError at a damaged run header, or a
// damaged delta with a run header verifying past it.  A delta's next sector
// is read with it.
func (s *Store) walkChain(at int64, link, first, epoch uint64, apply func(runHeader, []byte) error) (int, error) {
	lo, hi := logOffset+s.logSize, s.d.Size()
	rhb := make([]byte, runHeaderSize)
	if _, err := s.d.ReadAt(rhb, at); err != nil {
		return 0, err
	}
	for n := 0; ; n++ {
		rh, ok, damaged := parseRunHeader(rhb, link, first)
		switch {
		case damaged:
			return n, corrupt("chain", at, "run header fails its checksum")
		case !ok:
			return n, nil
		case rh.epoch < epoch || rh.off < lo || rh.off%runHeaderSize != 0 || rh.len <= 0 || rh.len%runHeaderSize != 0 || rh.len > hi-runHeaderSize-rh.off:
			return n, corrupt("chain", at, "run header of epoch %d names a delta of %d bytes at %d", rh.epoch, rh.len, rh.off)
		}
		buf := make([]byte, rh.len+runHeaderSize)
		if _, err := s.d.ReadAt(buf, rh.off); err != nil {
			return n, err
		}
		d, next := buf[:rh.len], buf[rh.len:]
		if sum, ok := deltaSum(d); !ok || sum != rh.sum {
			if _, ok, _ := parseRunHeader(next, rh.nextLink(), first); ok {
				return n, corrupt("chain", rh.off, "delta of epoch %d fails its checksum, and the chain goes on past it", rh.epoch)
			}
			return n, nil
		}
		if apply != nil {
			if err := apply(rh, d); err != nil {
				return n, err
			}
		}
		at, link, epoch, rhb = rh.off+rh.len, rh.nextLink(), rh.epoch, next
	}
}

// applyLink makes one verified delta the snapshot Open is building: its rows
// replace, join or leave the tables'.  It changes nothing unless every row
// applies and it agrees with its run header.
func (s *Store) applyLink(rh runHeader, b []byte) error {
	d, err := decodeDelta(b, rh.off)
	if err != nil {
		return err
	}
	homes, _, herr := mergeRows(s.homes, d.homes, homeKey, func(h homedObject) bool { return h.off == 0 })
	segs, gone, serr := mergeRows(s.segs, d.segs, segKey, func(g *segment) bool { return g.size == 0 })
	if err = errors.Join(herr, serr); err == nil && (d.epoch != rh.epoch || d.next != rh.off+rh.len) {
		err = fmt.Errorf("delta of epoch %d, next %d, under a run header of epoch %d", d.epoch, d.next, rh.epoch)
	}
	if err != nil {
		return corrupt("chain", rh.off, "%v", err)
	}
	s.held = s.held[:0]
	for _, g := range gone {
		s.held = append(s.held, extent{g.base, g.size})
	}
	s.homes, s.segs, s.metaEpoch, s.nextRun, s.link = homes, segs, rh.epoch, d.next, rh.nextLink()
	s.chain = append(s.chain, extent{rh.off, rh.len + runHeaderSize})
	return nil
}

// metaImage is one verified, still undecoded base: its extent, its header's
// fields and its sections by tag.
type metaImage struct {
	ext    extent
	epoch  uint64
	chain  uint64 // the id its chain's run headers carry
	run    int64  // the sector of its chain's first run header
	length int64  // header plus section stream, in bytes
	secs   [secPins + 1][]byte
}

// verifyBase reads the base at extent at and checks its header and every
// section CRC, returning the raw section payloads by tag.  Nothing is
// decoded, so a damaged base can never half-apply; Open decodes what this
// returns, Scrub only counts it.
func (s *Store) verifyBase(at extent) (img metaImage, err error) {
	if at.size > s.d.Size()-at.off {
		return img, corrupt("metadata", at.off, "a base of %d bytes runs past the device", at.size)
	}
	hdr := make([]byte, metaHeaderSize)
	if _, err := s.d.ReadAt(hdr, at.off); err != nil {
		return img, err
	}
	if img, err = parseMetaHeader(hdr, at.off, at.size-metaHeaderSize); err != nil {
		return img, err
	}
	payload := make([]byte, img.length-metaHeaderSize)
	if _, err := s.d.ReadAt(payload, at.off+metaHeaderSize); err != nil {
		return img, err
	}
	img.ext = at
	img.secs, err = parseSections(payload, at.off+metaHeaderSize)
	return img, err
}
