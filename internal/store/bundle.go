package store

// Snapshot bundles: a bundle captures a set of committed objects — their
// home extents, contents CRCs, and canonical labels — *by reference* into
// the append-only data region, under the lineage ID the kernel gave the
// snapshot it persists.  Cloning an object out of a bundle is O(metadata):
// the clone's object-map entry simply aliases the source extent, and the
// first rewrite of the clone goes through the ordinary dirty/relocate path,
// giving it a private home extent (copy-on-write at checkpoint granularity).
//
// Sharing is tracked by extRefs, a refcount over extents with more than one
// referent (object-map entries plus bundle pins; an absent entry means the
// single ordinary owner).  vacateExtent consults it first, so neither the
// segment cleaner nor the deferred-free path can reclaim bytes reachable
// from a live bundle or a live clone.  Segments holding bundle-referenced
// extents are additionally immovable: bundles record extents by offset, so
// the cleaner skips such segments entirely rather than copying them out.
//
// Durability: SnapshotBundle runs a checkpoint first (the captured extents
// must be committed homes), registers the bundle, then logs a WAL bundle
// record carrying the serialized bundle, so the bundle survives a crash
// immediately; from the next checkpoint on it also lives in the metadata
// snapshot's bundle section.  Each clone logs a small self-contained WAL
// clone record (lineage, source ID, home record) plus the clone's label.
// Both kinds of record ride the group committer exactly as sync records do
// (logged, in groupcommit.go): enqueued, committed in a batch, acknowledged
// by a ticket, and — when the log has no room or the record could never fit
// — made durable by a checkpoint instead, which persists the registered
// bundle and the installed alias in the metadata snapshot.  Replay
// re-aliases the extent, and a clone record whose bundle cannot be resolved
// quarantines the destination — a typed error, never silent bad bytes.
// DeleteBundle needs no record of its own: it unregisters, releases the
// pins, and checkpoints, and the checkpoint's metadata flip is what makes
// the deletion durable (a fallback mount may resurrect the bundle along
// with the rest of the older snapshot, which is consistent by
// construction).
//
// Rot: when any read path — Get, scrub, the cleaner — detects a
// contents-CRC mismatch on an extent, condemn (home.go) passes the verdict
// on every referent: each aliasing object is quarantined and each bundle
// entry over that extent is marked rotted, so further clones of it fail
// with a QuarantineError.

import (
	"errors"
	"fmt"
	"sort"

	"histar/internal/label"
	"histar/internal/wal"
)

// Bundle errors.
var (
	// ErrNoSuchBundle is returned when a lineage ID names no registered
	// snapshot bundle (wrong ID, deleted bundle, or an image that lost it).
	ErrNoSuchBundle = errors.New("store: no such snapshot bundle")
	// ErrNotCommitted is returned by SnapshotBundle when a requested object
	// still has uncommitted (dirty) state after the capture checkpoint —
	// the caller must quiesce writers before baking a bundle.
	ErrNotCommitted = errors.New("store: object has uncommitted state")
	// ErrCloneExists is returned when the clone destination ID already
	// holds an object.
	ErrCloneExists = errors.New("store: clone destination already exists")
)

// BundleObject is one captured object: the committed home extent it pins
// and the canonical label it carried at capture time.
type BundleObject struct {
	ID    uint64
	Off   int64
	Size  int64
	CRC   uint32
	Label []byte // canonical label.AppendBinary bytes, nil if unlabeled
}

// Bundle is a registered snapshot bundle.  Objects is immutable after
// registration; rotted is guarded by metaMu like the bundle table itself.
type Bundle struct {
	Lineage uint64
	Name    string
	// Epoch is the metadata epoch current at capture; the checkpoint
	// retention floor keeps the WAL generation holding this bundle's record
	// until two committed snapshots contain the bundle.
	Epoch   uint64
	Objects []BundleObject

	rotted map[uint64]bool // bundle object IDs whose shared extent rotted
}

// home returns the committed home record the bundle object pins.
func (o *BundleObject) home() home { return home{off: o.Off, size: o.Size, crc: o.CRC} }

func (b *Bundle) object(id uint64) *BundleObject {
	for i := range b.Objects {
		if b.Objects[i].ID == id {
			return &b.Objects[i]
		}
	}
	return nil
}

// SnapshotBundle captures the given objects as a named immutable bundle
// under lineage, the caller's identifier for the snapshot (the kernel's hash
// of what it captured).  It checkpoints first so every object has a
// committed home extent, pins those extents against reclamation, and makes
// the bundle durable with a WAL bundle record.  A lineage already registered
// is left as it is.
func (s *Store) SnapshotBundle(lineage uint64, name string, ids []uint64) error {
	if err := s.Checkpoint(); err != nil {
		return err
	}
	return s.captureBundle(lineage, name, ids)
}

// captureBundle is SnapshotBundle after its checkpoint: register the bundle
// and log its record.
func (s *Store) captureBundle(lineage uint64, name string, ids []uint64) error {
	return s.logged(1, func(int) (*syncTicket, error) { return s.sealBundle(lineage, name, ids) })[0]
}

// sealBundle registers the bundle and enqueues its WAL record; the caller
// holds ckptMu in read mode.  A nil ticket with a nil error means the bundle
// was already registered.
func (s *Store) sealBundle(lineage uint64, name string, ids []uint64) (*syncTicket, error) {
	sorted := append([]uint64(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	objs := make([]BundleObject, 0, len(sorted))
	var last uint64
	for i, id := range sorted {
		if i > 0 && id == last {
			continue
		}
		last = id
		// Entry state first (entry lock), extent second (metaMu) — the same
		// order Get's page-in path uses.
		var lblBytes []byte
		if e := s.shardOf(id).lookup(id); e != nil {
			e.mu.Lock()
			switch {
			case e.quar:
				e.mu.Unlock()
				return nil, &QuarantineError{ID: id, Detail: "cannot bundle a quarantined object"}
			case e.dead:
				e.mu.Unlock()
				return nil, fmt.Errorf("%w: object %d", ErrNoSuchObject, id)
			case e.dirty || e.ckpt:
				e.mu.Unlock()
				return nil, fmt.Errorf("%w: object %d", ErrNotCommitted, id)
			}
			if e.hasLbl {
				lblBytes = e.lbl.AppendBinary(nil)
			}
			e.mu.Unlock()
		}
		h, ok := s.lookupHome(id)
		if !ok {
			return nil, fmt.Errorf("%w: object %d has no committed home", ErrNoSuchObject, id)
		}
		objs = append(objs, BundleObject{ID: id, Off: h.off, Size: h.size, CRC: h.crc, Label: lblBytes})
	}
	b := &Bundle{Lineage: lineage, Name: name, Objects: objs}
	s.metaMu.Lock()
	if _, exists := s.bundles[lineage]; exists {
		s.metaMu.Unlock()
		return nil, nil
	}
	b.Epoch = s.metaEpoch
	s.bundles[lineage] = b
	s.metaMu.Unlock()
	s.allocMu.Lock()
	for i := range b.Objects {
		s.pinExtentLocked(b.Objects[i].Off)
	}
	s.allocMu.Unlock()
	return s.submit(wal.Record{ObjectID: lineage, Data: encodeBundleBody(b), Bundle: true})
}

// pinExtentLocked adds one reference to an extent; the caller holds allocMu.
// An absent entry means one ordinary owner, so the first share starts at 2.
func (s *Store) pinExtentLocked(off int64) {
	if n, ok := s.extRefs[off]; ok {
		s.extRefs[off] = n + 1
	} else {
		s.extRefs[off] = 2
	}
}

// CloneObjectLabeled creates object dstID as an O(metadata) clone of srcID
// out of the bundle named by lineage, under the label lbl (the captured one,
// rewritten by the kernel's category remap): the clone aliases the source's
// committed extent — no data is read or written — and is made durable by a
// small WAL clone record; its first rewrite gives it a private extent.
func (s *Store) CloneObjectLabeled(lineage, srcID, dstID uint64, lbl label.Label) error {
	return s.logged(1, func(int) (*syncTicket, error) { return s.sealClone(lineage, srcID, dstID, lbl) })[0]
}

// sealClone installs the alias and enqueues its WAL clone record; the caller
// holds ckptMu in read mode.
func (s *Store) sealClone(lineage, srcID, dstID uint64, lbl label.Label) (*syncTicket, error) {
	e := s.shardOf(dstID).getOrCreate(dstID)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cached || e.dirty {
		return nil, fmt.Errorf("%w: object %d", ErrCloneExists, dstID)
	}
	s.metaMu.Lock()
	b := s.bundles[lineage]
	if b == nil {
		s.metaMu.Unlock()
		return nil, fmt.Errorf("%w: lineage %#x", ErrNoSuchBundle, lineage)
	}
	bo := b.object(srcID)
	if bo == nil {
		s.metaMu.Unlock()
		return nil, fmt.Errorf("%w: object %d not captured by bundle %q", ErrNoSuchObject, srcID, b.Name)
	}
	if b.rotted[srcID] {
		s.metaMu.Unlock()
		return nil, &QuarantineError{ID: srcID,
			Detail: fmt.Sprintf("bundle %q extent at offset %d failed verification; refusing to clone", b.Name, bo.Off)}
	}
	if _, ok := s.homeOf(dstID); ok {
		s.metaMu.Unlock()
		return nil, fmt.Errorf("%w: object %d", ErrCloneExists, dstID)
	}
	s.setHome(dstID, bo.home())
	s.metaMu.Unlock()
	s.allocMu.Lock()
	s.pinExtentLocked(bo.Off)
	s.allocMu.Unlock()
	e.dead, e.quar = false, false
	e.lbl, e.hasLbl = lbl, true
	// The clone record is enqueued under the entry lock (like every sealed
	// record), so replay order for dstID matches operation order.
	return s.submit(wal.Record{
		ObjectID: dstID,
		Data:     encodeCloneBody(lineage, srcID, bo.home()),
		Label:    lbl.AppendBinary(nil),
		Clone:    true,
	})
}

// DeleteBundle unregisters a bundle and releases its extent pins, then
// checkpoints: the metadata flip is what makes the deletion durable.  A
// crash before the checkpoint commits simply resurrects the bundle with its
// pins intact.
func (s *Store) DeleteBundle(lineage uint64) error {
	s.ckptMu.RLock()
	if s.closed {
		s.ckptMu.RUnlock()
		return ErrClosed
	}
	s.metaMu.Lock()
	b, ok := s.bundles[lineage]
	if !ok {
		s.metaMu.Unlock()
		s.ckptMu.RUnlock()
		return fmt.Errorf("%w: lineage %#x", ErrNoSuchBundle, lineage)
	}
	delete(s.bundles, lineage)
	s.metaMu.Unlock()
	for i := range b.Objects {
		s.vacateExtent(b.Objects[i].Off, b.Objects[i].Size)
	}
	s.ckptMu.RUnlock()
	return s.Checkpoint()
}

// ValidateBundle checks a lineage ID at restore time: the bundle must be
// registered and none of its extents rotted.  This is the kernel's lineage
// gate before a golden-image clone.
func (s *Store) ValidateBundle(lineage uint64) error {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	s.metaMu.RLock()
	defer s.metaMu.RUnlock()
	b, ok := s.bundles[lineage]
	if !ok {
		return fmt.Errorf("%w: lineage %#x", ErrNoSuchBundle, lineage)
	}
	if len(b.rotted) > 0 {
		return &QuarantineError{ID: b.Lineage,
			Detail: fmt.Sprintf("bundle %q has %d rotted extents", b.Name, len(b.rotted))}
	}
	return nil
}

// bundleRetentionFloor returns the oldest WAL generation any live bundle's
// record may still be needed from: a bundle captured at epoch E has its
// record in generation E and enters the metadata snapshot at E+1, so the
// generation may be dropped only once two committed snapshots (E+1 and
// E+2) contain the bundle — i.e. once the finishing epoch reaches E+2.
// Returns ^uint64(0) when no bundle constrains reclamation.
func (s *Store) bundleRetentionFloor(finishEpoch uint64) uint64 {
	floor := ^uint64(0)
	s.metaMu.RLock()
	for _, b := range s.bundles {
		if b.Epoch+2 > finishEpoch && b.Epoch < floor {
			floor = b.Epoch
		}
	}
	s.metaMu.RUnlock()
	return floor
}

// replayBundleRecord re-registers a bundle from a WAL record during Open
// (single-threaded); extent pins and segment live counts are rebuilt once
// by the recomputeSegLive pass that follows replay.  A damaged payload
// degrades the mount (clones of the lost bundle quarantine) rather than
// refusing it.
func (s *Store) replayBundleRecord(rec wal.Record) {
	if _, exists := s.bundles[rec.ObjectID]; exists {
		return // already in the loaded snapshot
	}
	r := &sectionReader{buf: rec.Data, off: logOffset, area: "wal"}
	b := decodeBundleBody(rec.ObjectID, r)
	if r.err != nil {
		s.noteCorruption(fmt.Errorf("%w: replaying bundle %#x: %v", ErrCorrupt, rec.ObjectID, r.err))
		return
	}
	s.bundles[rec.ObjectID] = b
}

// replayCloneRecord re-applies a clone alias from a WAL record during Open
// (single-threaded).  A clone already present in the loaded snapshot is
// skipped; a clone whose record does not decode, or whose bundle cannot be
// resolved — possible only after a deep metadata fallback — is quarantined
// rather than silently aliased.
func (s *Store) replayCloneRecord(r wal.Record) {
	dst := r.ObjectID
	e := s.shardOf(dst).getOrCreate(dst)
	if _, ok := s.homeOf(dst); ok {
		// The loaded snapshot already placed this object (the clone itself,
		// or a later rewrite); the record is stale.
		return
	}
	lineage, srcID, h, err := decodeCloneBody(r.Data)
	if err == nil {
		if b := s.bundles[lineage]; b == nil || b.object(srcID) == nil || b.object(srcID).Off != h.off {
			err = fmt.Errorf("source bundle %#x lost by metadata fallback", lineage)
		}
	}
	if err != nil {
		s.noteCorruption(fmt.Errorf("%w: replaying clone record for object %d: %v", ErrCorrupt, dst, err))
		s.quarantine(e)
		return
	}
	s.setHome(dst, h)
	e.dead, e.quar, e.cached, e.dirty = false, false, false, false
	if len(r.Label) == 0 {
		e.lbl, e.hasLbl = label.Label{}, false
	} else if lbl, rest, derr := label.DecodeBinary(r.Label); derr == nil && len(rest) == 0 {
		e.lbl, e.hasLbl = lbl, true
	} else {
		s.noteCorruption(fmt.Errorf("%w: replaying label of clone %d: %v", ErrCorrupt, dst, derr))
	}
}
