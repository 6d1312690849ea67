package store

// Aliases: the one way two object IDs share bytes.  The package comment's
// "# Aliases" section has what an alias is, how sharing is counted and kept
// from the cleaner, how it is made durable and what rot does to it; this file
// has Alias itself and the replay of its record.

import (
	"errors"
	"fmt"

	"histar/internal/label"
	"histar/internal/wal"
)

var (
	// ErrNotCommitted is returned by Alias when the source has state the
	// committed snapshot does not hold (dirty, or sealed into a checkpoint
	// still running): the caller checkpoints, writers quiesced, and retries.
	ErrNotCommitted = errors.New("store: object has uncommitted state")
	// ErrCloneExists is returned when the alias destination ID already
	// holds an object.
	ErrCloneExists = errors.New("store: clone destination already exists")
)

// Alias creates each object dst[i] as an O(metadata) copy of src[i] under the
// label lbls[i]: its home is src[i]'s committed home extent, the share is
// counted in extRefs, and every alias is durable — one record each, all
// committed together — when the call returns, with one error slot per pair.
// A source must be clean (ErrNotCommitted), present (ErrNoSuchObject) and
// undamaged (QuarantineError); a destination must not exist (ErrCloneExists).
//
// An alias record only ever names an extent the committed snapshot already
// holds: replay re-aliases by offset, and only the snapshot it replays onto
// can vouch for what lies there.  The home table in memory runs ahead of the
// committed one while a checkpoint body is open (it relocates, the cleaner
// moves) and after a body failed, so in that state — judged once, at the
// first pair — nothing is installed or logged: the call takes logged's
// checkpoint fallback, which waits the open body out, and seals again.
// While it seals, ckptMu in read mode keeps the next body from opening, so
// aliases and the cleaner never meet.
func (s *Store) Alias(src, dst []uint64, lbls []label.Label) []error {
	for {
		settled := len(dst) == 0
		errs := s.logged(len(dst), func(i int) (*syncTicket, error) {
			if i == 0 {
				settled = s.epoch.Load() == s.committedEpoch()
			}
			if !settled {
				return nil, errRetryCheckpoint
			}
			return s.sealAlias(src[i], dst[i], lbls[i])
		})
		if settled || errs[0] != nil {
			return errs
		}
	}
}

// sealAlias installs the alias and enqueues its WAL record, all under one
// hold of mu; the caller holds ckptMu in read mode and has found no
// checkpoint body open.
func (s *Store) sealAlias(src, dst uint64, lbl label.Label) (*syncTicket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.objs[src]; e != nil {
		switch {
		case e.quar:
			return nil, &QuarantineError{ID: src, Detail: "cannot alias: home extent failed verification"}
		case e.dead:
			return nil, fmt.Errorf("%w: object %d", ErrNoSuchObject, src)
		case e.dirty || e.ckpt:
			return nil, fmt.Errorf("%w: object %d", ErrNotCommitted, src)
		}
	}
	e := s.entry(dst)
	if e.resident() {
		return nil, fmt.Errorf("%w: object %d", ErrCloneExists, dst)
	}
	h, ok := s.homeOf(src)
	if !ok {
		return nil, fmt.Errorf("%w: object %d has no committed home", ErrNoSuchObject, src)
	}
	if _, taken := s.homeOf(dst); taken {
		return nil, fmt.Errorf("%w: object %d", ErrCloneExists, dst)
	}
	s.setHome(dst, h)
	s.extRefs[h.off] = max(s.extRefs[h.off], 1) + 1 // an absent entry was the one ordinary owner
	e.dead, e.quar = false, false
	e.lbl, e.hasLbl = lbl, true
	rec := wal.Record{ObjectID: dst, Data: encodeAliasBody(h), Label: lbl.AppendBinary(nil), Clone: true}
	return s.submit(&syncTicket{rec: rec, done: make(chan struct{})})
}

// replayAliasRecord re-applies an alias from a WAL record during Open
// (single-threaded).  extents is the loaded home table by offset: a record
// that does not decode, or names an extent no loaded object anchors —
// possible only after a metadata fallback past the snapshot that held it —
// quarantines the destination rather than serving bytes nothing vouches for.
func (s *Store) replayAliasRecord(r wal.Record, extents map[int64]home) {
	dst := r.ObjectID
	e := s.entry(dst)
	if _, ok := s.homeOf(dst); ok && !e.dead {
		// Placed already, and no replayed tombstone since: the record is stale.
		return
	}
	h, err := decodeAliasBody(r.Data)
	if err == nil && extents[h.off] != h {
		err = fmt.Errorf("no loaded object holds the extent at offset %d", h.off)
	}
	if err != nil {
		s.noteCorruption(fmt.Errorf("%w: replaying alias record for object %d: %v", ErrCorrupt, dst, err))
		s.quarantine(e)
		return
	}
	s.setHome(dst, h)
	e.data, e.dead, e.quar, e.dirty = nil, false, false, false
	if len(r.Label) == 0 {
		e.lbl, e.hasLbl = label.Label{}, false
	} else if lbl, rest, derr := label.DecodeBinary(r.Label); derr == nil && len(rest) == 0 {
		e.lbl, e.hasLbl = lbl, true
	} else {
		s.noteCorruption(fmt.Errorf("%w: replaying label of alias %d: %v", ErrCorrupt, dst, derr))
	}
}
