package store

import (
	"cmp"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"slices"
	"time"
)

// Checkpoint persists a whole-system snapshot without stopping the world.
// Only the SEAL is exclusive, and it does no I/O at all:
//
//	SEAL    (ckptMu held exclusively, and mu; microseconds): take a fresh
//	        epoch, capture the entries changed since the last seal — dirty
//	        ones with their labels, dead ones — and clear the dirty flags
//	        (marking the entries ckpt, so they keep their contents and
//	        condemn leaves them alone).  Log frames committed from then on
//	        carry the new epoch, so replay boundaries equal seal boundaries.
//	BODY    (no ckptMu; serialized by ckptRun; mu only between device
//	        writes): in memory, place the sealed contents in append-only
//	        segments, merge their homes into the object map, let the cleaner
//	        place its moves, and place after them the delta — the tables'
//	        rows changed since the last commit.  Then write a run header at
//	        the sector the last delta reserved, the data, the delta, and
//	        flush once: the commit (twice, data first, when some lies above
//	        the delta).  Only then is the free list derived and the sealed
//	        entries released; a failure puts every table back.  Once the
//	        chain since the last base holds maxChainLinks deltas or more bytes
//	        than half the base, the checkpoint also writes a new base and
//	        flips the superblock to it.
//	FINISH  restart the log when every frame is of an epoch older than the
//	        previous committed snapshot's, which a lost last delta falls
//	        back to; otherwise leave it whole.
//
// Checkpoints remain copy-on-write: appends land only past a segment's
// committed high-water mark, and a dropped segment is free only from the
// commit after the one that drops it (alloc.go).  A delta that verifies
// implies its data: the cache destages in ascending order, and data placed
// above the delta is flushed before it.  Every seal attempt takes a fresh
// epoch, so a failed body burns its own: records synced before the retry
// never replay over its snapshot.
func (s *Store) Checkpoint() error {
	s.ckptRun.Lock()
	defer s.ckptRun.Unlock()
	return s.checkpointRunLocked(false)
}

// A checkpoint writes a base once the chain holds maxChainLinks deltas, which
// bounds what Open walks, or more bytes than half the base, counted as at
// least a segment, since a small one costs its seeks, not its bytes: on
// PaperDisk the superblock's two seeks take as long as ~1.5 MB of transfer.
const maxChainLinks = 16

// sealedEntry is one entry captured by the seal: a dirty object whose
// sealed contents must be written home, or a dead object whose extent must
// be vacated.
type sealedEntry struct {
	id   uint64
	e    *objEntry
	data []byte // aliases the contents slice sealed for this epoch (shared)
	lbl  []byte // the label sealed with data, encoded (nil: none)
	home        // where commitDelta placed data
	dead bool
}

// sealedState is everything the checkpoint body needs, captured under the
// brief exclusive seal.
type sealedState struct {
	entries []sealedEntry // dirty and dead entries, in the order they changed
	epoch   uint64        // the snapshot epoch this checkpoint commits
}

// checkpointRunLocked runs one seal→body→finish cycle; the caller holds
// ckptRun, which serializes whole checkpoints (Checkpoint itself, Close,
// and the sync fallback in checkpointSince).  Close's seal also closes the
// store, and a failed body opens it again.
func (s *Store) checkpointRunLocked(closing bool) error {
	start := time.Now()
	s.ckptMu.Lock()
	if s.closed {
		s.ckptMu.Unlock()
		return ErrClosed
	}
	s.mu.Lock()
	ss := s.sealCheckpoint()
	s.closed = closing
	s.mu.Unlock()
	s.ckptMu.Unlock()
	// The stall metric; ckptRun serializes callers, so a plain load and
	// store keep the maximum.
	stall := time.Since(start).Nanoseconds()
	if stall > s.c.sealStallMaxNs.Load() {
		s.c.sealStallMaxNs.Store(stall)
	}
	if gate := s.ckptGate; gate != nil {
		gate()
	}
	err := s.checkpointBody(ss)
	if err != nil && closing {
		s.ckptMu.Lock()
		s.mu.Lock()
		s.closed = false
		s.mu.Unlock()
		s.ckptMu.Unlock()
	}
	return err
}

// sealCheckpoint is the SEAL phase; the caller holds ckptRun, ckptMu
// exclusively, and mu.  It walks the changed list in the order the entries
// changed, which relocation keeps: objects written together are homed side
// by side, and a deterministic workload produces a byte-deterministic image.
func (s *Store) sealCheckpoint() *sealedState {
	// Syncs hold ckptMu in read mode from sealing a record to its commit, so
	// every frame committed from here on carries the new epoch.
	ss := &sealedState{epoch: s.epoch.Add(1)}
	s.logGen.Add(1) // a range record never reaches back past a seal (see sealSync)
	ids := s.changed
	s.changed = nil
	for _, id := range ids {
		e := s.objs[id]
		e.listed = false
		switch {
		case e.dead:
			// The entry stays, the deletion visible, until the delta commits.
			ss.entries = append(ss.entries, sealedEntry{id: id, e: e, dead: true})
		case e.dirty:
			// Seal the contents, shared so no put patches them; ckpt keeps
			// them resident until the delta commits.
			e.dirty, e.ckpt, e.shared = false, true, true
			ss.entries = append(ss.entries, sealedEntry{id: id, e: e, data: e.data, lbl: e.lbl})
		}
		// Anything else on the list holds a quarantine verdict, which stays
		// (and keeps its place in QuarantinedObjects).
	}
	return ss
}

// restoreSealed undoes a seal whose checkpoint failed: every sealed entry
// goes back on the changed list, a sealed-dirty one dirty again with its
// sealed copy still resident, and a sealed deletion as it was, so the next
// checkpoint retries them.  Entries deleted or re-written concurrently keep
// their newer state.
func (s *Store) restoreSealed(ss *sealedState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, se := range ss.entries {
		if !se.dead {
			se.e.ckpt, se.e.dirty = false, !se.e.dead
		}
		s.touch(se.id, se.e)
	}
}

// releaseSealed runs once the snapshot holding the sealed states has
// committed: a sealed entry not changed since the seal leaves the table, its
// state — contents and label, or absence — now the snapshot's; one a put or
// delete changed since leaves ckpt and keeps its newer state for the next
// seal.  Either way the fresh extent supersedes any damage verdict.
func (s *Store) releaseSealed(ss *sealedState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, se := range ss.entries {
		if se.e.listed {
			se.e.ckpt = false
		} else {
			delete(s.objs, se.id)
		}
	}
}

// checkpointBody is the BODY and FINISH of one checkpoint; the caller holds
// ckptRun.  A failure before the delta commits undoes the seal.  Out of
// space, a body whose seal deletes homes commits the deletions alone, under
// the committed epoch so replay restores every logged state, then an empty
// delta, which frees what they dropped, and retries.  With no deletions, an
// empty delta still frees what the last commit dropped (the cleaner's victims
// among them), which no body may reuse until a commit follows it.
func (s *Store) checkpointBody(ss *sealedState) error {
	prev := s.metaEpoch
	grown := int64(0)
	for _, e := range s.chain {
		grown += e.size
	}
	flip := len(s.chain) > maxChainLinks || 2*grown > max(s.base.ext.size, s.segSize) || s.base.renew
	err := s.commitDelta(ss.entries, ss.epoch, true)
	if errors.Is(err, ErrNoSpace) {
		s.mu.Lock()
		dead := slices.DeleteFunc(slices.Clone(ss.entries), func(se sealedEntry) bool {
			_, homed := s.homeAt(se.id)
			return !se.dead || !homed
		})
		held := len(s.held) > 0
		s.mu.Unlock()
		if len(dead) > 0 || held {
			if err = s.commitDelta(dead, s.metaEpoch, false); err == nil && len(dead) > 0 {
				err = s.commitDelta(nil, s.metaEpoch, false)
			}
			if err == nil {
				err = s.commitDelta(ss.entries, ss.epoch, true)
			}
		}
	}
	if err != nil {
		s.restoreSealed(ss)
		return err
	}
	s.releaseSealed(ss)
	if flip {
		// A base that finds no room waits for a checkpoint that does; the
		// chain goes on meanwhile.
		if err := s.writeBase(ss.epoch); err != nil && !errors.Is(err, ErrNoSpace) {
			return err
		}
	}
	// FINISH: frames below the previous snapshot's epoch serve no replay,
	// and once they are all the log holds it restarts.  That snapshot's own
	// frames stay, for a last delta lost to rot, so a log the syncs filled
	// drains at the checkpoint after the one they forced.
	if err := s.l.ReclaimBefore(prev); err != nil {
		return err
	}
	s.c.checkpoints.Add(1)
	return nil
}

// tables is what a body changes, as the last commit left it: the home table
// (mergeHomes builds a new one), the segment table with a copy of each
// segment, the open segment, the free list and what the commit dropped.
type tables struct {
	homes     []homedObject
	segs, old []*segment
	open      *segment
	free      []extent
	held      []extent
}

// saveTables and restoreTables keep and put back the committed tables around
// a body that may fail; the caller holds mu.
func (s *Store) saveTables() *tables {
	t := &tables{homes: s.homes, segs: slices.Clone(s.segs), open: s.openSeg, free: slices.Clone(s.free), held: s.held}
	for _, seg := range s.segs {
		t.old = append(t.old, &segment{base: seg.base, size: seg.size, used: seg.used, live: seg.live})
	}
	return t
}

func (s *Store) restoreTables(t *tables) {
	s.homes, s.segs, s.openSeg, s.free, s.held = t.homes, t.segs, t.open, t.free, t.held
	s.spare = nil // a merge may have left it naming t.homes
	for i, seg := range t.segs {
		*seg = *t.old[i]
	}
}

// pending is one write a body has placed but not yet issued.
type pending struct {
	off  int64
	data []byte
}

// commitDelta places entries' contents (and, with clean, the cleaner's
// moves), merges their homes, and places after them the delta, sized for
// the one segment row its own placement can add, then writes it all; a
// failure puts the tables back.
func (s *Store) commitDelta(entries []sealedEntry, epoch uint64, clean bool) error {
	for i := range entries {
		if se := &entries[i]; !se.dead {
			se.home = home{size: int64(len(se.data)), crc: crc32c(se.data)}
		}
	}
	s.mu.Lock()
	was := s.saveTables()
	s.held = nil // dropSeg collects this body's
	fail := func(err error) error {
		s.restoreTables(was)
		s.mu.Unlock()
		return err
	}
	var writes []pending
	var homed int64
	for i := range entries {
		if se := &entries[i]; !se.dead {
			off, err := s.place(se.size, s.allocate)
			if err != nil {
				return fail(err)
			}
			se.off, writes, homed = off, append(writes, pending{off, se.data}), homed+se.size
		}
	}
	d := &record{epoch: epoch, chain: s.chainID, homes: s.mergeHomes(entries)}
	s.mu.Unlock()
	if clean {
		cleaned, moved := s.cleanSegments()
		writes, d.homes = append(writes, cleaned...), append(d.homes, moved...)
		slices.SortFunc(d.homes, func(a, b homedObject) int { return cmp.Compare(a.id, b.id) })
	}
	s.mu.Lock()
	d.segs = diffSegs(was.old, s.segs)
	size := recordSize(s.rbuf, d)
	off, err := s.place(size+runHeaderSize, s.allocateTop)
	if err != nil {
		return fail(err)
	}
	d.next, d.segs = off+size, diffSegs(was.old, s.segs)
	s.rbuf = appendRecord(s.rbuf[:0], d, size)
	sum, _ := recordSum(s.rbuf)
	rh := runHeader{chain: s.chainID, link: s.link, epoch: epoch, off: off, len: size, sum: sum}
	run := pending{s.nextRun, encodeRunHeader(rh)}
	s.mu.Unlock()
	// The cache destages in ascending order, so a delta that verifies
	// implies the data below it; data above it takes a flush of its own.
	all := append(append([]pending{run}, writes...), pending{off, s.rbuf})
	split := len(all)
	if slices.ContainsFunc(writes, func(w pending) bool { return w.off > off }) {
		split--
	}
	err = s.writeCommit(all[:split]...)
	if err == nil && split < len(all) {
		err = s.writeCommit(all[split:]...)
	}
	if err != nil {
		// Zeros over the run header, best effort, keep a later flush from
		// committing a link the cache may hold once the tables are put back.
		_, _ = s.d.WriteAt(make([]byte, runHeaderSize), run.off)
		s.mu.Lock()
		return fail(err)
	}
	s.mu.Lock()
	s.chain = append(s.chain, extent{off, size + runHeaderSize})
	s.nextRun, s.link, s.metaEpoch = d.next, rh.nextLink(), epoch
	s.free, _ = s.deriveFree(0, false)
	s.mu.Unlock()
	s.c.bytesHome.Add(uint64(homed))
	s.c.metaBytesWritten.Add(uint64(size + runHeaderSize))
	return nil
}

// writeCommit is a commit's device schedule: the writes, then one flush.
// For a delta they are its run header, the data and the delta, each
// continuing where the last stopped, the first where the last checkpoint's
// did, so the flush costs a revolution, not a seek (data above the delta is
// a commit of its own before it); a base is two commits, the base and then
// the superblock.
func (s *Store) writeCommit(writes ...pending) error {
	for _, w := range writes {
		if len(w.data) == 0 {
			continue
		}
		if _, err := s.d.WriteAt(w.data, w.off); err != nil {
			return err
		}
	}
	return s.d.Flush()
}

// writeBase writes the committed tables as a new base, placed like a delta
// and sized for the one segment row its placement can add, and flips the
// superblock to it and the base before (in the body, under ckptRun, which
// fences a scrub's reads, or in Format).  The new chain starts at the sector
// the last delta reserved, taken over from the chain the base ends, which
// stays pinned with the base before; the ones before them are released.  A
// failure puts the tables back.
func (s *Store) writeBase(epoch uint64) error {
	var b [8]byte
	crand.Read(b[:]) // cannot fail: crypto/rand stops the program instead
	r := &record{epoch: epoch, chain: binary.LittleEndian.Uint64(b[:])}
	s.mu.Lock()
	was := s.saveTables()
	r.next, r.homes, r.segs, r.pins = s.nextRun, s.homes, s.segs, s.ended()
	at := extent{size: recordSize(s.rbuf, r)}
	off, err := s.place(at.size, s.allocateTop)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	at.off, r.segs = off, s.segs
	s.rbuf = appendRecord(s.rbuf[:0], r, at.size)
	sb := encodeSuperblockCopy(superblockInfo{chain: r.chain, logSize: s.logSize, epoch: epoch, base: at, prev: s.base.ext})
	s.mu.Unlock()
	sb = append(append(sb, make([]byte, sbBackupOff-sbCopySize)...), sb...)
	err = s.writeCommit(pending{off, s.rbuf})
	if err == nil {
		if err = s.writeCommit(pending{superblockOffset, sb}); err != nil && s.sb != nil {
			// As for a delta's run header: the copies the disk held go back
			// over the cache's, so no later flush flips to this base.
			_, _ = s.d.WriteAt(s.sb, superblockOffset)
		}
	}
	if err != nil {
		s.mu.Lock()
		s.restoreTables(was)
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	s.chainID, s.link = r.chain, r.chain
	for _, e := range append(slices.Clip(s.prevChain), s.prevBase) {
		if e.size > 0 {
			s.segContaining(e.off).live -= e.size // dropped by the next body's cleaner
		}
	}
	s.prevBase, s.prevChain, s.sb = s.base.ext, r.pins, sb
	s.base = baseRef{ext: at, epoch: epoch, chain: r.chain, run: s.nextRun}
	s.chain = []extent{{s.nextRun, runHeaderSize}}
	s.held = nil // no delta to fall back past
	s.free, _ = s.deriveFree(0, false)
	s.mu.Unlock()
	s.c.metaBytesWritten.Add(uint64(at.size) + uint64(len(sb)))
	return nil
}

// ended is the chain a base written now ends, as that base pins it: less its
// last sector, the new chain's first run header, which the new chain counts.
// The caller holds mu.
func (s *Store) ended() []extent {
	pins := slices.Clone(s.chain)
	pins[len(pins)-1].size -= runHeaderSize
	return slices.DeleteFunc(pins, func(e extent) bool { return e.size == 0 })
}
