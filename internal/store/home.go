package store

import (
	"fmt"

	"histar/internal/btree"
)

// home is an object's committed home record: where its contents live in the
// data region, how long they are, and the CRC32C they had when the
// checkpoint wrote them there.  It is the one per-object fact the metadata
// snapshot persists, and the unit every reader of a home extent (Get, scrub,
// the cleaner) verifies against.
type home struct {
	off  int64
	size int64
	crc  uint32
}

// homedObject is one entry of an ordered scan over the home table.
type homedObject struct {
	id uint64
	home
}

// The home table is the paper's object map — a B+-tree from object ID to
// disk location, which is what orders scans by ID — with each object's whole
// home record beside it for point lookups.  homeOf, setHome, dropHome and
// scanHomes are its only accessors; callers hold metaMu (shared for homeOf
// and scanHomes), or run single-threaded (Open) or under the exclusive seal.

func (s *Store) homeOf(id uint64) (home, bool) {
	h, ok := s.homes[id]
	return h, ok
}

func (s *Store) setHome(id uint64, h home) {
	s.objMap.Put(btree.K1(id), uint64(h.off))
	s.homes[id] = h
}

func (s *Store) dropHome(id uint64) {
	s.objMap.Delete(btree.K1(id))
	delete(s.homes, id)
}

// scanHomes visits every home in ascending ID order until fn returns false.
func (s *Store) scanHomes(fn func(id uint64, h home) bool) {
	s.objMap.Scan(func(k btree.Key, _ uint64) bool { return fn(k[0], s.homes[k[0]]) })
}

// lookupHome is homeOf for callers that do not hold metaMu.
func (s *Store) lookupHome(id uint64) (home, bool) {
	s.metaMu.RLock()
	defer s.metaMu.RUnlock()
	return s.homeOf(id)
}

// readVerified reads the extent h names and checks the contents against
// h.crc; a mismatch comes back as a CorruptError.  It passes no verdict: the
// caller decides whether h is still current (scrub's captured targets may be
// stale) and then calls condemn.
func (s *Store) readVerified(h home) ([]byte, error) {
	buf := make([]byte, h.size)
	if h.size > 0 {
		if _, err := s.d.ReadAt(buf, h.off); err != nil {
			return nil, err
		}
	}
	if got := crc32c(buf); got != h.crc {
		return nil, &CorruptError{Area: "object", Offset: h.off,
			Detail: fmt.Sprintf("contents checksum mismatch: got %#x, want %#x", got, h.crc)}
	}
	return buf, nil
}

// condemn is the one verdict on a home extent whose contents failed
// verification, whichever read path found it: the corruption is counted,
// every object whose home is that extent — the one being read, and every
// alias sharing it — is quarantined, so a further alias of any of them fails
// typed instead of fanning the damage out.  An object whose in-memory state
// is dirty, dead or sealed into the running checkpoint is left alone: that
// state replaces the extent at the next relocation, so the damaged bytes are
// already superseded.  Called with no entry lock, metaMu or allocMu held;
// returns how many objects it newly quarantined.
func (s *Store) condemn(off int64) int {
	s.integ.corruptions.Add(1)
	var ids []uint64
	s.metaMu.RLock()
	s.scanHomes(func(id uint64, h home) bool {
		if h.off == off {
			ids = append(ids, id)
		}
		return true
	})
	s.metaMu.RUnlock()
	fresh := 0
	for _, id := range ids {
		e := s.shardOf(id).getOrCreate(id)
		e.mu.Lock()
		if !e.dirty && !e.dead && !e.ckpt && !e.quar {
			s.quarantine(e)
			fresh++
		}
		e.mu.Unlock()
	}
	return fresh
}
