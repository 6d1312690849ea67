package store

import (
	"sync"

	"histar/internal/label"
)

// objEntry is the in-memory state of one object: flags, the recorded label,
// and the contents while no committed home holds them (resident).  All
// fields are guarded by mu, except that holders of the store's ckptMu in
// write mode (Checkpoint) and single-threaded construction (Format, Open)
// access them directly.  A put patches data in place unless shared says a
// sealed whole log record or checkpoint capture still holds it; then data is
// replaced, never mutated.
type objEntry struct {
	mu     sync.Mutex
	data   []byte
	shared bool // a sealed record or checkpoint capture aliases data
	dirty  bool // modified since the last checkpoint seal
	dead   bool // deleted since the last checkpoint seal
	// deadSealed marks a dead entry a checkpoint seal has captured.  Only a
	// later seal that still finds the mark drops the entry from its shard:
	// Delete clears it, and so does restoreSealed when the capturing
	// checkpoint fails, so by then a committed snapshot no longer holds the
	// object.  Until then SyncObject finds the entry and logs the tombstone,
	// rather than taking the object's absence from memory for its absence
	// from disk.
	deadSealed bool
	lbl        label.Label
	hasLbl     bool
	// quar marks an object whose home-extent contents failed checksum
	// verification: accesses that would read the damaged extent return
	// ErrQuarantined instead of corrupt bytes, until a Put/Delete replaces
	// the contents.  The flag never blocks a resident copy.
	quar bool
	// ckpt marks an entry sealed into the running incremental checkpoint:
	// until the snapshot naming the sealed state's new home commits, no
	// durable home holds that state, so the entry keeps its copy (a Get
	// reads it, a sync logs it) and condemn leaves it alone.  Cleared by
	// releaseSealed, or by restoreSealed if the checkpoint fails.
	ckpt bool

	lo, hi int    // [lo, hi) changed since the last log record (empty: lo >= hi)
	base   uint64 // the log generation of the last whole record
}

// resident reports whether the entry holds the object's contents (data ==
// nil cannot say: an empty object's contents are nil too).
func (e *objEntry) resident() bool { return (e.dirty || e.ckpt) && !e.dead }

// storeShard is one shard of the object-entry table, selected by object-ID
// bits.  mu guards the id→entry map and is never held while an entry lock is
// acquired.
type storeShard struct {
	mu   sync.RWMutex
	objs map[uint64]*objEntry
	_    [48]byte // keep adjacent shards off one cache line
}

func (s *Store) shardOf(id uint64) *storeShard {
	return &s.shards[id&(storeShards-1)]
}

// lookup returns the entry for id, or nil.  Entry pointers stay valid while
// the caller holds ckptMu in read mode (only Checkpoint removes entries).
func (sh *storeShard) lookup(id uint64) *objEntry {
	sh.mu.RLock()
	e := sh.objs[id]
	sh.mu.RUnlock()
	return e
}

// getOrCreate returns the entry for id, inserting a fresh one if absent.
func (sh *storeShard) getOrCreate(id uint64) *objEntry {
	if e := sh.lookup(id); e != nil {
		return e
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.objs[id]; e != nil {
		return e
	}
	e := &objEntry{}
	sh.objs[id] = e
	return e
}

// shardEntry pairs an entry with its id for lock-free iteration after a
// snapshot.
type shardEntry struct {
	id    uint64
	entry *objEntry
}

// snapshot copies the shard's (id, entry) pairs under the shard read lock so
// callers can lock entries afterwards without holding mu.
func (sh *storeShard) snapshot() []shardEntry {
	sh.mu.RLock()
	out := make([]shardEntry, 0, len(sh.objs))
	for id, e := range sh.objs {
		out = append(out, shardEntry{id: id, entry: e})
	}
	sh.mu.RUnlock()
	return out
}
