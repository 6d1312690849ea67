package store

// Group commit is the one way into the write-ahead log: SyncObject seals a
// record from the object's current state, enqueues it with the committer and
// waits on a ticket.  The first syncer to find the committer idle leads: it
// drains the queue in batches bounded by groupCommitBytes and
// groupCommitRecords, each one wal.Commit (one frame, one flush, stamped with
// the current epoch), and resolves their tickets.
//
// Crash-consistency invariants:
//
//   - A record is sealed and enqueued under mu, so per object log order is
//     seal order: replay never regresses an object.
//   - SyncObjects holds ckptMu in read mode from first seal to last ticket,
//     so no checkpoint SEAL falls between sealing a state and committing it.
//   - A range record commits only in the log generation it was sealed in;
//     one of an older generation takes the checkpoint fallback (sealSync).
//   - A batch that cannot commit leaves nothing in the log, and its syncers
//     fall back to one shared checkpoint, which makes a state at least as
//     new durable: any checkpoint sealed after the epoch a syncer recorded
//     under ckptMu covers it.

import (
	"errors"
	"runtime"
	"sync"

	"histar/internal/wal"
)

// errRetryCheckpoint is the internal signal that a sync must be satisfied by
// a whole-system checkpoint instead of a log record.
var errRetryCheckpoint = errors.New("store: sync falls back to a checkpoint")

// syncTicket is one syncer's claim on a future batch commit.
type syncTicket struct {
	rec  wal.Record
	base uint64 // the log generation a range record was sealed in; 0 for others
	done chan struct{}
	err  error
}

// committer is the leader/follower group-commit state.  mu is a leaf lock:
// it is taken below the store's mu (enqueue) and never while holding it does
// the committer acquire any other store lock.
type committer struct {
	mu         sync.Mutex
	queue      []*syncTicket
	leaderBusy bool
	// held pauses the committer (test hook): syncers enqueue and block until
	// release, which drains the queue on the releasing goroutine.
	held bool
	// maxBytes and maxRecs bound a batch: groupCommitBytes and
	// groupCommitRecords, lowered by tests that want small batches.
	maxBytes int64
	maxRecs  int

	// maxBatch is the largest batch whose commit succeeded, guarded by mu.
	maxBatch int
}

// enqueue registers a sealed record's ticket for the next batch.  Called with
// the store's mu held, so per-object queue order matches seal order.
func (c *committer) enqueue(t *syncTicket) {
	c.mu.Lock()
	c.queue = append(c.queue, t)
	c.mu.Unlock()
}

// takeBatch pops the next bounded batch off the queue; the caller holds
// c.mu.  Statistics are recorded by the leader once the batch commits.
func (c *committer) takeBatch() []*syncTicket {
	n, bytes := 0, int64(0)
	for n < len(c.queue) {
		sz := c.queue[n].rec.EncodedSize()
		if n > 0 && (bytes+sz > c.maxBytes || n >= c.maxRecs) {
			break
		}
		bytes += sz
		n++
	}
	batch := append([]*syncTicket(nil), c.queue[:n]...)
	rest := copy(c.queue, c.queue[n:])
	for i := rest; i < len(c.queue); i++ {
		c.queue[i] = nil
	}
	c.queue = c.queue[:rest]
	return batch
}

// awaitCommit resolves t: the calling syncer becomes the leader if the
// committer is idle, otherwise waits for the active leader (or a test
// release) to commit its batch.
func (s *Store) awaitCommit(t *syncTicket) error {
	c := &s.comm
	c.mu.Lock()
	if !c.held && !c.leaderBusy {
		c.leaderBusy = true
		if s.syncers.Load() > 1 {
			// Other syncers are in flight, and the ones this goroutine woke
			// (closing a batch's tickets, or unlocking mu) wait in its
			// processor's run queue: let them seal first, so they join this
			// batch instead of waiting out its commit.
			c.mu.Unlock()
			runtime.Gosched()
			c.mu.Lock()
		}
		s.drainLocked()
		c.leaderBusy = false
	}
	c.mu.Unlock()
	// A follower waits on its own ticket, not on a commit lock, so it leaves as soon as its batch commits.
	<-t.done
	return t.err
}

// drainLocked commits batches until the queue is empty (or a test hold
// pauses the committer).  Called with c.mu held; returns with it held.  The
// queue cannot grow unboundedly under the leader: every enqueuer holds
// ckptMu in read mode and blocks on its ticket, so at most one record per
// live syncer is outstanding.
func (s *Store) drainLocked() {
	c := &s.comm
	for len(c.queue) > 0 && !c.held {
		batch := c.takeBatch()
		c.mu.Unlock()
		err := s.commitBatch(batch)
		for _, bt := range batch {
			if bt.err == nil {
				bt.err = err
			}
			close(bt.done)
		}
		c.mu.Lock()
		if err == nil {
			c.maxBatch = max(c.maxBatch, len(batch))
		}
	}
}

// commitBatch commits one batch, less any range record of an older log
// generation: the one frame and one flush that many syncers share, stamped
// with the epoch every record in it was sealed in (its syncers hold ckptMu in
// read mode, so no seal has moved it since).  A batch
// that did not commit is in the log nowhere, so no later commit — potentially
// after a checkpoint made newer states durable — can regress its objects:
// each syncer is told to retry or fail, and the log generation ends.
func (s *Store) commitBatch(batch []*syncTicket) error {
	recs := make([]wal.Record, 0, len(batch))
	for _, t := range batch {
		if t.base != 0 && t.base != s.logGen.Load() {
			t.err = errRetryCheckpoint
			continue
		}
		recs = append(recs, t.rec)
	}
	err := s.l.Commit(s.epoch.Load(), recs)
	if err != nil {
		s.logGen.Add(1)
	}
	if errors.Is(err, wal.ErrFull) || errors.Is(err, wal.ErrTooLarge) {
		// ErrTooLarge is pre-checked at seal time; only a shrunken log could
		// answer it here.
		return errRetryCheckpoint
	}
	if err != nil {
		return err
	}
	for _, r := range recs {
		s.c.bytesLogged.Add(uint64(len(r.Data)))
	}
	return nil
}

// SyncObject durably records the current contents of one object, and in the
// same log record its canonical label, so a crash never resurrects it with a
// stale label: the fast path for fsync of one file.  A record the log cannot
// take gets a checkpoint instead.  Directory-level fsync (the kernel's Sync)
// is a Checkpoint, which is why the paper's synchronous unlink phase is so
// much slower on HiStar than on Linux.
func (s *Store) SyncObject(id uint64) error { return s.SyncObjects([]uint64{id})[0] }

// sealSync seals one object's current state into a log record and enqueues
// it with the committer; the caller holds ckptMu in read mode.  A nil ticket
// means there is nothing to await: with a nil error the on-disk copy is
// already current, otherwise the error says why the object cannot be synced
// through the log (errRetryCheckpoint when a checkpoint must provide the
// durability instead).
//
// The record holds only the bytes pushed since the object's last record (a
// range record) when the length is unchanged and the last whole record was
// sealed in the current log generation, which every checkpoint seal and every
// record the log refuses ends; a range record commits in its own generation
// only (commitBatch), so replay meets its base in a frame of the same epoch.
func (s *Store) sealSync(id uint64) (*syncTicket, error) {
	s.c.objectSyncs.Add(1)
	// The ticket is made before mu is taken: every operation takes mu, so it
	// is held across no allocation it need not be.
	t := &syncTicket{done: make(chan struct{})}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.objs[id]
	if e == nil {
		// Nothing in memory and not deleted: the on-disk copy is current.
		return nil, nil
	}
	var rec wal.Record
	var base uint64
	switch {
	case e.dead:
		rec = wal.Record{ObjectID: id, Delete: true}
	case e.resident():
		rec = wal.Record{ObjectID: id, Data: e.data, Label: e.lbl}
		if gen := s.logGen.Load(); e.base != gen || e.lo <= 0 && e.hi >= len(e.data) {
			e.base, e.shared = gen, true // the record aliases e.data
		} else {
			rec.Data, rec.Range, base = encodeRangeBody(e.lo, e.data[e.lo:max(e.lo, e.hi)]), true, gen
		}
		e.lo, e.hi = 0, 0
	case e.quar:
		// No resident copy and the home extent is damaged: the store
		// cannot promise this object is durable.
		return nil, &QuarantineError{ID: id, Detail: "cannot sync: home extent failed verification"}
	default:
		return nil, nil
	}
	t.rec, t.base = rec, base
	if s.l.TooLarge(rec) {
		// The log can never take the record (it exceeds the log region or
		// the format's label-length field): a checkpoint syncs it instead.
		s.logGen.Add(1)
		return nil, errRetryCheckpoint
	}
	// Enqueued under mu: per-object log order = seal order.
	s.comm.enqueue(t)
	return t, nil
}

// SyncObjects durably records the current contents of many objects at once:
// the batched form of SyncObject, which the kernel's SyncSegments calls, and
// the one body of every sync.  Under ckptMu in read mode it seals every id's
// record, then waits for every record's batch: every record is enqueued
// before any ticket is awaited, so the leader forms full batches even with
// no concurrent syncers, and N syncs cost at most ⌈N/groupCommitRecords⌉ log
// flushes instead of N.  The returned slice has one error slot per id (nil =
// durable); ids that cannot go through the log share a single checkpoint
// fallback.
func (s *Store) SyncObjects(ids []uint64) []error {
	s.syncers.Add(1)
	defer s.syncers.Add(-1)
	errs := make([]error, len(ids))
	s.ckptMu.RLock()
	if s.closed {
		s.ckptMu.RUnlock()
		for i := range errs {
			errs[i] = ErrClosed
		}
		return errs
	}
	epoch := s.epoch.Load()
	tickets := make([]*syncTicket, len(ids))
	for i, id := range ids {
		tickets[i], errs[i] = s.sealSync(id)
	}
	retry := false
	for i, t := range tickets {
		if t != nil {
			errs[i] = s.awaitCommit(t)
		}
		retry = retry || errors.Is(errs[i], errRetryCheckpoint)
	}
	s.ckptMu.RUnlock()
	if retry {
		ckErr := s.checkpointSince(epoch)
		for i := range errs {
			if errors.Is(errs[i], errRetryCheckpoint) {
				errs[i] = ckErr
			}
		}
	}
	return errs
}

// checkpointSince is a sync's checkpoint fallback: nothing, if a checkpoint
// sealed after the epoch the syncer recorded has committed, else one.  The
// check repeats under ckptRun, so a whole failed batch shares one.
func (s *Store) checkpointSince(epoch uint64) error {
	if s.committedEpoch() > epoch {
		return nil
	}
	s.ckptRun.Lock()
	defer s.ckptRun.Unlock()
	if s.committedEpoch() > epoch {
		return nil
	}
	return s.checkpointRunLocked()
}

// committedEpoch is the epoch of the committed snapshot.
func (s *Store) committedEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metaEpoch
}

// GroupCommitStats describes the committer's batching behaviour: the records
// in committed batches, and the largest batch formed.
type GroupCommitStats struct {
	MaxBatch int
}

// GroupCommitStats returns a snapshot of the committer's batch statistics.
func (s *Store) GroupCommitStats() GroupCommitStats {
	c := &s.comm
	c.mu.Lock()
	defer c.mu.Unlock()
	return GroupCommitStats{MaxBatch: c.maxBatch}
}
