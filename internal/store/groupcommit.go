package store

// Group commit is the one way into the write-ahead log for every record the
// store writes except the seal's epoch marker: SyncObject seals a record
// from the object's current state, Alias one describing the alias it
// installed; each enqueues it with the committer and waits on a commit
// ticket.  The first syncer to find the committer idle becomes the leader:
// it drains the queue in bounded batches, each batch one wal.Commit (one
// frame at the log's tail, one flush), and resolves every ticket in the
// batch.  Followers just wait; their latency is bounded by at most one
// in-flight batch ahead of theirs, and batch size is bounded by
// Options.GroupCommitBytes/GroupCommitRecords.
//
// Crash-consistency invariants:
//
//   - A record is sealed and enqueued while holding the object's entry lock,
//     so for one object, log order equals seal order: replay can never
//     regress an object to an earlier sealed state.
//   - logged holds ckptMu in read mode from first seal to last ticket
//     resolution, so no checkpoint SEAL can intervene between sealing a state
//     and committing it — a record in the log is never older than the epoch
//     marker before it, so replay on the matching snapshot never regresses.
//   - When a batch cannot commit (log full, or a record that could never
//     fit), the log keeps none of it and every affected syncer falls back to
//     a checkpoint: the checkpoint makes a state at least as new as each
//     sealed record durable, which satisfies the sync contract, and no later
//     commit can regress objects below the checkpoint.  The sealSeq/completedSeal
//     pair lets the fallback syncers share one checkpoint instead of each
//     running their own: a syncer records sealSeq while still under ckptMu
//     read mode, and any checkpoint sealed strictly after that (its body
//     committed, so completedSeal exceeds the recorded value) covered the
//     syncer's state.

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
	done chan struct{}
	err  error
}

// committer is the leader/follower group-commit state.  mu is a leaf lock:
// it is taken below entry locks (enqueue) and never while holding it does
// the committer acquire any other store lock.
type committer struct {
	mu         sync.Mutex
	queue      []*syncTicket
	leaderBusy bool
	// held pauses the committer (test hook): syncers enqueue and block until
	// release, which drains the queue on the releasing goroutine.
	held     bool
	maxBytes int64
	maxRecs  int

	// Batch statistics, guarded by mu and counted only for batches whose
	// commit succeeded — the committer is the single source of truth for
	// batching stats (wal.Stats counts at the append layer, which also sees
	// batches whose commit later fails).  hist buckets batch sizes as
	// 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+.
	batches      uint64
	batchRecords uint64
	maxBatch     int
	hist         [groupHistBuckets]uint64
}

const groupHistBuckets = 8

// histBucket maps a batch size to its histogram bucket.
func histBucket(n int) int {
	b := 0
	for n > 1 && b < groupHistBuckets-1 {
		n = (n + 1) / 2
		b++
	}
	return b
}

// enqueue registers a sealed record for the next batch.  Called with the
// object's entry lock held, so per-object queue order matches seal order.
func (c *committer) enqueue(rec wal.Record) *syncTicket {
	t := &syncTicket{rec: rec, done: make(chan struct{})}
	c.mu.Lock()
	c.queue = append(c.queue, t)
	c.mu.Unlock()
	return t
}

// submit hands one sealed record to the committer.  Called with the entry
// lock of the object the record describes held, and ckptMu in read mode.
func (s *Store) submit(rec wal.Record) (*syncTicket, error) {
	if s.l.TooLarge(rec) {
		// The record can never be logged (it exceeds the log region or the
		// format's label-length field); a checkpoint provides the same
		// durability — contents, label and home table — in one sweep.
		return nil, errRetryCheckpoint
	}
	return s.comm.enqueue(rec), nil
}

// logged is the one body of every logged operation.  It runs seal n times —
// each call installs an operation's in-memory state and submits its record —
// under the checkpoint gate, then waits for every record's batch to commit,
// and gives the operations that cannot go through the log the same durability
// by one shared checkpoint; the result has one error slot per seal.  Every
// record is enqueued BEFORE any ticket is awaited, so the leader's takeBatch
// sees the whole group and forms full batches even with no concurrent syncers.
// ckptMu is held in read mode from the first seal to the last ticket
// resolution, so no checkpoint SEAL can slip between sealing a state and
// committing it, and the sealSeq value read first is older than any seal that
// captures those states.  A nil ticket means seal left nothing to await.
func (s *Store) logged(n int, seal func(i int) (*syncTicket, error)) []error {
	errs := make([]error, n)
	s.ckptMu.RLock()
	if s.closed {
		s.ckptMu.RUnlock()
		for i := range errs {
			errs[i] = ErrClosed
		}
		return errs
	}
	seq := s.sealSeq.Load()
	tickets := make([]*syncTicket, n)
	for i := range tickets {
		tickets[i], errs[i] = seal(i)
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
		ckErr := s.checkpointSince(seq)
		for i := range errs {
			if errors.Is(errs[i], errRetryCheckpoint) {
				errs[i] = ckErr
			}
		}
	}
	return errs
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

// recordBatch folds one successfully committed batch into the statistics;
// the caller holds c.mu.
func (c *committer) recordBatch(n int) {
	c.batches++
	c.batchRecords += uint64(n)
	if n > c.maxBatch {
		c.maxBatch = n
	}
	c.hist[histBucket(n)]++
}

// awaitCommit resolves t: the calling syncer becomes the leader if the
// committer is idle, otherwise waits for the active leader (or a test
// release) to commit its batch.
func (s *Store) awaitCommit(t *syncTicket) error {
	c := &s.comm
	c.mu.Lock()
	if !c.held && !c.leaderBusy {
		c.leaderBusy = true
		s.drainLocked()
		c.leaderBusy = false
	}
	c.mu.Unlock()
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
			bt.err = err
			close(bt.done)
		}
		c.mu.Lock()
		if err == nil {
			c.recordBatch(len(batch))
		}
	}
}

// commitBatch commits one batch: the one frame and one flush that many
// syncers share.  A batch that did not commit is in the log nowhere, so no
// later commit — potentially after a checkpoint made newer states durable —
// can regress its objects: each syncer is told to retry or fail.
func (s *Store) commitBatch(batch []*syncTicket) error {
	recs := make([]wal.Record, len(batch))
	for i, t := range batch {
		recs[i] = t.rec
	}
	err := s.l.Commit(recs)
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
		s.c.labelBytesLogged.Add(uint64(len(r.Label)))
	}
	return nil
}

// SyncObject durably records the current contents of one object — and, in
// the same log record, its canonical serialized label — through the group
// committer: the fast path for fsync of a single file's segment.  Because
// contents and label commit atomically, a crash after SyncObject can never
// resurrect the object with a stale or missing label.  When the record
// cannot go through the log (the log is full, or the record could never
// fit), the same durability is provided by a whole-system checkpoint.
// Directory-level fsync (the kernel's Sync) is a Checkpoint, which is why
// the paper's synchronous unlink phase is so much slower on HiStar than
// Linux.
func (s *Store) SyncObject(id uint64) error { return s.SyncObjects([]uint64{id})[0] }

// sealSync seals one object's current state into a log record and enqueues
// it with the committer; the caller holds ckptMu in read mode.  A nil ticket
// means there is nothing to await: with a nil error the on-disk copy is
// already current, otherwise the error says why the object cannot be synced
// through the log (errRetryCheckpoint when a checkpoint must provide the
// durability instead).
func (s *Store) sealSync(id uint64) (*syncTicket, error) {
	s.c.objectSyncs.Add(1)
	e := s.shardOf(id).lookup(id)
	if e == nil {
		// Nothing in memory and not deleted: the on-disk copy is current.
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var rec wal.Record
	switch {
	case e.dead:
		rec = wal.Record{ObjectID: id, Delete: true}
	case e.cached:
		rec = wal.Record{ObjectID: id, Data: e.data}
		if e.hasLbl {
			rec.Label = e.lbl.AppendBinary(nil)
		}
	case e.quar:
		// No resident copy and the home extent is damaged: the store
		// cannot promise this object is durable.
		return nil, &QuarantineError{ID: id, Detail: "cannot sync: home extent failed verification"}
	default:
		return nil, nil
	}
	// Submitted under the entry lock: per-object log order = seal order.
	return s.submit(rec)
}

// SyncObjects durably records the current contents of many objects at once:
// the batched form of SyncObject that the kernel's syscall ring dispatches.
// N syncs cost at most ⌈N/GroupCommitRecords⌉ log flushes instead of N (see
// logged).  The returned slice has one error slot per id (nil = durable); ids
// that cannot go through the log share a single checkpoint fallback.
func (s *Store) SyncObjects(ids []uint64) []error {
	return s.logged(len(ids), func(i int) (*syncTicket, error) { return s.sealSync(ids[i]) })
}

// checkpointSince provides a sync's checkpoint fallback: if a checkpoint
// sealed strictly after the record was enqueued has already committed
// (completedSeal moved past the sealSeq value the syncer recorded under
// ckptMu read mode), that checkpoint captured and made durable a state at
// least as new and nothing more is needed; otherwise run one.  The check is
// repeated after acquiring ckptRun, so when a whole failed batch lands here
// at once, the first ticket-holder checkpoints and the rest observe its
// completion and return without running their own.
func (s *Store) checkpointSince(seal uint64) error {
	if s.completedSeal.Load() > seal {
		return nil
	}
	s.ckptRun.Lock()
	defer s.ckptRun.Unlock()
	if s.completedSeal.Load() > seal {
		return nil
	}
	return s.checkpointRunLocked()
}

// holdGroupCommit pauses the committer so a test can pile up concurrent
// syncers deterministically: subsequent syncs enqueue and block on their
// tickets.  It waits out any active leader first.
func (s *Store) holdGroupCommit() {
	c := &s.comm
	for {
		c.mu.Lock()
		if !c.leaderBusy {
			c.held = true
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		runtime.Gosched()
	}
}

// releaseGroupCommit resumes the committer, draining everything queued while
// it was held on the calling goroutine.
func (s *Store) releaseGroupCommit() {
	c := &s.comm
	c.mu.Lock()
	c.held = false
	if !c.leaderBusy {
		c.leaderBusy = true
		s.drainLocked()
		c.leaderBusy = false
	}
	c.mu.Unlock()
}

// groupQueueLen reports how many sealed records wait for the committer
// (tests poll it while the committer is held).
func (s *Store) groupQueueLen() int {
	c := &s.comm
	c.mu.Lock()
	n := len(c.queue)
	c.mu.Unlock()
	return n
}

// GroupCommitStats describes the committer's batching behaviour.
type GroupCommitStats struct {
	// Batches and Records count committed batches and the records in them;
	// MaxBatch is the largest batch formed.
	Batches  uint64
	Records  uint64
	MaxBatch int
	// Hist buckets batch sizes: 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+.
	Hist [groupHistBuckets]uint64
}

// GroupCommitStats returns a snapshot of the committer's batch statistics.
func (s *Store) GroupCommitStats() GroupCommitStats {
	c := &s.comm
	c.mu.Lock()
	defer c.mu.Unlock()
	return GroupCommitStats{
		Batches:  c.batches,
		Records:  c.batchRecords,
		MaxBatch: c.maxBatch,
		Hist:     c.hist,
	}
}
