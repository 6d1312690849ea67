package kernel

import "sync/atomic"

// Syscall ring: io_uring-style batched submission with a single completion
// wait.  A Ring belongs to one thread (like a real ring mapped into one
// address space) and is not safe for concurrent use; concurrency comes from
// many threads each driving their own ring.
//
// Protocol:
//
//   - Submit queues entries; nothing executes until Wait.
//   - Wait(minComplete) enters the kernel once (one thread snapshot, one
//     ring_submit count), executes every pending entry in submission order,
//     and returns one completion per entry in that order.  Per-entry results
//     and errors live in the completions; Wait itself fails only when the
//     invoking thread cannot enter the kernel at all or minComplete exceeds
//     the pending count.
//   - An entry with Chain set depends on its predecessor: when the
//     predecessor's completion has an error, the entry completes with
//     ErrSkipped without executing — and since a skip is an error, skip
//     cascades down the chain, as an io_uring chain break cancels the rest
//     of the chain.
//
// A batch gets the verdicts and the state its entries would get as direct
// calls made one after another: each entry sees every effect of the entries
// before it, whatever their targets, and is checked against the label the
// thread holds at its position.  What the ring saves stays inside that order:
//
//   - One kernel entry and one thread snapshot for the whole batch.  Each
//     entry is opened on its own, as its direct call would be, and at most
//     one entry's locks are held at a time, so the ring adds no lock-order
//     edge to the discipline in the package comment.
//   - An OpSync is opened (the thread must be able to modify the segment) and
//     pushed to the pager where it stands, so it covers exactly the writes
//     submitted before it.  The pushed syncs are committed, with no kernel
//     lock held, as one SyncObjects group at the end of the Wait — which the
//     store turns into dense write-ahead-log batches, one flush per batch
//     instead of one per object — or earlier, when a chained entry needs a
//     pending sync's outcome.
//   - An OpGateEnter performs the full Section 3.5 label checks and transfer,
//     runs the gate's entry point (with no kernel locks held, on the invoking
//     thread), and returns the entry point's result bytes in the completion's
//     Val.  A successful one retargets the thread's label, clearance and
//     address space, so the ring re-snapshots the thread: a chained read of a
//     reply segment only the post-entry label may observe succeeds, exactly as
//     after a direct GateEnter, and nothing submitted before the gate entry
//     gets the ownership it grants.  The canonical use is a demultiplexer
//     batching many gate-call+reply-read chains (one chain per session) in a
//     single Wait.
type Ring struct {
	tc *ThreadCall

	pending []RingEntry

	// Scratch reused across Waits so a steady-state batch allocates nothing
	// beyond the data it reads: the completion queue, and the indexes of the
	// OpSync entries pushed and not yet committed.
	comps []RingCompletion
	syncs []int

	// Tallies of one Wait, flushed into the kernel-wide ring counters at its
	// end, so threads never contend on shared cachelines per entry.
	nSyncGroups, nSyncEntries, nGateCalls uint64
}

// RingOp selects the system call a ring entry performs.
type RingOp int

const (
	// OpSegmentRead reads Len bytes at Off from the segment Seg.
	OpSegmentRead RingOp = iota
	// OpSegmentWrite writes Data at Off in the segment Seg.
	OpSegmentWrite
	// OpSegmentResize sets the length of segment Seg to Len.
	OpSegmentResize
	// OpSegmentLen reports the length of segment Seg.
	OpSegmentLen
	// OpObjectStat stats the object Seg (any type).
	OpObjectStat
	// OpSync is fsync: it makes segment Seg, which the thread must be able to
	// modify, durable through the kernel's pager.
	OpSync
	// OpGateEnter invokes the gate Seg with the request in the entry's Gate
	// field; the completion's Val carries the entry point's result bytes.
	// On success the invoking thread runs under the requested label and
	// clearance for the rest of the batch (and after Wait returns).
	OpGateEnter
)

// RingEntry is one submitted operation.
type RingEntry struct {
	Op   RingOp
	Seg  CEnt // target object
	Off  int
	Len  int
	Data []byte
	// Gate is the gate-call request for OpGateEnter entries (nil is treated
	// as the zero request, which the label checks reject).
	Gate *GateRequest
	// Chain makes this entry depend on its predecessor in submission order:
	// it is skipped (ErrSkipped) if the predecessor failed or was skipped.
	Chain bool
}

// RingCompletion is one entry's result.  Completions are returned in
// submission order; Index is the entry's position in that order.
type RingCompletion struct {
	Index int
	Val   []byte // OpSegmentRead, OpGateEnter (entry point result)
	N     int    // bytes read/written, or segment length
	Stat  Stat   // OpObjectStat
	Err   error
}

// NewRing creates an empty ring bound to the invoking thread.
func (tc *ThreadCall) NewRing() *Ring { return &Ring{tc: tc} }

// Submit queues entries for the next Wait and returns the number queued.
func (r *Ring) Submit(entries ...RingEntry) int {
	r.pending = append(r.pending, entries...)
	return len(entries)
}

// Wait executes every pending entry and returns their completions in
// submission order.  minComplete must not exceed the pending count; in this
// synchronous simulation Wait always completes everything, so any legal
// minComplete is satisfied.  The thread is snapshotted once for the whole
// batch (and again after each gate entry), and one ring_submit syscall is
// recorded; each executed entry additionally records its own syscall
// (segment_read, ring_sync, ...), so batched and direct traffic remain
// distinguishable in SyscallCounts.
//
// The returned slice is the ring's completion queue: like consumed CQEs it
// is valid only until the next Wait on this ring, which recycles it.  Copy
// completions that must outlive that (the Val payloads are fresh per read
// and may be retained).
func (r *Ring) Wait(minComplete int) ([]RingCompletion, error) {
	if minComplete < 0 || minComplete > len(r.pending) {
		return nil, ErrInvalid
	}
	if len(r.pending) == 0 {
		return nil, nil
	}
	entries := r.pending
	r.pending = nil
	ctx, err := r.tc.enter(scRingSubmit)
	if err != nil {
		return nil, err
	}

	if cap(r.comps) < len(entries) {
		r.comps = make([]RingCompletion, len(entries))
	}
	comps := r.comps[:len(entries)]
	for i := range comps {
		comps[i] = RingCompletion{Index: i}
	}
	r.comps = comps

	for i := 0; i < len(entries); {
		if r.skipped(entries, comps, i) {
			i++
			continue
		}
		switch e := &entries[i]; e.Op {
		case OpGateEnter:
			r.execGateEnter(&ctx, e, &comps[i])
		case OpSync:
			r.push(ctx, entries, comps, i)
		default:
			r.exec(ctx, e, &comps[i])
		}
		i++
	}
	r.commit(entries, comps)
	r.pending = entries[:0] // recycle the submission buffer

	k := r.tc.k
	k.ring.waits.Add(1)
	k.ring.entries.Add(uint64(len(entries)))
	k.ring.syncGroups.Add(r.nSyncGroups)
	k.ring.syncEntries.Add(r.nSyncEntries)
	k.ring.gateCalls.Add(r.nGateCalls)
	r.nSyncGroups, r.nSyncEntries, r.nGateCalls = 0, 0, 0
	return comps, nil
}

// skipped applies the chain rule to entry i: a chained entry whose
// predecessor's completion has an error completes with ErrSkipped.  A
// predecessor that is a pushed sync has no outcome until the group commit,
// so the pending group is committed first.
func (r *Ring) skipped(entries []RingEntry, comps []RingCompletion, i int) bool {
	if i == 0 || !entries[i].Chain {
		return false
	}
	if n := len(r.syncs); n > 0 && r.syncs[n-1] == i-1 {
		r.commit(entries, comps)
	}
	if comps[i-1].Err == nil {
		return false
	}
	comps[i].Err = ErrSkipped
	return true
}

// scFor maps a ring op to the per-syscall counter it records.
func scFor(op RingOp) syscallID {
	switch op {
	case OpSegmentRead:
		return scSegmentRead
	case OpSegmentWrite:
		return scSegmentWrite
	case OpSegmentResize:
		return scSegmentResize
	case OpSegmentLen:
		return scSegmentLen
	case OpObjectStat:
		return scObjectStat
	default:
		return scRingSync
	}
}

// exec opens one entry's target and executes it, exactly as its direct call
// (ThreadCall.call) would, under the batch's thread snapshot.
func (r *Ring) exec(ctx tctx, e *RingEntry, c *RingCompletion) {
	k := r.tc.k
	k.count(scFor(e.Op), ctx.t)
	obj, ls, err := open[object](k, &ctx, e.Seg, accNone, opWrites(e.Op))
	if err == nil {
		err = k.execOp(&ctx, obj, e, c)
		ls.unlock()
	}
	c.Err = err
}

// execGateEnter executes one OpGateEnter entry: resolve the
// gate, run the Section 3.5 checks and transfer (which takes the thread and
// thread-local segment write locks itself), then dispatch the entry point
// with no kernel locks held.  On success the batch snapshot *ctx is
// refreshed to the thread's post-transfer state, so every later entry is
// checked the same way it would be after a direct GateEnter syscall.
func (r *Ring) execGateEnter(ctx *tctx, e *RingEntry, c *RingCompletion) {
	k := r.tc.k
	k.count(scGateEnter, ctx.t)
	r.nGateCalls++
	var req GateRequest
	if e.Gate != nil {
		req = *e.Gate
	}
	_, g, err := resolve[*gate](k, ctx, e.Seg, accNone)
	if err == nil {
		err = r.tc.gateEnterTransfer(ctx.t, g, req)
	}
	if err != nil {
		c.Err = err
		return
	}
	c.Val = r.tc.gateDispatch(g, req)
	c.N = len(c.Val)
	ctx.t.snapshot(ctx)
}

// push opens the OpSync entry i like every other op — the thread must be able
// to modify the segment — and hands the segment's bytes to the pager.  One
// that fails completes with the resolve or label error and never reaches the
// pager, so a thread can neither have an object it cannot name or modify
// synced nor learn from the pager's answer what state it is in.  The rest
// wait in r.syncs for commit.
func (r *Ring) push(ctx tctx, entries []RingEntry, comps []RingCompletion, i int) {
	k := r.tc.k
	k.count(scRingSync, ctx.t)
	seg, ls, err := open[*segment](k, &ctx, entries[i].Seg, accModify, true)
	if err == nil {
		err = k.push(seg)
		ls.unlock()
	}
	if err != nil {
		comps[i].Err = err
		return
	}
	r.syncs = append(r.syncs, i)
}

// commit makes the pushed syncs durable as a single group, with no kernel
// lock held: the store's committer turns it into one log append and one
// flush per bounded batch.  Each sync completes with the pager's answer.
func (r *Ring) commit(entries []RingEntry, comps []RingCompletion) {
	if len(r.syncs) == 0 {
		return
	}
	k := r.tc.k
	ids := make([]uint64, len(r.syncs))
	for j, i := range r.syncs {
		ids[j] = uint64(entries[i].Seg.Object)
	}
	r.nSyncGroups++
	r.nSyncEntries += uint64(len(ids))
	var errs []error
	if k.pager != nil {
		errs = k.pager.SyncObjects(ids)
	}
	for j, i := range r.syncs {
		comps[i].Err = ErrInvalid // no pager attached, or no answer for this entry
		if j < len(errs) {
			comps[i].Err = errs[j]
		}
	}
	r.syncs = r.syncs[:0]
}

// ringCounters is the kernel-wide tally of ring activity, kept as plain
// atomics (adds happen once per batch, not per entry, so striping is not
// needed).
type ringCounters struct {
	entries     atomic.Uint64
	waits       atomic.Uint64
	syncGroups  atomic.Uint64
	syncEntries atomic.Uint64
	gateCalls   atomic.Uint64
}

// RingStats is a snapshot of kernel-wide ring activity.
type RingStats struct {
	// Entries counts the entries Waits executed; Waits counts Wait calls
	// that executed at least one entry (equals the ring_submit syscall count).
	Entries uint64
	Waits   uint64
	// Runs and Coalesced are always 0: every entry opens on its own.  They
	// stay only until the benchmark drops its coalesce-rate row (ROADMAP 1).
	Runs, Coalesced uint64
	// SyncGroups and SyncEntries count group commits to the pager and the
	// OpSync entries they carried.
	SyncGroups  uint64
	SyncEntries uint64
	// GateCalls counts OpGateEnter entries executed through the ring.
	GateCalls uint64
}

// RingStats returns a snapshot of the kernel-wide ring counters.
func (k *Kernel) RingStats() RingStats {
	return RingStats{
		Entries:     k.ring.entries.Load(),
		Waits:       k.ring.waits.Load(),
		SyncGroups:  k.ring.syncGroups.Load(),
		SyncEntries: k.ring.syncEntries.Load(),
		GateCalls:   k.ring.gateCalls.Load(),
	}
}
