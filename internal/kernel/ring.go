package kernel

import (
	"sort"
	"sync/atomic"
)

// Syscall ring: io_uring-style batched submission with a single completion
// wait.  A Ring belongs to one thread (like a real ring mapped into one
// address space) and is not safe for concurrent use; concurrency comes from
// many threads each driving their own ring.
//
// Protocol:
//
//   - Submit queues entries; nothing executes until Wait.
//   - Wait(minComplete) enters the kernel once (one thread snapshot, one
//     ring_submit count), executes every pending entry, and returns one
//     completion per entry in submission order.  Per-entry results and
//     errors live in the completions; Wait itself fails only when the
//     invoking thread cannot enter the kernel at all or minComplete exceeds
//     the pending count.
//   - An entry with Chain set depends on its predecessor: if the predecessor
//     fails (or was itself skipped), the entry completes with ErrSkipped
//     without executing — skip cascades down the chain, as an io_uring chain
//     break cancels the rest of the chain.
//
// Ordering: entries within one chain execute in submission order.  Across
// chains the kernel is free to reorder — Wait sorts independent chains by
// target object ID so entries against the same object become adjacent and a
// maximal run of same-target entries shares a single resolve, lockOrdered
// acquisition, and liveness verification.  The sort is stable and a chain's
// sort key is its FIRST entry's target, so two guarantees hold: chains keep
// their internal order, and chains with the same sort key — in particular,
// all unchained entries on one object — keep their submission order relative
// to each other.  A write-then-read sequence of unchained entries on one
// segment therefore needs no Chain flag unless it wants skip-on-error.  No
// order is promised between entries of chains that start on different
// objects (as between unlinked io_uring SQEs), and entries chained after an
// OpSync execute in a later pass, after every unsequenced entry of the
// current pass.  Each run still locks
// {container, object} in ascending-ID order through lockOrdered, and at most
// one run's locks are held at a time, so the ring adds no new lock-order
// edges to the discipline in the package comment.
//
// OpSync entries are the payoff: all syncs that become runnable in one pass
// are pushed to the pager and committed as a single SyncObjects group, which
// the store turns into dense write-ahead-log batches — one flush per batch
// instead of one per object.  Entries chained after a sync resume once the
// group resolves, so read-after-sync sequences still work.
//
// OpGateEnter makes gate calls ring-native: the entry performs the full
// Section 3.5 label checks and transfer, runs the gate's entry point (with
// no kernel locks held, on the invoking thread), and returns the entry
// point's result bytes in the completion's Val.  A successful gate entry
// retargets the invoking thread's label, clearance, and address space, so
// the ring re-snapshots the thread after each one: entries executing later
// in the batch — in particular a chained read of a reply segment only the
// post-entry label may observe — are checked against the thread's
// post-transfer state, exactly as if the gate call had been made directly.
// Gate entries are never coalesced with other entries and are their own
// run.  The canonical use is a demultiplexer batching many
// gate-call+reply-read chains (one chain per session) in a single Wait.
type Ring struct {
	tc *ThreadCall

	pending []RingEntry

	// Scratch buffers reused across Waits so a steady-state batch allocates
	// nothing beyond the data it reads.
	units []ringUnit
	plan  []planItem
	syncs []planItem
	comps []RingCompletion

	// Tallies accumulated locally and flushed into the kernel-wide ring
	// counters once per Wait, so per-entry Submit calls from many threads
	// never contend on shared cachelines.  The submit-side tallies survive
	// across Waits until flushed; the rest are per-Wait.
	nSubmits, nEntries, nChained                                       uint64
	nRuns, nCoalesced, nSkipped, nSyncGroups, nSyncEntries, nGateCalls uint64
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
// Submission tallies reach RingStats when the next Wait flushes them.
func (r *Ring) Submit(entries ...RingEntry) int {
	r.pending = append(r.pending, entries...)
	r.nSubmits++
	r.nEntries += uint64(len(entries))
	for i := range entries {
		if entries[i].Chain {
			r.nChained++
		}
	}
	return len(entries)
}

// ringUnit is one chain of entries: a maximal run of Chain-linked entries
// (an unchained entry is a unit of one).  Chained entries are consecutive
// submissions, so a unit is the contiguous range entries[start:end]; next is
// the absolute index of its first unexecuted entry.  Units are the
// reordering grain — intra-unit order is fixed, inter-unit order is not.
type ringUnit struct {
	start, end, next int
	failed           bool
}

// planItem is one entry scheduled for the current pass — executable, or an
// OpSync deferred to the pass's group dispatch: u indexes the ring's unit
// buffer, i the entry.
type planItem struct {
	u, i int
}

// Wait executes every pending entry and returns their completions in
// submission order.  minComplete must not exceed the pending count; in this
// synchronous simulation Wait always completes everything, so any legal
// minComplete is satisfied.  The thread is snapshotted once for the whole
// batch, and one ring_submit syscall is recorded; each executed entry
// additionally records its own syscall (segment_read, ring_sync, ...), so
// batched and direct traffic remain distinguishable in SyscallCounts.
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
	k := r.tc.k
	k.ring.waits.Add(1)
	r.nRuns, r.nCoalesced, r.nSkipped, r.nSyncGroups, r.nSyncEntries, r.nGateCalls = 0, 0, 0, 0, 0, 0

	if cap(r.comps) < len(entries) {
		r.comps = make([]RingCompletion, len(entries))
	}
	comps := r.comps[:len(entries)]
	for i := range comps {
		comps[i] = RingCompletion{Index: i}
	}
	r.comps = comps

	// Build chain units, then sort them by first-target object ID so
	// same-object work becomes adjacent in the execution stream.  The sort is
	// stable, so equal-target units keep submission order.
	units := r.units[:0]
	for i := range entries {
		if i == 0 || !entries[i].Chain {
			units = append(units, ringUnit{start: i, end: i + 1, next: i})
		} else {
			units[len(units)-1].end = i + 1
		}
	}
	sortUnits(units, entries)

	// Execute in passes: each pass runs every unit up to (but not through)
	// its next OpSync, coalescing same-target runs; then — with every
	// predecessor's outcome known — skips or dispatches the pending syncs as
	// one group.  Units suspended at a sync resume in the next pass.
	for remaining := len(entries); remaining > 0; {
		plan := r.plan[:0]
		for ui := range units {
			u := &units[ui]
			for u.next < u.end && entries[u.next].Op != OpSync {
				i := u.next
				u.next++
				remaining--
				if u.failed {
					// The chain already failed before this pass; nothing
					// after it executes, so don't bother planning it.
					comps[i].Err = ErrSkipped
					r.nSkipped++
					continue
				}
				plan = append(plan, planItem{ui, i})
			}
		}
		for j := 0; j < len(plan); {
			if standalone(entries[plan[j].i].Op) {
				// A gate entry is its own run: the transfer takes the thread
				// and thread-local segment locks itself, so it may not share
				// a coalesced acquisition, and a successful one refreshes the
				// batch snapshot for everything that follows.
				r.execGateEnter(&ctx, entries, units, plan[j], comps)
				r.nRuns++
				j++
				continue
			}
			end := j + 1
			for end < len(plan) && entries[plan[end].i].Seg == entries[plan[j].i].Seg &&
				!standalone(entries[plan[end].i].Op) {
				end++
			}
			r.execRun(ctx, entries, units, plan[j:end], comps)
			r.nRuns++
			r.nCoalesced += uint64(end - j - 1)
			j = end
		}
		r.plan = plan
		// Every planned entry has executed, so chain failure states are
		// settled and each unit's pending sync can be skipped or dispatched.
		syncs := r.syncs[:0]
		for ui := range units {
			u := &units[ui]
			if u.next >= u.end {
				continue
			}
			i := u.next
			u.next++
			remaining--
			if u.failed {
				comps[i].Err = ErrSkipped
				r.nSkipped++
				continue
			}
			syncs = append(syncs, planItem{ui, i})
		}
		if len(syncs) > 0 {
			r.dispatchSyncs(ctx, entries, units, syncs, comps)
		}
		r.syncs = syncs
	}
	r.units = units
	r.pending = entries[:0] // recycle the submission buffer

	k.ring.submits.Add(r.nSubmits)
	k.ring.entries.Add(r.nEntries)
	k.ring.chained.Add(r.nChained)
	r.nSubmits, r.nEntries, r.nChained = 0, 0, 0
	k.ring.runs.Add(r.nRuns)
	k.ring.coalesced.Add(r.nCoalesced)
	k.ring.skipped.Add(r.nSkipped)
	k.ring.syncGroups.Add(r.nSyncGroups)
	k.ring.syncEntries.Add(r.nSyncEntries)
	k.ring.gateCalls.Add(r.nGateCalls)
	return comps, nil
}

// sortUnits stably orders units by their first entry's target object ID.
// Batches are usually small, so an insertion sort (no closure, no interface
// dispatch) handles the common case; big fan-outs fall back to the library.
func sortUnits(units []ringUnit, entries []RingEntry) {
	if len(units) <= 32 {
		for i := 1; i < len(units); i++ {
			for j := i; j > 0 && entries[units[j].start].Seg.Object < entries[units[j-1].start].Seg.Object; j-- {
				units[j], units[j-1] = units[j-1], units[j]
			}
		}
		return
	}
	sort.SliceStable(units, func(a, b int) bool {
		return entries[units[a].start].Seg.Object < entries[units[b].start].Seg.Object
	})
}

// standalone reports whether the op always executes as its own run, outside
// the same-target coalescing that shares one lock acquisition: a gate entry.
func standalone(op RingOp) bool { return op == OpGateEnter }

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

// execRun executes one maximal run of same-target entries under a single
// open: one resolve, one lockOrdered acquisition, one liveness verification.
// Per-entry label checks still happen individually in execOp (against
// immutable labels, so holding the lock is irrelevant to them), and a failing
// entry fails only its own chain.
func (r *Ring) execRun(ctx tctx, entries []RingEntry, units []ringUnit, run []planItem, comps []RingCompletion) {
	k := r.tc.k
	write := false
	for _, it := range run {
		write = write || opWrites(entries[it.i].Op)
	}
	obj, ls, openErr := open[object](k, &ctx, entries[run[0].i].Seg, accNone, write)
	if openErr == nil {
		defer ls.unlock()
	}
	for _, it := range run {
		if units[it.u].failed {
			comps[it.i].Err = ErrSkipped
			r.nSkipped++
			continue
		}
		e := &entries[it.i]
		k.count(scFor(e.Op), ctx.t)
		err := openErr
		if err == nil {
			err = k.execOp(&ctx, obj, e, &comps[it.i])
		}
		if err != nil {
			comps[it.i].Err = err
			units[it.u].failed = true
		}
	}
}

// execGateEnter executes one OpGateEnter entry: resolve the gate, run the
// Section 3.5 checks and transfer (which takes the thread and thread-local
// segment write locks itself), then dispatch the entry point with no kernel
// locks held.  On success the batch snapshot *ctx is refreshed to the
// thread's post-transfer state, so the rest of the batch — notably a
// chained read of a reply segment readable only under the acquired label —
// is checked the same way it would be after a direct GateEnter syscall.
func (r *Ring) execGateEnter(ctx *tctx, entries []RingEntry, units []ringUnit, it planItem, comps []RingCompletion) {
	k := r.tc.k
	e := &entries[it.i]
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
		comps[it.i].Err = err
		units[it.u].failed = true
		return
	}
	comps[it.i].Val = r.tc.gateDispatch(g, req)
	comps[it.i].N = len(comps[it.i].Val)
	ctx.t.snapshot(ctx)
}

// dispatchSyncs is one pass's deferred OpSync entries.  Each is opened like
// every other op — the thread must be able to modify the segment — and
// pushed: one that fails completes with the resolve or label error, fails its
// chain and never reaches the pager, so a thread can neither have an object it
// cannot name or modify synced nor learn from the pager's answer what state it
// is in.  The rest are committed, with no kernel lock held, as the single
// group the store's committer turns into one log append and one flush per
// bounded batch.
func (r *Ring) dispatchSyncs(ctx tctx, entries []RingEntry, units []ringUnit, syncs []planItem, comps []RingCompletion) {
	k := r.tc.k
	ids := make([]uint64, 0, len(syncs))
	group := syncs[:0]
	for _, sr := range syncs {
		k.count(scRingSync, ctx.t)
		seg, ls, err := open[*segment](k, &ctx, entries[sr.i].Seg, accModify, true)
		if err == nil {
			err = k.push(seg)
			ls.unlock()
		}
		if err != nil {
			comps[sr.i].Err = err
			units[sr.u].failed = true
			continue
		}
		ids = append(ids, uint64(entries[sr.i].Seg.Object))
		group = append(group, sr)
	}
	if len(group) == 0 {
		return
	}
	r.nSyncGroups++
	r.nSyncEntries += uint64(len(group))
	var errs []error
	if k.pager != nil {
		errs = k.pager.SyncObjects(ids)
	}
	for j, sr := range group {
		err := ErrInvalid // no pager attached, or no answer for this entry
		if j < len(errs) {
			err = errs[j]
		}
		if err != nil {
			comps[sr.i].Err = err
			units[sr.u].failed = true
		}
	}
}

// ringCounters is the kernel-wide tally of ring activity, kept as plain
// atomics (adds happen once per batch, not per entry, so striping is not
// needed).
type ringCounters struct {
	submits     atomic.Uint64
	entries     atomic.Uint64
	waits       atomic.Uint64
	runs        atomic.Uint64
	coalesced   atomic.Uint64
	chained     atomic.Uint64
	skipped     atomic.Uint64
	syncGroups  atomic.Uint64
	syncEntries atomic.Uint64
	gateCalls   atomic.Uint64
}

// RingStats is a snapshot of kernel-wide ring activity.
type RingStats struct {
	// Submits and Entries count Submit calls and the entries they queued;
	// Waits counts Wait calls that executed at least one entry (equals the
	// ring_submit syscall count).
	Submits uint64
	Entries uint64
	Waits   uint64
	// Runs is the number of lock acquisitions performed for entry execution;
	// Coalesced is how many entries shared a predecessor's acquisition, so
	// the coalesce rate is Coalesced / (Runs + Coalesced).
	Runs      uint64
	Coalesced uint64
	// Chained and Skipped count entries submitted with the Chain flag and
	// entries skipped by chain error propagation.
	Chained uint64
	Skipped uint64
	// SyncGroups and SyncEntries count group dispatches to the pager and
	// the OpSync entries they carried.
	SyncGroups  uint64
	SyncEntries uint64
	// GateCalls counts OpGateEnter entries executed through the ring.
	GateCalls uint64
}

// RingStats returns a snapshot of the kernel-wide ring counters.
func (k *Kernel) RingStats() RingStats {
	return RingStats{
		Submits:     k.ring.submits.Load(),
		Entries:     k.ring.entries.Load(),
		Waits:       k.ring.waits.Load(),
		Runs:        k.ring.runs.Load(),
		Coalesced:   k.ring.coalesced.Load(),
		Chained:     k.ring.chained.Load(),
		Skipped:     k.ring.skipped.Load(),
		SyncGroups:  k.ring.syncGroups.Load(),
		SyncEntries: k.ring.syncEntries.Load(),
		GateCalls:   k.ring.gateCalls.Load(),
	}
}
