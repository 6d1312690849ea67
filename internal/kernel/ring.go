package kernel

import "sync/atomic"

// Ring is a per-thread queue of segment reads: Submit queues entries, and
// Wait makes each one as a SegmentRead, in submission order.  A batch is a
// sequence of direct calls by construction — each entry enters the kernel,
// is checked against the thread's label as it is then, and records its own
// syscall — so it saves nothing and changes no verdict.  No production code
// uses it: Ring, RingEntry, OpSegmentRead and RingStats are what the
// benchmark's ring probe and counters (bench/probes.go, bench/rig.go) name,
// and they go with those rows (ROADMAP item 19).  A Ring belongs to one
// thread and is not safe for concurrent use.
type Ring struct {
	tc      *ThreadCall
	pending []RingEntry
}

// RingOp selects the system call a ring entry performs.
type RingOp int

// OpSegmentRead reads the first Len bytes of the segment Seg.
const OpSegmentRead RingOp = 0

// RingEntry is one submitted operation.
type RingEntry struct {
	Op  RingOp
	Seg CEnt // target segment
	Len int
}

// NewRing creates an empty ring bound to the invoking thread.
func (tc *ThreadCall) NewRing() *Ring { return &Ring{tc: tc} }

// Submit queues entries for the next Wait and returns the number queued.
func (r *Ring) Submit(entries ...RingEntry) int {
	r.pending = append(r.pending, entries...)
	return len(entries)
}

// Wait makes every pending entry's call and returns each one's error, in
// submission order; the bytes read are discarded.  minComplete must not
// exceed the pending count; Wait always completes everything, so any legal
// minComplete is satisfied.
func (r *Ring) Wait(minComplete int) ([]error, error) {
	if minComplete < 0 || minComplete > len(r.pending) {
		return nil, ErrInvalid
	}
	if len(r.pending) == 0 {
		return nil, nil
	}
	entries := r.pending
	errs := make([]error, len(entries))
	for i, e := range entries {
		if e.Op != OpSegmentRead {
			errs[i] = ErrInvalid
			continue
		}
		_, errs[i] = r.tc.SegmentRead(e.Seg, 0, e.Len)
	}
	r.pending = entries[:0]

	k := r.tc.k
	k.ring.waits.Add(1)
	k.ring.entries.Add(uint64(len(entries)))
	return errs, nil
}

// ringCounters is the kernel-wide tally of ring activity.
type ringCounters struct {
	entries atomic.Uint64
	waits   atomic.Uint64
}

// RingStats is a snapshot of kernel-wide ring activity.
type RingStats struct {
	// Entries counts the entries Waits executed; Waits counts Wait calls
	// that executed at least one entry.
	Entries uint64
	Waits   uint64
	// Runs, Coalesced and GateCalls are always 0: every entry is its own
	// direct call, and a ring carries no gate entry.  They stay only until
	// the benchmark drops its rows for them (ROADMAP item 19).
	Runs, Coalesced, GateCalls uint64
}

// RingStats returns a snapshot of the kernel-wide ring counters.
func (k *Kernel) RingStats() RingStats {
	return RingStats{Entries: k.ring.entries.Load(), Waits: k.ring.waits.Load()}
}
