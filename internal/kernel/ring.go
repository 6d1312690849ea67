package kernel

import "sync/atomic"

// Ring is a per-thread queue of segment and stat calls: Submit queues
// entries, and Wait makes each one as the direct call its op names, in
// submission order, returning one completion per entry.  A batch is a
// sequence of direct calls by construction — each entry enters the kernel,
// is checked against the thread's label as it is then, and records its own
// syscall — so it saves nothing and changes no verdict.  Ring, RingEntry and
// RingStats stay only because the benchmark's ring probe and counters
// (bench/probes.go, bench/rig.go) name them; they go together with those
// rows (ROADMAP item 1(a)).  A Ring belongs to one thread and is not safe
// for concurrent use.
type Ring struct {
	tc      *ThreadCall
	pending []RingEntry
	// comps is the completion queue, reused across Waits so a steady-state
	// batch allocates nothing beyond the data it reads.
	comps []RingCompletion
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
)

// RingEntry is one submitted operation.
type RingEntry struct {
	Op   RingOp
	Seg  CEnt // target object
	Off  int
	Len  int
	Data []byte
}

// RingCompletion is one entry's result.  Completions are returned in
// submission order; Index is the entry's position in that order.
type RingCompletion struct {
	Index int
	Val   []byte // OpSegmentRead
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

// Wait makes every pending entry's call and returns their completions in
// submission order.  minComplete must not exceed the pending count; Wait
// always completes everything, so any legal minComplete is satisfied.
//
// The returned slice is the ring's completion queue: it is valid only until
// the next Wait on this ring, which recycles it.  Copy completions that must
// outlive that (the Val payloads are fresh per read and may be retained).
func (r *Ring) Wait(minComplete int) ([]RingCompletion, error) {
	if minComplete < 0 || minComplete > len(r.pending) {
		return nil, ErrInvalid
	}
	if len(r.pending) == 0 {
		return nil, nil
	}
	entries := r.pending
	if cap(r.comps) < len(entries) {
		r.comps = make([]RingCompletion, len(entries))
	}
	comps := r.comps[:len(entries)]
	tc := r.tc
	for i, e := range entries {
		c := RingCompletion{Index: i}
		switch e.Op {
		case OpSegmentRead:
			c.Val, c.Err = tc.SegmentRead(e.Seg, e.Off, e.Len)
			c.N = len(c.Val)
		case OpSegmentWrite:
			if c.Err = tc.SegmentWrite(e.Seg, e.Off, e.Data); c.Err == nil {
				c.N = len(e.Data)
			}
		case OpSegmentResize:
			c.Err = tc.SegmentResize(e.Seg, e.Len)
		case OpSegmentLen:
			c.N, c.Err = tc.SegmentLen(e.Seg)
		case OpObjectStat:
			c.Stat, c.Err = tc.ObjectStat(e.Seg)
		default:
			c.Err = ErrInvalid
		}
		comps[i] = c
	}
	r.comps, r.pending = comps, entries[:0] // recycle both buffers

	k := tc.k
	k.ring.waits.Add(1)
	k.ring.entries.Add(uint64(len(entries)))
	return comps, nil
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
	// the benchmark drops its rows for them (ROADMAP item 1(a)).
	Runs, Coalesced, GateCalls uint64
}

// RingStats returns a snapshot of the kernel-wide ring counters.
func (k *Kernel) RingStats() RingStats {
	return RingStats{Entries: k.ring.entries.Load(), Waits: k.ring.waits.Load()}
}
