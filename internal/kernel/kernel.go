// Package kernel implements the HiStar kernel object model and system-call
// interface (Zeldovich et al., OSDI 2006, Sections 3 and 4) as a user-space
// simulation.  The six kernel object types — segments, threads, address
// spaces, gates, containers, and devices — are provided with the exact
// information-flow checks the paper specifies; "hardware" concerns (the MMU,
// the disk, the NIC) are modelled by sibling packages.
//
// The central property the interface maintains (Section 3):
//
//	The contents of object A can only affect object B if, for every
//	category c in which A is more tainted than B, a thread owning c takes
//	part in the process.
//
// Every system call is a method on ThreadCall, the per-thread syscall
// context, so each call is checked against the invoking thread's label and
// clearance.  Threads that issue many calls can batch them through a
// syscall ring (NewRing): one kernel entry executes a whole submission
// queue, including ring-native gate calls via OpGateEnter — the full
// Section 3.5 transfer plus a chained read checked against the post-entry
// label.  The ring's protocol and ordering rules are documented in ring.go.
//
// # Locking discipline
//
// System calls run concurrently; there is no global kernel lock.  The object
// table is sharded by object-ID bits, each shard holding a map guarded by its
// own sync.RWMutex, and every object additionally carries a per-object
// sync.RWMutex in its header guarding the object's mutable state.  The rules,
// in order of lock acquisition:
//
//  1. A syscall first snapshots the invoking thread's state (label,
//     clearance, address space, liveness) under the thread's read lock and
//     releases it; all subsequent checks use the snapshot, so a syscall's
//     label checks are evaluated against the thread's label as of syscall
//     entry, exactly as in the real kernel.  thread.snapshot is the only
//     builder of that snapshot (enter calls it; the ring re-calls it after
//     a gate transfer).
//  2. Object resolution (shard map lookups and label checks against
//     *immutable* object labels) happens with no object locks held.
//     resolve names an existing entry 〈D,O〉 (peek, the type assertion and
//     the observe/modify rule); admit names the container an allocation
//     goes into (lookup, avoid-types, can-modify).  No syscall spells
//     either sequence out itself.
//  3. The objects a syscall touches are then locked together in ascending
//     object-ID order — read locks for observation, write locks for
//     mutation — and container membership and object liveness are
//     re-verified under those locks before any mutation.  open (resolve,
//     lockOrdered, verifyEntryLive) does this for every single-entry
//     syscall and for a ring run; publish (live, immutable, charge, insert,
//     link) is the only way a new object enters the table, run under the
//     lock set of whichever creator called it.
//  4. Shard locks are only ever acquired with either no object locks held
//     (lookup) or nested inside object locks (insert on create, delete on
//     deallocate); an object lock is never acquired while a shard lock is
//     held.
//  5. Futex-table shard locks nest inside object locks and never the other
//     way around.  The label cache, interning table, and allocators are
//     self-synchronized leaves, and so is doomedMu.
//  6. The pager (the store: its locks lie below the kernel's and it never
//     calls back) is called with at most one segment's lock held — with the
//     naming container's shared lock, under open — for a push or a read's
//     page-in, and otherwise (group commit, checkpoint, alias) with none;
//     Delete waits until a teardown has released its locks.
//
// Recursive deallocation (unreferencing a container subtree) never holds two
// tree levels' locks at once: an object that drops to zero references is
// marked dead and unlinked from the table under its own write lock, its
// children are collected into a worklist, and the worklist is drained one
// object at a time after the triggering syscall has released its locks.
//
// # Syscall ring
//
// Besides direct calls, a thread may batch system calls through a Ring
// (ring.go): Submit queues entries, Wait snapshots the thread once, executes
// every entry through the same open and execOp a direct call uses, and returns
// per-entry completions in submission order.  Chains (the Chain flag) fix
// intra-chain order with skip-on-error; independent chains may be reordered
// by target object ID so same-object entries share one lock acquisition.  A
// run — or an OpSync's push — holds at most one lockOrdered set at a time and
// the group commit none, so the ring introduces no new lock-order edges.
// Wait records one ring_submit syscall per batch and each entry records its
// own syscall (OpSync as ring_sync), so batched and direct traffic stay
// distinguishable in SyscallCounts; RingStats aggregates depth, coalescing,
// and sync-group fan-in.
//
// # Container snapshot and clone (golden images)
//
// ContainerSnapshot captures a container subtree — containers, segments,
// gates, address spaces — as an immutable in-kernel snapshot under a
// deterministic lineage ID, freezing every captured segment's buffer for
// copy-on-write (snapshot.go).  ContainerClone materializes a snapshot
// under a destination container in O(metadata) with these ID-remap rules:
// every captured object gets a fresh object ID; intra-subtree references
// (container links, gate entry objects, address-space segment mappings)
// are rewritten through the old→new map; references that leave the subtree
// keep their original IDs; and a caller-supplied category remap rewrites
// labels, clearances, and gate verify labels pair-by-pair — the
// golden-image pattern maps a template user's ur/uw categories to the
// spawning user's, with CanAllocate enforced per remapped label, so a
// clone can never mint authority its creator could not hold.  Segment data
// is never copied at clone time: clone and master share the frozen buffer
// until either side's first write breaks COW for that segment alone.  When
// a store is attached (Pager, pager.go), a snapshot holds an alias of each
// captured segment's store object and a clone's segments are aliases of
// those that die with them; the store refuses to alias rotted bytes, so
// restoring from a damaged image fails typed instead of fanning them out.
// The golden-spawn flow end to end:
// unixlib.BakeGolden builds and snapshots a template sandbox once;
// webd's session cache, on a cold login, issues one ContainerClone into
// the worker's process container (sharing all read-only data COW) instead
// of rebuilding the sandbox from scratch.
//
// Read-mostly syscalls (segment reads, resolution, stat, list) take only
// read locks, so they proceed in parallel across — and within — shards.
// Mutating syscalls take write locks only on the objects they mutate.
// Threads own a small lock-free L1 in front of the sharded label-comparison
// cache (thread labels are interned and pointer-stable, and the L1 is keyed
// by both labels' fingerprints, so entries self-invalidate when the thread's
// label changes); a hot canObserve check touches no mutex at all.
package kernel

import (
	"math/bits"
	"sync"

	"histar/internal/label"
)

// Config controls optional kernel behaviour.
type Config struct {
	// Seed keys the object-ID and category generators so simulations are
	// reproducible.
	Seed uint64
}

const (
	// objShards (a power of two, so shard selection is a mask) keeps
	// shard-lock collisions negligible at any realistic GOMAXPROCS while
	// staying cheap to iterate for ObjectCount.
	objShards = 64
	// labelCacheEntries bounds the cache memoizing comparisons between
	// immutable labels (the Section 4 optimization).
	labelCacheEntries = 65536
)

// objShard is one shard of the object table.
type objShard struct {
	mu sync.RWMutex
	m  map[ID]object
	_  [96]byte // round the struct to 128 bytes so adjacent shards never share a cache line
}

// Kernel is a single simulated HiStar machine: an object table rooted at the
// root container plus the generators and caches the kernel maintains.
type Kernel struct {
	shards [objShards]objShard
	rootID ID

	ids  *label.Allocator
	cats *label.Allocator

	labelCache *label.Cache

	futexes [futexShardCount]futexShard

	syscalls syscallCounters

	// ring tallies batched-submission activity (see ring.go).
	ring ringCounters

	// retired L1 counters of deallocated threads, folded in at teardown.
	retired l1Retired

	// snapMu guards the container-snapshot registry; snap tallies
	// snapshot/clone activity (snapshot.go).
	snapMu    sync.Mutex
	snapshots map[uint64]*Snapshot
	snap      snapCounters

	// pager is the store, if one is attached (pager.go); doomed, behind the
	// leaf doomedMu, the dead persistent segments it has yet to be told of.
	pager    Pager
	doomedMu sync.Mutex
	doomed   []uint64
}

// New boots a kernel: it creates the object table and the root container.
// The root container is labeled {1}, has an infinite quota, and keeps its
// header's one reference for good (Unref refuses it).
func New(cfg Config) *Kernel {
	k := &Kernel{
		ids:        label.NewAllocator(cfg.Seed ^ 0x9e3779b97f4a7c15),
		cats:       label.NewAllocator(cfg.Seed),
		labelCache: label.NewCache(labelCacheEntries),
		snapshots:  make(map[uint64]*Snapshot),
	}
	for i := range k.shards {
		k.shards[i].m = make(map[ID]object)
	}
	for i := range k.futexes {
		k.futexes[i].m = make(map[futexKey]*futexQueue)
	}
	root := &container{
		header:  k.newHeader(ObjContainer, label.New(label.L1), QuotaInfinite, "root container"),
		parent:  NilID,
		entries: make(map[ID]bool),
	}
	k.insert(root)
	k.rootID = root.id
	return k
}

// RootContainer returns the object ID of the root container.
func (k *Kernel) RootContainer() ID { return k.rootID }

// CategoryAllocator exposes the kernel's category namer for formatting
// labels in diagnostics; it does not grant any privilege.
func (k *Kernel) CategoryAllocator() *label.Allocator { return k.cats }

// newID allocates a fresh 61-bit object ID.
func (k *Kernel) newID() ID { return ID(k.ids.Alloc()) }

// ---------------------------------------------------------------------------
// Sharded object table.
// ---------------------------------------------------------------------------

// shardFor picks the table shard for an object ID.  IDs come from an
// encrypted counter, so they are already uniformly distributed; the multiply
// spreads them further.
func (k *Kernel) shardFor(id ID) *objShard {
	h := uint64(id) * 0x9e3779b97f4a7c15
	return &k.shards[(h>>48)&(objShards-1)]
}

// insert adds a fully constructed, still unreachable object to the table; its
// usage starts at its own footprint, on top of anything its builder charged
// to it (a cloned container arrives carrying its children's quotas).  It may
// be called with object locks held (shard locks nest inside object locks).
func (k *Kernel) insert(o object) {
	h := o.hdr()
	h.usage += o.footprint()
	s := k.shardFor(h.id)
	s.mu.Lock()
	s.m[h.id] = o
	s.mu.Unlock()
}

// remove deletes an object from the table.  Like insert it may run inside
// object locks.
func (k *Kernel) remove(id ID) {
	s := k.shardFor(id)
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
}

// lookup returns the live object with the given ID.  No object locks are
// taken; liveness is re-checked under the object's lock by mutating callers.
func (k *Kernel) lookup(id ID) (object, error) {
	s := k.shardFor(id)
	s.mu.RLock()
	o, ok := s.m[id]
	s.mu.RUnlock()
	if !ok || o.hdr().dead.Load() {
		return nil, ErrNoSuchObject
	}
	return o, nil
}

// as asserts that o is a T, reporting ErrNotContainer when a container was
// wanted and ErrWrongType for any other mismatch.
func as[T object](o object) (T, error) {
	v, ok := o.(T)
	if !ok {
		if _, wantContainer := object(v).(*container); wantContainer {
			return v, ErrNotContainer
		}
		return v, ErrWrongType
	}
	return v, nil
}

// lookupAs is lookup plus the type assertion.
func lookupAs[T object](k *Kernel, id ID) (T, error) {
	o, err := k.lookup(id)
	if err != nil {
		var zero T
		return zero, err
	}
	return as[T](o)
}

func (k *Kernel) lookupContainer(id ID) (*container, error) { return lookupAs[*container](k, id) }

// ---------------------------------------------------------------------------
// Ordered object locking.
// ---------------------------------------------------------------------------

// objLock pairs an object with the lock mode a syscall needs on it.
type objLock struct {
	o     object
	write bool
}

// lockSet is the fixed-size set of object locks a syscall holds, by header;
// it lives on the caller's stack so the hot path performs no allocation.
type lockSet struct {
	hdrs  [4]*header
	write [4]bool
	n     int
}

// lockOrdered acquires the given objects' locks in ascending object-ID
// order, deduplicating repeated objects (a write request wins over a read).
// Every multi-object syscall goes through it, which is what keeps the
// kernel deadlock-free; release with unlock.
func lockOrdered(locks ...objLock) lockSet {
	var ls lockSet
	// Insertion sort with dedup: syscalls lock at most four objects.
	for _, l := range locks {
		h := l.o.hdr()
		i := ls.n
		for i > 0 && ls.hdrs[i-1].id > h.id {
			i--
		}
		if i > 0 && ls.hdrs[i-1] == h {
			ls.write[i-1] = ls.write[i-1] || l.write
			continue
		}
		copy(ls.hdrs[i+1:], ls.hdrs[i:ls.n])
		copy(ls.write[i+1:], ls.write[i:ls.n])
		ls.hdrs[i], ls.write[i] = h, l.write
		ls.n++
	}
	for i := 0; i < ls.n; i++ {
		if ls.write[i] {
			ls.hdrs[i].mu.Lock()
		} else {
			ls.hdrs[i].mu.RLock()
		}
	}
	return ls
}

// unlock releases the set's locks in reverse acquisition order.
func (ls *lockSet) unlock() {
	for i := ls.n - 1; i >= 0; i-- {
		if ls.write[i] {
			ls.hdrs[i].mu.Unlock()
		} else {
			ls.hdrs[i].mu.RUnlock()
		}
	}
}

// liveLocked reports whether o is still live; the caller holds o's lock.
func liveLocked(o object) bool { return !o.hdr().dead.Load() }

// verifyEntryLive re-verifies, under held locks, that cont still links obj
// (or is obj) and that obj is live — the standard step-3 check of the
// locking discipline after the lock-free resolution phase.
func verifyEntryLive(cont *container, obj object) error {
	if err := cont.verifyLinked(obj.hdr().id); err != nil {
		return err
	}
	if !liveLocked(obj) {
		return ErrNoSuchObject
	}
	return nil
}

// ---------------------------------------------------------------------------
// Label checks (cache + per-thread L1).
// ---------------------------------------------------------------------------

// leq applies the ⊑ check through the comparison cache.
func (k *Kernel) leq(a, b label.Label) bool { return k.labelCache.Leq(a, b) }

// leqRaised applies aᴶ ⊑ bᴶ; the cache keys on the precomputed raised
// fingerprints so neither superscript-J form is materialized on a hit.
func (k *Kernel) leqRaised(a, b label.Label) bool { return k.labelCache.LeqRaised(a, b) }

func (k *Kernel) canObserve(thr, obj label.Label) bool { return k.labelCache.CanObserve(thr, obj) }

func (k *Kernel) canModify(thr, obj label.Label) bool { return k.labelCache.CanModify(thr, obj) }

// canObserveT is canObserve through the invoking thread's L1: a tiny
// direct-mapped array of atomics in front of the sharded comparison cache,
// so the hottest check on the syscall path acquires no mutex at all.  thr is
// the snapshot of t's label taken at syscall entry.
func (k *Kernel) canObserveT(t *thread, thr, obj label.Label) bool {
	if t == nil {
		return k.canObserve(thr, obj)
	}
	mix := l1Mix(thr.RaisedFingerprint(), obj.Fingerprint())
	idx := (mix >> 40) & l1Mask
	tag := mix &^ 1
	if e := t.l1[idx].Load(); e != 0 && e&^1 == tag {
		t.l1Hits.Add(1)
		return e&1 != 0
	}
	t.l1Misses.Add(1)
	v := k.labelCache.CanObserve(thr, obj)
	e := tag
	if v {
		e |= 1
	}
	t.l1[idx].Store(e)
	return v
}

// canModifyT is canModify with the observation half served from the L1.
func (k *Kernel) canModifyT(t *thread, thr, obj label.Label) bool {
	return k.leq(thr, obj) && k.canObserveT(t, thr, obj)
}

// l1Mix combines the two fingerprints of a CanObserve check into the L1 key.
// Keying on both sides means a thread-label change simply stops matching old
// entries — no flush, no generation counter.  The low bit of the mix is
// sacrificed to store the result, which adds one bit to the (already
// accepted) fingerprint-collision odds.
func l1Mix(thrRaised, obj label.Fingerprint) uint64 {
	return (uint64(obj) ^ bits.RotateLeft64(uint64(thrRaised), 31)) * 0x9e3779b97f4a7c15
}

// LabelCacheStats returns hit/miss/eviction counts of the immutable-label
// comparison cache, totalled and per shard.
func (k *Kernel) LabelCacheStats() label.CacheStats { return k.labelCache.Stats() }

// ---------------------------------------------------------------------------
// Syscall entry.
// ---------------------------------------------------------------------------

// tctx is the snapshot of the invoking thread taken at syscall entry; every
// label check in the call uses it, so checks see the thread's label as of
// entry even if another goroutine concurrently retargets the thread.
type tctx struct {
	t         *thread
	lbl       label.Label
	clearance label.Label
	as        CEnt
}

// ThreadCall is the per-thread system-call context.  All system calls are
// methods on ThreadCall so that every operation is attributed to, and
// checked against, a specific thread.
type ThreadCall struct {
	k   *Kernel
	tid ID
}

// ThreadCall returns the syscall context for an existing thread.  In real
// HiStar the binding of executing code to its thread object is enforced by
// the hardware; in this simulation the caller that created the thread is
// trusted to hand the context only to that thread's code.
func (k *Kernel) ThreadCall(tid ID) (*ThreadCall, error) {
	if _, err := lookupAs[*thread](k, tid); err != nil {
		return nil, err
	}
	return &ThreadCall{k: k, tid: tid}, nil
}

// ID returns the invoking thread's object ID.
func (tc *ThreadCall) ID() ID { return tc.tid }

// snapshot fills ctx with the thread's label, clearance and address space,
// read under its read lock (rule 1 of the locking discipline), and reports
// whether the thread is halted.
func (t *thread) snapshot(ctx *tctx) (halted bool) {
	t.mu.RLock()
	ctx.t = t
	ctx.lbl = t.lbl
	ctx.clearance = t.clearance
	ctx.as = t.addressSpace
	halted = t.halted
	t.mu.RUnlock()
	return halted
}

// enter snapshots the invoking thread at syscall entry and records the call
// in the statistics.  It fails with ErrHalted if the thread is halted or
// deallocated.
func (tc *ThreadCall) enter(sc syscallID) (ctx tctx, err error) {
	t, err := lookupAs[*thread](tc.k, tc.tid)
	if err == ErrWrongType {
		return ctx, err
	}
	if err != nil || t.snapshot(&ctx) {
		return tctx{}, ErrHalted
	}
	tc.k.count(sc, t)
	return ctx, nil
}

// SyscallsIssued returns how many system calls this thread has issued.
func (tc *ThreadCall) SyscallsIssued() uint64 {
	t, err := lookupAs[*thread](tc.k, tc.tid)
	if err != nil {
		return 0
	}
	return t.syscallCount.Load()
}

// ---------------------------------------------------------------------------
// Resolution.
// ---------------------------------------------------------------------------

// peek resolves a container entry 〈D,O〉: D must exist, the thread must be
// able to read D (LD ⊑ LTᴶ; container labels are immutable), and D must
// contain O (or be O itself, since every container contains itself).  The
// membership check here — under D's read lock, before the object is so much
// as looked up — preserves the resolve-order guarantee that naming an object
// not linked in D always yields ErrNoSuchObject, never a type or label
// error that would reveal the object's existence.  Membership is mutable,
// so syscalls re-verify it with verifyLinked once they hold their locks;
// peek itself returns with no locks held.
func (k *Kernel) peek(ctx *tctx, ce CEnt) (*container, object, error) {
	cont, err := k.lookupContainer(ce.Container)
	if err != nil {
		return nil, nil, err
	}
	if !k.canObserveT(ctx.t, ctx.lbl, cont.lbl) {
		return nil, nil, ErrLabel
	}
	if ce.Object == ce.Container {
		return cont, cont, nil
	}
	cont.mu.RLock()
	linked := cont.entries[ce.Object]
	cont.mu.RUnlock()
	if !linked {
		return nil, nil, ErrNoSuchObject
	}
	obj, err := k.lookup(ce.Object)
	if err != nil {
		return nil, nil, err
	}
	return cont, obj, nil
}

// verifyLinked checks, under c's lock (any mode), that c is live and still
// links obj (or is obj itself).
func (c *container) verifyLinked(id ID) error {
	if c.dead.Load() {
		return ErrNoSuchObject
	}
	if id == c.id {
		return nil
	}
	if !c.entries[id] {
		return ErrNoSuchObject
	}
	return nil
}

// access is the label rule resolve applies to the object an entry names.
type access uint8

const (
	// accNone applies no rule beyond peek's (the thread can read the naming
	// container): for calls that reveal only what a container listing would,
	// or that must check a mutable thread label under the object's lock.
	accNone access = iota
	// accObserve requires LO ⊑ LTᴶ.
	accObserve
	// accModify requires LT ⊑ LO ⊑ LTᴶ.
	accModify
)

// resolve is step 2 of the locking discipline for a call that names an
// existing entry: peek, the type assertion, then the label rule against the
// object's label — in that order, so an unlinked object is ErrNoSuchObject
// before any type or label error.  Every type resolved with a rule has an
// immutable label (thread entries are resolved with accNone and checked under
// their lock), so no object lock is taken.
func resolve[T object](k *Kernel, ctx *tctx, ce CEnt, acc access) (*container, T, error) {
	var zero T
	cont, obj, err := k.peek(ctx, ce)
	if err != nil {
		return nil, zero, err
	}
	v, err := as[T](obj)
	if err != nil {
		return nil, zero, err
	}
	if acc != accNone {
		lbl := obj.hdr().lbl
		if acc == accModify && !k.leq(ctx.lbl, lbl) || !k.canObserveT(ctx.t, ctx.lbl, lbl) {
			return nil, zero, ErrLabel
		}
	}
	return cont, v, nil
}

// open is resolve followed by step 3: the naming container (read) and the
// object (write if asked) are locked in ID order and the link and the object's
// liveness re-verified.  On success the caller owns the returned lock set.
func open[T object](k *Kernel, ctx *tctx, ce CEnt, acc access, write bool) (T, lockSet, error) {
	cont, v, err := resolve[T](k, ctx, ce, acc)
	if err != nil {
		return v, lockSet{}, err
	}
	ls := lockOrdered(objLock{cont, false}, objLock{v, write})
	if err := verifyEntryLive(cont, v); err != nil {
		ls.unlock()
		var zero T
		return zero, lockSet{}, err
	}
	return v, ls, nil
}

// ---------------------------------------------------------------------------
// Allocation: admit, build, publish.
// ---------------------------------------------------------------------------

// admit is the first step of every call that links something into container
// d: d must exist, must not forbid any of the types about to be linked (zero
// when the call only unlinks, or learns the type later), and the thread must
// be able to write it (LT ⊑ LD ⊑ LTᴶ; container labels are immutable).  The
// nil ctx is the kernel's own bootstrap code (BootThread, DeviceCreate),
// which no label constrains.  No locks are held on return; publish re-checks
// what can change.
func (k *Kernel) admit(ctx *tctx, d ID, types TypeMask) (*container, error) {
	cont, err := k.lookupContainer(d)
	if err != nil {
		return nil, err
	}
	if cont.avoidTypes&types != 0 {
		return nil, ErrAvoidType
	}
	if ctx != nil && !k.canModifyT(ctx.t, ctx.lbl, cont.lbl) {
		return nil, ErrLabel
	}
	return cont, nil
}

// newHeader builds the header of a new object with one reference: the link
// publish is about to add.
func (k *Kernel) newHeader(typ ObjectType, l label.Label, quota uint64, descrip string) header {
	if len(descrip) > DescripSize {
		descrip = descrip[:DescripSize]
	}
	return header{
		id:      k.newID(),
		objType: typ,
		lbl:     label.Intern(l),
		quota:   quota,
		descrip: descrip,
		refs:    1,
	}
}

// publish makes o — and the unpublished subtree below it, for a clone —
// visible: cont must still be live and mutable and is charged o's quota, then
// every object enters the table and o is linked.  The caller holds cont's
// write lock; nothing is changed on error.
func (k *Kernel) publish(cont *container, o object, subtree ...object) error {
	if !liveLocked(cont) {
		return ErrNoSuchObject
	}
	if cont.immutable {
		return ErrImmutable
	}
	if err := k.charge(cont, o.hdr().quota); err != nil {
		return err
	}
	for _, n := range subtree {
		k.insert(n)
	}
	k.insert(o)
	cont.link(o.hdr().id)
	return nil
}

// create publishes one new object into cont under cont's write lock alone.
func (k *Kernel) create(cont *container, o object) (ID, error) {
	cont.mu.Lock()
	defer cont.mu.Unlock()
	if err := k.publish(cont, o); err != nil {
		return NilID, err
	}
	return o.hdr().id, nil
}

// newThread builds an unpublished thread and its one-page thread-local
// segment, which follows the thread's label with ownership stripped.
func (k *Kernel) newThread(lbl, clearance label.Label, as CEnt, quota uint64, descrip string) *thread {
	if quota == 0 {
		quota = 1 << 20
	}
	t := &thread{
		header:       k.newHeader(ObjThread, lbl, quota, descrip),
		clearance:    label.Intern(clearance),
		addressSpace: as,
		alertCh:      make(chan struct{}, 1),
	}
	t.localSegment = &segment{
		header: k.newHeader(ObjSegment, lbl.LowerStar(), localSegmentSize, "thread-local segment"),
		data:   make([]byte, localSegmentSize),
	}
	t.localSegment.refs = 0 // reachable only through its thread, never linked
	return t
}

// BootThread creates the initial thread directly in the root container with
// the given label and clearance.  It bypasses the usual "creator must be a
// thread" rule exactly once, the way the real kernel's bootstrap code hands
// control to the first user-level thread.
func (k *Kernel) BootThread(lbl, clearance label.Label, descrip string) (*ThreadCall, error) {
	if !label.ValidThreadLabel(lbl) || !label.ValidClearance(clearance) {
		return nil, ErrInvalid
	}
	if !lbl.Leq(clearance) {
		return nil, ErrLabel
	}
	root, err := k.admit(nil, k.rootID, Mask(ObjThread))
	if err != nil {
		return nil, err
	}
	tid, err := k.create(root, k.newThread(lbl, clearance, CEnt{}, 0, descrip))
	if err != nil {
		return nil, err
	}
	return &ThreadCall{k: k, tid: tid}, nil
}

// localSegmentSize is one page, as in the paper.
const localSegmentSize = 4096

// charge charges q bytes of quota to container c, failing if the container's
// quota would be exceeded.  The caller holds c's write lock.
func (k *Kernel) charge(c *container, q uint64) error {
	if c.quota == QuotaInfinite {
		c.usage += q
		return nil
	}
	if q == QuotaInfinite {
		return ErrQuota
	}
	if c.usage+q > c.quota {
		return ErrQuota
	}
	c.usage += q
	return nil
}

// refund returns q bytes of quota to container c; the caller holds c's write
// lock.
func (k *Kernel) refund(c *container, q uint64) {
	if q == QuotaInfinite {
		return
	}
	if c.usage >= q {
		c.usage -= q
	} else {
		c.usage = 0
	}
}

// ---------------------------------------------------------------------------
// Deallocation.
// ---------------------------------------------------------------------------

// deallocLocked marks o dead and removes it from the object table; the
// caller holds o's write lock and o's reference count has reached zero.  It
// returns the IDs of o's children (for containers) whose references must be
// dropped by releaseRefs AFTER the caller has released its locks — the
// teardown never holds two tree levels' locks at once.
func (k *Kernel) deallocLocked(o object) []ID {
	h := o.hdr()
	if h.dead.Load() {
		return nil
	}
	h.dead.Store(true)
	var children []ID
	switch v := o.(type) {
	case *container:
		children = v.order
		v.entries = nil
		v.order = nil
	case *thread:
		v.halted = true
		k.retired.hits.Add(v.l1Hits.Load())
		k.retired.misses.Add(v.l1Misses.Load())
	case *segment:
		if v.persistent {
			// Clean for good: a Sync must push nothing after the Delete that
			// releaseRefs sends once the teardown's locks are released.
			v.dirty = false
			k.doomedMu.Lock()
			k.doomed = append(k.doomed, uint64(v.id))
			k.doomedMu.Unlock()
		}
	}
	k.remove(h.id)
	return children
}

// unlinkLocked removes cont's link to the live object o, refunds the quota
// the link charged and drops the reference, deallocating o if it was the
// last.  The caller holds both write locks, has checked that cont links o,
// and passes the returned children to releaseRefs after unlocking.
func (k *Kernel) unlinkLocked(cont *container, o object) []ID {
	h := o.hdr()
	cont.unlink(h.id)
	k.refund(cont, h.quota)
	h.refs--
	if h.refs > 0 {
		return nil
	}
	return k.deallocLocked(o)
}

// releaseRefs drops one reference from each object in ids, deallocating any
// that reach zero and queueing their children in turn.  It locks exactly one
// object at a time, so it is deadlock-free regardless of tree shape, and
// must be called with no object locks held — which also makes it the place
// the pager learns of the persistent segments a teardown killed.
func (k *Kernel) releaseRefs(ids []ID) {
	work := ids
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		o, err := k.lookup(id)
		if err != nil {
			continue
		}
		h := o.hdr()
		h.mu.Lock()
		if h.dead.Load() {
			h.mu.Unlock()
			continue
		}
		h.refs--
		if h.refs <= 0 {
			work = append(work, k.deallocLocked(o)...)
		}
		h.mu.Unlock()
	}
	if k.pager == nil {
		return
	}
	k.doomedMu.Lock()
	doomed := k.doomed
	k.doomed = nil
	k.doomedMu.Unlock()
	for _, id := range doomed {
		// A store that refuses is closed: there is nothing left to delete from.
		_ = k.pager.Delete(id)
	}
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

// ObjectCount returns the number of live kernel objects (for tests and the
// resource-exhaustion experiments).
func (k *Kernel) ObjectCount() int {
	n := 0
	k.each(func(o object) {
		if !o.hdr().dead.Load() {
			n++
		}
	})
	return n
}

// each calls fn on every object in the table, one shard's read lock held at
// a time: fn must take no object lock (rule 4).
func (k *Kernel) each(fn func(object)) {
	for i := range k.shards {
		s := &k.shards[i]
		s.mu.RLock()
		for _, o := range s.m {
			fn(o)
		}
		s.mu.RUnlock()
	}
}

// L1Stats totals the per-thread canObserve L1 counters across live and
// deallocated threads.
type L1Stats struct {
	Hits   uint64
	Misses uint64
}

// l1Retired accumulates L1 counters of threads that have been deallocated.
type l1Retired struct {
	hits   paddedUint64
	misses paddedUint64
}

// LabelL1Stats returns the per-thread L1 hit/miss totals.
func (k *Kernel) LabelL1Stats() L1Stats {
	st := L1Stats{Hits: k.retired.hits.Load(), Misses: k.retired.misses.Load()}
	k.each(func(o object) {
		if t, ok := o.(*thread); ok && !t.dead.Load() {
			st.Hits += t.l1Hits.Load()
			st.Misses += t.l1Misses.Load()
		}
	})
	return st
}
