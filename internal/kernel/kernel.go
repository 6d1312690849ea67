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
// clearance.
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
//     entry, exactly as in the real kernel.  The thread is the one the
//     ThreadCall holds, never looked up again by ID, and enter alone takes
//     the snapshot.
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
//     syscall, each naming its own access rule and running its own body
//     under the locks it returns; publish (live, immutable, charge, insert,
//     link) is the only way a new object enters the table, run under the
//     lock set of whichever creator called it.
//  4. Shard locks are only ever acquired with either no object locks held
//     (lookup) or nested inside object locks (insert on create, delete on
//     deallocate); an object lock is never acquired while a shard lock is
//     held.
//  5. The futex table's lock, futexMu, nests inside object locks and never
//     the other way around.  The allocators are self-synchronized leaves,
//     and so are doomedMu and dirtyMu.
//  6. The pager (the store: its locks lie below the kernel's and it never
//     calls back) is called with at most one segment's lock held — with the
//     naming container's shared lock, under open — for a push or a page-in
//     (fault, which also holds that segment's faultMu, taken only there),
//     and otherwise (group commit, checkpoint) with none; Delete
//     waits until a teardown has released its locks.
//
// Recursive deallocation (unreferencing a container subtree) never holds two
// tree levels' locks at once: an object that drops to zero references is
// marked dead and unlinked from the table under its own write lock, its
// children are collected into a worklist, and the worklist is drained one
// object at a time after the triggering syscall has released its locks.
//
// # Syscall ring
//
// A Ring (ring.go, which nothing else in the package uses) queues segment
// reads and, at Wait, makes each as a SegmentRead: it adds no lock-order
// edge, no snapshot and no verdict of its own, and stays only for the
// benchmark's ring rows.  A gate entry is always the one
// GateEnter call, and fsync the one SyncSegments call (pager.go), which
// pushes each segment it names under that segment's own open and commits
// them, with no kernel lock held, as one group.
//
// # Segment copies (golden images)
//
// SegmentCopy is the one copy primitive, as in the paper (Section 3): the
// copy shares its source's array, frozen, and the first write to either
// segment breaks the share for that segment alone (segment.go), so a copy of
// a 64 MiB segment moves no bytes.  The kernel keeps no other kind of copy:
// a golden image is a library convention (unixlib.BakeGolden), a public
// container of immutable segment copies, and a spawn creates its containers
// and copies each segment at the user's labels through the ordinary observe
// and allocate checks.  webd's session cache, on a cold login, spawns one
// into the worker's process container instead of rebuilding the sandbox.
//
// A push that covers a segment, or any push of one of at most a page, hands
// the pager the array itself (pager.go), frozen as a copy's is: nobody writes
// it again, and the segment's next write copies it (reshape), a copy the COW
// ledger does not count.
//
// Read-mostly syscalls (segment reads, resolution, stat, list) take only
// read locks, so they proceed in parallel across — and within — shards.
// Mutating syscalls take write locks only on the objects they mutate.
// A label check is a direct call into the label package: one merge over two
// sorted slices that touches no shared state and allocates nothing, so no
// check is memoized.
package kernel

import (
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

	// futexMu guards futexes, the futex wait queues (futex.go).
	futexMu sync.Mutex
	futexes map[futexKey]*futexQueue

	syscalls syscallCounters

	// ring tallies batched-submission activity (see ring.go).
	ring ringCounters

	// snap is the copy-on-write ledger (segment.go).
	snap snapCounters

	// pager is the store, if one is attached (pager.go); doomed, behind the
	// leaf doomedMu, the dead persistent segments it has yet to be told of;
	// dirty, behind the leaf dirtyMu, the live ones Sync pushes by stamp (setDirty).
	pager      Pager
	doomedMu   sync.Mutex
	doomed     []uint64
	dirtyMu    sync.Mutex
	dirty      map[*segment]uint64
	dirtyStamp uint64
}

// New boots a kernel: it creates the object table and the root container.
// The root container is labeled {1}, has an infinite quota, and keeps its
// header's one reference for good (Unref refuses it).
func New(cfg Config) *Kernel {
	k := &Kernel{
		ids:     label.NewAllocator(cfg.Seed ^ 0x9e3779b97f4a7c15),
		cats:    label.NewAllocator(cfg.Seed),
		futexes: make(map[futexKey]*futexQueue),
		dirty:   make(map[*segment]uint64),
	}
	for i := range k.shards {
		k.shards[i].m = make(map[ID]object)
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
// usage starts at its own footprint.  It may be called with object locks held
// (shard locks nest inside object locks).
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
// Syscall entry.
// ---------------------------------------------------------------------------

// tctx is the snapshot of the invoking thread taken at syscall entry; every
// label check in the call uses it, so checks see the thread's label as of
// entry even if another goroutine concurrently retargets the thread.
type tctx struct {
	lbl       label.Label
	clearance label.Label
	as        CEnt
}

// ThreadCall is the per-thread system-call context.  All system calls are
// methods on ThreadCall so that every operation is attributed to, and
// checked against, a specific thread.  A context holds its thread itself,
// not the thread's ID: object IDs are never reused, so the thread a context
// was made for is the only one it can ever name, and a call enters through
// it with no table lookup.  A context pins its thread's memory until the
// context is dropped; once the thread is halted or deallocated, every call
// through it returns ErrHalted.
type ThreadCall struct {
	k *Kernel
	t *thread
}

// ThreadCall returns the syscall context for an existing thread; it is the
// only place a thread is looked up by ID, and the context pins the thread it
// finds (IDs are never reused).  In real HiStar the binding of executing
// code to its thread object is enforced by the hardware; in this simulation
// the caller that created the thread is trusted to hand the context only to
// that thread's code.
func (k *Kernel) ThreadCall(tid ID) (*ThreadCall, error) {
	t, err := lookupAs[*thread](k, tid)
	if err != nil {
		return nil, err
	}
	return &ThreadCall{k: k, t: t}, nil
}

// ID returns the invoking thread's object ID.
func (tc *ThreadCall) ID() ID { return tc.t.id }

// enter snapshots the invoking thread under its read lock (rule 1 of the
// locking discipline) and records the call in the statistics.  It fails with
// ErrHalted, counting nothing, if the thread is halted or deallocated
// (deallocLocked halts a thread under its write lock).
func (tc *ThreadCall) enter(sc syscallID) (tctx, error) {
	t := tc.t
	t.mu.RLock()
	ctx := tctx{lbl: t.lbl, clearance: t.clearance, as: t.addressSpace}
	halted := t.halted
	t.mu.RUnlock()
	if halted {
		return tctx{}, ErrHalted
	}
	tc.k.count(sc, t)
	return ctx, nil
}

// SyscallsIssued returns how many system calls this thread has issued.
func (tc *ThreadCall) SyscallsIssued() uint64 { return tc.t.syscallCount.Load() }

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
	if !label.CanObserve(ctx.lbl, cont.lbl) {
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
		if acc == accModify && !ctx.lbl.Leq(lbl) || !label.CanObserve(ctx.lbl, lbl) {
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
	if ctx != nil && !label.CanModify(ctx.lbl, cont.lbl) {
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
		lbl:     l,
		quota:   quota,
		descrip: descrip,
		refs:    1,
	}
}

// publish makes o visible: cont must still be live and mutable and is charged
// o's quota, then o enters the table and is linked.  The caller holds cont's
// write lock; nothing is changed on error.
func (k *Kernel) publish(cont *container, o object) error {
	if !liveLocked(cont) {
		return ErrNoSuchObject
	}
	if cont.immutable {
		return ErrImmutable
	}
	if err := k.charge(cont, o.hdr().quota); err != nil {
		return err
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
		clearance:    clearance,
		addressSpace: as,
		alertCh:      make(chan struct{}, 1),
	}
	t.localSegment = &segment{header: k.newHeader(ObjSegment, lbl.LowerStar(), localSegmentSize, "thread-local segment")}
	t.localSegment.data, t.localSegment.frozen = freshData(localSegmentSize)
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
	t := k.newThread(lbl, clearance, CEnt{}, 0, descrip)
	if _, err := k.create(root, t); err != nil {
		return nil, err
	}
	return &ThreadCall{k: k, t: t}, nil
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
		children = v.list()
		v.entries = nil
	case *thread:
		v.halt()
	case *segment:
		if v.persistent {
			// Clean for good: a Sync must push nothing after the Delete that
			// releaseRefs sends once the teardown's locks are released.
			k.setDirty(v, false)
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

// releaseRefs drops one reference from each object in ids, in order,
// deallocating any that reach zero and queueing their children after them.
// It locks exactly one object at a time, so it is deadlock-free regardless
// of tree shape, and must be called with no object locks held — which also
// makes it the place the pager learns of the persistent segments a teardown
// killed.
func (k *Kernel) releaseRefs(ids []ID) {
	for work := ids; len(work) > 0; work = work[1:] {
		o, err := k.lookup(work[0])
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

// LabelCacheStats returns zeros; it stays only until the benchmark drops its label.* cache rows (ROADMAP item 19).
func (k *Kernel) LabelCacheStats() label.CacheStats { return label.CacheStats{} }

// L1Stats reads zeros; it stays only until the benchmark drops its label.* cache rows (ROADMAP item 19).
type L1Stats struct{ Hits, Misses uint64 }

// LabelL1Stats returns zeros; it stays only until the benchmark drops its label.* cache rows (ROADMAP item 19).
func (k *Kernel) LabelL1Stats() L1Stats { return L1Stats{} }
