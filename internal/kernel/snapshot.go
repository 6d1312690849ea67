package kernel

import (
	"fmt"
	"sync/atomic"

	"histar/internal/label"
)

// Container snapshot/clone: O(metadata) sandbox creation.
//
// ContainerSnapshot captures an immutable image of a container subtree —
// containers, segments, gates, and address spaces, with their labels,
// quotas, and metadata — identified by a lineage hash over the captured
// state.  Segment contents are captured BY REFERENCE: the source segment's
// data slice is frozen (copy-on-write) at capture time, so a snapshot of a
// 64 MiB sandbox costs a subtree walk, not a 64 MiB copy.
//
// ContainerClone materializes a snapshot as a fresh subtree under a
// destination container: every object gets a fresh ID (internal references —
// container entries, address-space mappings, gate address spaces — are
// remapped), labels are rewritten through a caller-supplied category remap
// (how a golden image baked with a template user's categories becomes one
// user's private sandbox), and cloned segments share the frozen data slices
// COW until first write.  The clone takes object locks only on the
// destination container, so spawning a sandbox is O(metadata) regardless of
// how many bytes the image carries.
//
// When a Pager is attached (pager.go), a snapshot's segments become persistent
// where they stand, the system is checkpointed, and the snapshot takes an
// alias of each segment's store object under an id of its own — which is what
// lets the master be rewritten or die.  A clone's segments are aliases of
// those (persistent from birth: the alias dies with the segment), taken
// before the clone is published; the store refuses to alias bytes that have
// rotted, so a clone of a damaged image fails typed instead of sharing them.
//
// Threads and devices are skipped by the walk: a snapshot is a passive image
// (programs, file data, directory segments), and golden images are baked
// quiescent.  Thread-local segments never appear in containers, so they are
// never captured.

// snapObject is one captured object image.  Everything is immutable after
// capture; data aliases the frozen source slice.
type snapObject struct {
	id         ID
	typ        ObjectType
	version    uint64 // header.version at capture: what the lineage knows of contents
	lbl        label.Label
	quota      uint64
	fixedQuota bool
	immutable  bool
	descrip    string
	metadata   [MetadataSize]byte

	children   []ID     // container: child IDs in insertion order
	avoidTypes TypeMask // container

	data []byte // segment: frozen, shared

	gateLabel label.Label // gate
	gateClr   label.Label
	gateAS    CEnt
	entry     GateEntry
	closure   []byte

	mappings []Mapping // address space
}

// Snapshot is one registered container snapshot.
type Snapshot struct {
	lineage uint64
	name    string
	root    ID
	objs    map[ID]*snapObject
	order   []ID     // walk order, root first (parents before children)
	types   TypeMask // every captured object type, for the clone's admission
	bytes   uint64
	// held is the store objects the snapshot owns, with a pager: an alias of
	// each captured segment's bytes under a fresh id, in walk order (hold).
	held []ID
}

// SnapshotInfo is a snapshot's externally visible description.
type SnapshotInfo struct {
	// Lineage identifies the snapshot; clones name it.
	Lineage uint64
	Name    string
	// Root is the ID the snapshotted subtree's root container had.
	Root ID
	// Objects counts captured objects; Bytes their total segment data.
	Objects int
	Bytes   uint64
}

// CloneResult describes one materialized clone.
type CloneResult struct {
	// Root is the fresh ID of the cloned subtree's root container.
	Root ID
	// Objects counts cloned objects.
	Objects int
	// SharedBytes is segment data shared COW with the snapshot;
	// CopiedBytes is what the clone itself duplicated (always 0 — copies
	// happen lazily, at first write, and show up in SnapshotStats).
	SharedBytes uint64
	CopiedBytes uint64
	// IDMap maps snapshotted object IDs to their clones' fresh IDs.
	IDMap map[ID]ID
}

// snapCounters tallies kernel-wide snapshot/clone activity.
type snapCounters struct {
	snapshots   atomic.Uint64
	clones      atomic.Uint64
	sharedBytes atomic.Uint64
	copiedBytes atomic.Uint64
	cowBreaks   atomic.Uint64
}

// SnapshotStats is a snapshot of the kernel-wide snapshot/clone counters.
type SnapshotStats struct {
	// Snapshots and Clones count successful captures and materializations.
	Snapshots uint64
	Clones    uint64
	// SharedBytes is the total segment data clones attached COW;
	// CopiedBytes the data actually duplicated by first writes
	// (CowBreaks counts those events).  SharedBytes/CopiedBytes is the
	// sharing ratio the golden-spawn fast-path exists for.
	SharedBytes uint64
	CopiedBytes uint64
	CowBreaks   uint64
	// Registered is the number of live snapshots.
	Registered int
}

// SnapshotStats returns the kernel-wide snapshot/clone counters.
func (k *Kernel) SnapshotStats() SnapshotStats {
	k.snapMu.Lock()
	n := len(k.snapshots)
	k.snapMu.Unlock()
	return SnapshotStats{
		Snapshots:   k.snap.snapshots.Load(),
		Clones:      k.snap.clones.Load(),
		SharedBytes: k.snap.sharedBytes.Load(),
		CopiedBytes: k.snap.copiedBytes.Load(),
		CowBreaks:   k.snap.cowBreaks.Load(),
		Registered:  n,
	}
}

func (s *Snapshot) info() SnapshotInfo {
	return SnapshotInfo{
		Lineage: s.lineage,
		Name:    s.name,
		Root:    s.root,
		Objects: len(s.order),
		Bytes:   s.bytes,
	}
}

// DropSnapshot unregisters a snapshot and deletes the store objects it
// holds.  Live clones are unaffected: their frozen slices keep the shared
// data alive and their own store aliases keep the shared extents referenced.
func (k *Kernel) DropSnapshot(lineage uint64) error {
	k.snapMu.Lock()
	snap, ok := k.snapshots[lineage]
	delete(k.snapshots, lineage)
	k.snapMu.Unlock()
	if !ok {
		return ErrNotFound
	}
	k.unalias(snap.held)
	return nil
}

// hold gives a captured snapshot store objects of its own: an alias is of
// checkpointed bytes, so the system is checkpointed first, then each segment
// is aliased under a fresh id.  A failure leaves nothing behind.
func (k *Kernel) hold(snap *Snapshot) error {
	err := k.pager.Checkpoint()
	for _, id := range snap.order {
		if so := snap.objs[id]; so.typ == ObjSegment && err == nil {
			snap.held = append(snap.held, k.newID())
			err = k.pager.Alias(uint64(id), uint64(snap.held[len(snap.held)-1]), so.lbl)
		}
	}
	if err != nil {
		k.unalias(snap.held)
	}
	return err
}

// unalias deletes store objects no kernel object stands for (a snapshot's
// hold, an unpublished clone's aliases).  A store that refuses is closed:
// there is nothing left to delete from.
func (k *Kernel) unalias(ids []ID) {
	for _, id := range ids {
		_ = k.pager.Delete(uint64(id))
	}
}

// snapLineage hashes a snapshot's identity-relevant state (FNV-1a): the
// name, the walk order (which covers the links), and each object's type,
// size, label and version — every change to a segment's bytes, an address
// space's mappings or an object's metadata bumps the version, so a rewrite
// of the same length is a different snapshot.  Object IDs are included, so
// re-snapshotting an unchanged subtree yields the same lineage while
// snapshots of distinct subtrees never collide in practice.
func snapLineage(name string, order []ID, objs map[ID]*snapObject) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	for _, id := range order {
		o := objs[id]
		mix(uint64(o.id))
		mix(uint64(o.typ))
		mix(uint64(len(o.data)))
		mix(o.version)
		for _, b := range o.lbl.AppendBinary(nil) {
			h ^= uint64(b)
			h *= prime
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

// ContainerSnapshot captures the subtree rooted at the container named by ce
// into a registered snapshot (container_snapshot).  The invoking thread must
// be able to observe every captured object; threads and devices in the
// subtree are skipped.  Segment data is shared COW from this moment on.
// With a pager the captured segments become persistent, are pushed as they
// are captured, and the snapshot then holds an alias of each (hold).
func (tc *ThreadCall) ContainerSnapshot(ce CEnt, name string) (SnapshotInfo, error) {
	ctx, err := tc.enter(scContainerSnapshot)
	if err != nil {
		return SnapshotInfo{}, err
	}
	k := tc.k
	_, root, err := resolve[*container](k, &ctx, ce, accNone)
	if err != nil {
		return SnapshotInfo{}, err
	}

	// Walk the subtree breadth-first, locking ONE object at a time (read
	// locks for metadata, a write lock on segments to set the frozen flag
	// and push the frozen bytes to the pager),
	// so the walk adds no multi-object lock acquisitions to the discipline.
	// The subtree must be quiescent for a perfectly consistent image — the
	// golden-image workflow bakes images before any clone runs — but the
	// walk itself is safe against concurrent mutation: each object's capture
	// is atomic under its own lock.
	objs := make(map[ID]*snapObject)
	var order []ID
	var types TypeMask
	var bytes uint64
	queue := []ID{root.id}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if _, seen := objs[id]; seen {
			continue
		}
		o, err := k.lookup(id)
		if err != nil {
			if id == root.id {
				return SnapshotInfo{}, err
			}
			continue // unlinked during the walk
		}
		h := o.hdr()
		if h.objType == ObjThread || h.objType == ObjDevice {
			continue
		}
		// Labels of non-thread objects are immutable; the check needs no
		// lock and failing it fails the snapshot — a subtree image with
		// holes would clone incompletely and silently.
		if !k.canObserveT(ctx.t, ctx.lbl, h.lbl) {
			return SnapshotInfo{}, ErrLabel
		}
		so := &snapObject{id: id, typ: h.objType}
		seg, isSeg := o.(*segment)
		if isSeg {
			h.mu.Lock()
		} else {
			h.mu.RLock()
		}
		live := !h.dead.Load()
		if live {
			so.version = h.version
			so.lbl = h.lbl
			so.quota = h.quota
			so.fixedQuota = h.fixedQuota
			so.immutable = h.immutable
			so.descrip = h.descrip
			so.metadata = h.metadata
			switch v := o.(type) {
			case *container:
				so.children = v.list()
				so.avoidTypes = v.avoidTypes
			case *segment:
				seg.frozen = true
				so.data = seg.data
				if k.pager != nil {
					// A store object from now on, like any persistent
					// segment: the snapshot aliases what this push hands
					// over, and the object dies with the segment.
					if !seg.persistent {
						seg.persistent, seg.dirty = true, true
					}
					err = k.push(seg)
				}
			case *gate:
				so.gateLabel = v.gateLabel
				so.gateClr = v.clearance
				so.gateAS = v.addressSpace
				so.entry = v.entry
				so.closure = v.closureArgs
			case *addressSpace:
				so.mappings = append([]Mapping(nil), v.mappings...)
			}
		}
		if isSeg {
			h.mu.Unlock()
		} else {
			h.mu.RUnlock()
		}
		if err != nil {
			return SnapshotInfo{}, fmt.Errorf("kernel: persisting snapshot %q: %w", name, err)
		}
		if !live {
			if id == root.id {
				return SnapshotInfo{}, ErrNoSuchObject
			}
			continue
		}
		objs[id] = so
		order = append(order, id)
		types |= Mask(so.typ)
		bytes += uint64(len(so.data))
		queue = append(queue, so.children...)
	}

	snap := &Snapshot{
		name:  name,
		root:  root.id,
		objs:  objs,
		order: order,
		types: types,
		bytes: bytes,
	}
	snap.lineage = snapLineage(name, order, objs)

	k.snapMu.Lock()
	if existing, ok := k.snapshots[snap.lineage]; ok {
		// Identical re-capture (same subtree, same state): idempotent.
		info := existing.info()
		k.snapMu.Unlock()
		return info, nil
	}
	k.snapMu.Unlock()

	if k.pager != nil {
		if err := k.hold(snap); err != nil {
			return SnapshotInfo{}, fmt.Errorf("kernel: persisting snapshot %q: %w", name, err)
		}
	}

	k.snapMu.Lock()
	existing, raced := k.snapshots[snap.lineage]
	if !raced {
		k.snapshots[snap.lineage] = snap
	}
	k.snapMu.Unlock()
	if raced {
		// An identical capture registered while this one was taking its
		// hold: one snapshot, so this hold goes.
		k.unalias(snap.held)
		return existing.info(), nil
	}
	k.snap.snapshots.Add(1)
	return snap.info(), nil
}

// remapLabel rewrites a label's categories through remap.  Pairs() returns a
// copy, so the source (possibly interned) label is never mutated.
func remapLabel(l label.Label, remap map[label.Category]label.Category) label.Label {
	if len(remap) == 0 || l.NumExplicit() == 0 {
		return l
	}
	pairs := l.Pairs()
	changed := false
	for i := range pairs {
		if nc, ok := remap[pairs[i].Category]; ok {
			pairs[i].Category = nc
			changed = true
		}
	}
	if !changed {
		return l
	}
	return label.New(l.Default(), pairs...)
}

// ContainerClone materializes the snapshot with the given lineage as a fresh
// subtree linked into container dst (container_clone).  Every object gets a
// fresh ID; labels are rewritten through remap (template-user categories →
// this clone's user), and the invoking thread must be able to allocate at
// every rewritten label and to write dst.  Cloned segments share the
// snapshot's data COW — the call copies no segment bytes.  With a pager
// attached the clone's segments are aliases of the store objects the
// snapshot holds, taken before anything is published; if the store will not
// share them — the bytes have rotted, or it failed — the clone fails with
// ErrCorrupt and the pager's typed error in the chain.
func (tc *ThreadCall) ContainerClone(lineage uint64, dst ID, remap map[label.Category]label.Category) (CloneResult, error) {
	ctx, err := tc.enter(scContainerClone)
	if err != nil {
		return CloneResult{}, err
	}
	k := tc.k
	k.snapMu.Lock()
	snap, ok := k.snapshots[lineage]
	k.snapMu.Unlock()
	if !ok {
		return CloneResult{}, ErrNotFound
	}
	aliased := k.pager != nil // the snapshot holds store objects, so the clone's segments are aliases of them
	dest, err := k.admit(&ctx, dst, snap.types)
	if err != nil {
		return CloneResult{}, err
	}

	// Phase 1, no locks: allocate fresh IDs and validate every rewritten
	// label against the invoking thread's privileges.
	idMap := make(map[ID]ID, len(snap.order))
	for _, id := range snap.order {
		idMap[id] = k.newID()
	}
	remapCE := func(ce CEnt) CEnt {
		if n, ok := idMap[ce.Container]; ok {
			ce.Container = n
		}
		if n, ok := idMap[ce.Object]; ok {
			ce.Object = n
		}
		return ce
	}
	labels := make(map[ID]label.Label, len(snap.order))
	for _, id := range snap.order {
		so := snap.objs[id]
		nl := remapLabel(so.lbl, remap)
		if !label.CanAllocate(ctx.lbl, ctx.clearance, nl) {
			return CloneResult{}, ErrLabel
		}
		labels[id] = nl
		if so.typ == ObjGate {
			// Same bounds GateCreate enforces for the rewritten gate label.
			gl := remapLabel(so.gateLabel, remap)
			if !k.leq(ctx.lbl, gl) || !k.leq(gl.LowerStar(), ctx.clearance) ||
				!k.leq(remapLabel(so.gateClr, remap), ctx.clearance) {
				return CloneResult{}, ErrLabel
			}
		}
	}

	// Phase 2, still no locks: build the whole subtree as unpublished
	// objects.  Nothing can reach them until they are inserted, so no
	// object locks are needed; internal references go through idMap.
	// refCount reproduces hard-link structure: an object linked from two
	// snapshotted containers keeps two links in the clone.  parentOf maps
	// each snapshotted container to its snapshotted parent (walk order puts
	// parents first, so the first link wins, matching the walk).
	refCount := make(map[ID]int, len(snap.order))
	parentOf := make(map[ID]ID, len(snap.order))
	for _, id := range snap.order {
		so := snap.objs[id]
		for _, child := range so.children {
			if _, ok := idMap[child]; !ok {
				continue
			}
			refCount[child]++
			if _, ok := parentOf[child]; !ok {
				parentOf[child] = id
			}
		}
	}
	refCount[snap.root]++ // the link dest will hold
	var built []object
	var shared uint64
	for _, id := range snap.order {
		so := snap.objs[id]
		var o object
		var childQuota uint64
		switch so.typ {
		case ObjContainer:
			nc := &container{entries: make(map[ID]bool), avoidTypes: so.avoidTypes}
			if id == snap.root {
				nc.parent = dst
			} else {
				nc.parent = idMap[parentOf[id]]
			}
			for _, child := range so.children {
				nid, ok := idMap[child]
				if !ok {
					continue // skipped (thread/device) or unlinked mid-walk
				}
				nc.link(nid)
				// Reproduce the charge the child's creation made against
				// this container, so quota accounting inside the clone
				// matches a from-scratch build.
				childQuota += snap.objs[child].quota
			}
			o = nc
		case ObjSegment:
			ns := &segment{data: so.data, frozen: true, persistent: aliased}
			shared += uint64(len(so.data))
			o = ns
		case ObjGate:
			o = &gate{
				gateLabel:    label.Intern(remapLabel(so.gateLabel, remap)),
				clearance:    label.Intern(remapLabel(so.gateClr, remap)),
				addressSpace: remapCE(so.gateAS),
				entry:        so.entry,
				closureArgs:  so.closure,
			}
		case ObjAddressSpace:
			na := &addressSpace{}
			for _, m := range so.mappings {
				m.Seg = remapCE(m.Seg)
				na.mappings = append(na.mappings, m)
			}
			o = na
		default:
			continue
		}
		h := o.hdr()
		h.id = idMap[id]
		h.objType = so.typ
		h.lbl = label.Intern(labels[id])
		h.quota = so.quota
		h.fixedQuota = so.fixedQuota
		h.immutable = so.immutable
		h.descrip = so.descrip
		h.metadata = so.metadata
		h.refs = refCount[id]
		h.usage = childQuota // insert adds the object's own footprint
		built = append(built, o)
	}

	// Phase 3: store-side aliases, no kernel locks held, while the fresh ids
	// are still unreachable: once a thread can name a cloned segment it can
	// write and sync it, and a store object under that id would make the
	// alias fail.  A failure here, or of the publish below, deletes the
	// aliases asked for, so callers never see a half-durable sandbox.
	var made []ID
	for _, id := range snap.order {
		if !aliased || snap.objs[id].typ != ObjSegment {
			continue
		}
		src := snap.held[len(made)] // the hold on this, the len(made)'th captured segment
		made = append(made, idMap[id])
		if err := k.pager.Alias(uint64(src), uint64(idMap[id]), labels[id]); err != nil {
			k.unalias(made)
			return CloneResult{}, fmt.Errorf("%w: cloning snapshot %#x: %w", ErrCorrupt, lineage, err)
		}
	}

	// Phase 4: publish under the destination container's lock — the only
	// multi-object-visible step, and the only lock the clone holds.  Walk
	// order puts the root first.
	dest.mu.Lock()
	err = k.publish(dest, built[0], built[1:]...)
	dest.mu.Unlock()
	if err != nil {
		k.unalias(made)
		return CloneResult{}, err
	}

	k.snap.clones.Add(1)
	k.snap.sharedBytes.Add(shared)
	return CloneResult{
		Root:        idMap[snap.root],
		Objects:     len(built),
		SharedBytes: shared,
		IDMap:       idMap,
	}, nil
}
