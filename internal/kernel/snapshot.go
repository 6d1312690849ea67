package kernel

import (
	"errors"
	"fmt"
	"sync/atomic"

	"histar/internal/label"
)

// Container snapshot/clone: O(metadata) sandbox creation.
//
// ContainerSnapshot captures a container subtree — containers, segments,
// gates, and address spaces, with their labels, quotas, and metadata — as
// images: unpublished kernel objects under ids of their own, copied from the
// live ones by dup and moved to fresh ids by renumber.  No table holds an
// image and no container links one, so no thread can name or change it.
// Segment contents are captured BY REFERENCE: the source segment's data slice
// is frozen (copy-on-write) at capture time, so a snapshot of a 64 MiB
// sandbox costs a subtree walk, not a 64 MiB copy.  Every capture is a new
// snapshot, registered under an id of its own.
//
// ContainerClone materializes a snapshot as a fresh subtree under a
// destination container by the same dup and renumber over the images: every
// object gets a fresh ID (internal references — container entries,
// address-space mappings, gate address spaces — are moved with it), labels
// are rewritten through a caller-supplied category remap (how a golden image
// baked with a template user's categories becomes one user's private
// sandbox), and cloned segments share the frozen data slices COW until first
// write.  The clone takes object locks only on the destination container, so
// spawning a sandbox is O(metadata) regardless of how many bytes the image
// carries.
//
// When a Pager is attached (pager.go), a snapshot's segments become persistent
// where they stand, the system is checkpointed, and each segment image's id
// names an alias of its master's store object, made in one Alias call — which
// is what lets the master be rewritten or die.  A clone's segments are
// aliases of the images' (persistent from birth: the alias dies with the
// segment), made in one call before the clone is published; the store refuses
// to alias bytes that have rotted, so a clone of a damaged image fails typed
// instead of sharing them.
//
// Threads and devices are skipped by the walk: a snapshot is a passive image
// (programs, file data, directory segments), and golden images are baked
// quiescent.  Thread-local segments never appear in containers, so they are
// never captured.

// Snapshot is one registered container snapshot.
type Snapshot struct {
	id    ID
	name  string
	imgs  []object // walk order, root first (parents before children)
	from  []ID     // from[i] is the master object imgs[i] was copied from
	types TypeMask // every captured object type, for the clone's admission
	bytes uint64
}

// SnapshotInfo is a snapshot's externally visible description.
type SnapshotInfo struct {
	// ID identifies the snapshot; clones name it.
	ID   ID
	Name string
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

// DropSnapshot unregisters a snapshot and deletes its images' store objects.
// Live clones are unaffected: their frozen slices keep the shared data alive
// and their own store aliases keep the shared extents referenced.
func (k *Kernel) DropSnapshot(id ID) error {
	k.snapMu.Lock()
	snap, ok := k.snapshots[id]
	delete(k.snapshots, id)
	k.snapMu.Unlock()
	if !ok {
		return ErrNotFound
	}
	ids, _ := segments(snap.imgs)
	k.unalias(ids)
	return nil
}

// dup copies o into a new object under o's id that no table holds and no
// container links: the one per-type copy, made by a capture of a live object
// (under its lock) and by a clone of an image (which nothing mutates).  A
// segment's bytes are shared, frozen; links, parent and references still name
// the old ids, and refs and usage are zero — renumber settles all of them.
func dup(o object) object {
	var n object
	switch v := o.(type) {
	case *container:
		n = &container{parent: v.parent, order: v.list(), avoidTypes: v.avoidTypes}
	case *segment:
		n = &segment{data: v.data, frozen: true}
	case *gate:
		n = &gate{gateLabel: v.gateLabel, clearance: v.clearance, addressSpace: v.addressSpace,
			entry: v.entry, closureArgs: v.closureArgs}
	case *addressSpace:
		n = &addressSpace{mappings: append([]Mapping(nil), v.mappings...)}
	}
	h := o.hdr()
	*n.hdr() = header{id: h.id, objType: h.objType, descrip: h.descrip, lbl: h.lbl, quota: h.quota,
		fixedQuota: h.fixedQuota, immutable: h.immutable, metadata: h.metadata}
	return n
}

// renumber moves dup's copies of a subtree (root first) to fresh ids and
// every reference among them — container links and parents, a gate's address
// space, an address space's mappings — with them; a reference leaving the
// subtree keeps its id, and a link to an object not copied (a thread, a
// device, one unlinked mid-walk) is dropped.  Counting refs reproduces
// hard-link structure: an object linked from two copied containers keeps two
// links, and the root one more, for the link its new home will hold.  Each
// container is charged its children's quotas, as their creation charged the
// master, so quota accounting inside a clone matches a from-scratch build.
func (k *Kernel) renumber(objs []object) {
	ids := make(map[ID]ID, len(objs))
	byID := make(map[ID]object, len(objs))
	for _, o := range objs {
		byID[o.hdr().id], ids[o.hdr().id] = o, k.newID()
	}
	move := func(ce CEnt) CEnt {
		if n, ok := ids[ce.Container]; ok {
			ce.Container = n
		}
		if n, ok := ids[ce.Object]; ok {
			ce.Object = n
		}
		return ce
	}
	for _, o := range objs {
		switch v := o.(type) {
		case *container:
			kids := v.order
			v.entries, v.order = make(map[ID]bool, len(kids)), nil
			for _, kid := range kids {
				if c, ok := byID[kid]; ok {
					v.link(ids[kid])
					c.hdr().refs++
					v.usage += c.hdr().quota // insert adds the object's own footprint
				}
			}
			if p, ok := ids[v.parent]; ok {
				v.parent = p
			}
		case *gate:
			v.addressSpace = move(v.addressSpace)
		case *addressSpace:
			for i := range v.mappings {
				v.mappings[i].Seg = move(v.mappings[i].Seg)
			}
		}
	}
	for _, o := range objs {
		o.hdr().id = ids[o.hdr().id]
	}
	objs[0].hdr().refs++
}

// segments lists the ids and labels of the segments among objs, in order:
// what the pager is asked to alias or delete.
func segments(objs []object) (ids []uint64, lbls []label.Label) {
	for _, o := range objs {
		if h := o.hdr(); h.objType == ObjSegment {
			ids, lbls = append(ids, uint64(h.id)), append(lbls, h.lbl)
		}
	}
	return ids, lbls
}

// alias asks the pager, if there is one, for every pair in one call; any
// failure deletes every dst of the call, so none is left half made.
func (k *Kernel) alias(src, dst []uint64, lbls []label.Label) error {
	if k.pager == nil {
		return nil
	}
	err := errors.Join(k.pager.Alias(src, dst, lbls)...)
	if err != nil {
		k.unalias(dst)
	}
	return err
}

// unalias deletes store objects no kernel object stands for (a snapshot's
// images, an unpublished clone's aliases).  A store that refuses is closed:
// there is nothing left to delete from.
func (k *Kernel) unalias(ids []uint64) {
	for _, id := range ids {
		if k.pager != nil {
			_ = k.pager.Delete(id)
		}
	}
}

// capture copies a live object under its own lock; nil means it has died.  A
// segment is paged in and frozen first and, with a pager, made persistent and
// pushed: a store object from now on, like any persistent segment, which the
// image aliases and which dies with the segment.
func (k *Kernel) capture(o object) (object, error) {
	h := o.hdr()
	h.mu.Lock()
	defer h.mu.Unlock()
	if !liveLocked(o) {
		return nil, nil
	}
	if s, ok := o.(*segment); ok {
		if err := s.fault(k); err != nil {
			return nil, err
		}
		s.frozen = true
		if k.pager != nil {
			if !s.persistent {
				s.persist()
			}
			if err := k.push(s); err != nil {
				return nil, err
			}
		}
	}
	return dup(o), nil
}

// ContainerSnapshot captures the subtree rooted at the container named by ce
// into a new registered snapshot (container_snapshot).  The invoking thread
// must be able to observe every captured object; threads and devices in the
// subtree are skipped.  Segment data is shared COW from this moment on.
// With a pager the captured segments become persistent and are pushed as
// they are captured; after a checkpoint, one Alias call gives every segment
// image a store object.  A failure registers nothing and leaves no alias.
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

	// Walk the subtree breadth-first, locking ONE object at a time, so the
	// walk adds no multi-object lock acquisitions to the discipline.  The
	// subtree must be quiescent for a perfectly consistent image — the
	// golden-image workflow bakes images before any clone runs — but the
	// walk itself is safe against concurrent mutation: each object's capture
	// is atomic under its own lock.
	snap := &Snapshot{id: k.newID(), name: name}
	seen := make(map[ID]bool)
	for queue := []ID{root.id}; len(queue) > 0; queue = queue[1:] {
		o, err := k.lookup(queue[0])
		if err != nil || seen[queue[0]] {
			continue // unlinked during the walk, or captured already
		}
		h := o.hdr()
		seen[h.id] = true
		if h.objType == ObjThread || h.objType == ObjDevice {
			continue
		}
		// Labels of non-thread objects are immutable; the check needs no
		// lock and failing it fails the snapshot — a subtree image with
		// holes would clone incompletely and silently.
		if !label.CanObserve(ctx.lbl, h.lbl) {
			return SnapshotInfo{}, ErrLabel
		}
		img, err := k.capture(o)
		if err != nil {
			return SnapshotInfo{}, fmt.Errorf("kernel: persisting snapshot %q: %w", name, err)
		}
		if img == nil {
			continue
		}
		snap.imgs, snap.from = append(snap.imgs, img), append(snap.from, h.id)
		snap.types |= Mask(h.objType)
		switch v := img.(type) {
		case *container:
			queue = append(queue, v.order...)
		case *segment:
			snap.bytes += uint64(len(v.data))
		}
	}
	if len(snap.imgs) == 0 {
		return SnapshotInfo{}, ErrNoSuchObject // the root died before its capture
	}

	src, _ := segments(snap.imgs)
	k.renumber(snap.imgs)
	dst, lbls := segments(snap.imgs)
	if k.pager != nil {
		err = k.pager.Checkpoint()
	}
	if err == nil {
		err = k.alias(src, dst, lbls)
	}
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("kernel: persisting snapshot %q: %w", name, err)
	}
	k.snapMu.Lock()
	k.snapshots[snap.id] = snap
	k.snapMu.Unlock()
	k.snap.snapshots.Add(1)
	return SnapshotInfo{ID: snap.id, Name: name, Root: root.id, Objects: len(snap.imgs), Bytes: snap.bytes}, nil
}

// remapLabel rewrites a label's categories through remap; ok is false when
// two of the label's categories land on one, whose levels would merge into
// whichever label.New keeps — {a3, b0} under {a→x, b→x} would become {x0}.
// Pairs() returns a copy, so the source label is never mutated.
func remapLabel(l label.Label, remap map[label.Category]label.Category) (label.Label, bool) {
	if len(remap) == 0 || l.NumExplicit() == 0 {
		return l, true
	}
	pairs := l.Pairs()
	for i := range pairs {
		if nc, ok := remap[pairs[i].Category]; ok {
			pairs[i].Category = nc
		}
	}
	n := label.New(l.Default(), pairs...)
	return n, n.NumExplicit() == len(pairs)
}

// relabel rewrites a cloned object's labels through remap and checks them as
// creating the object would: the invoking thread must be able to allocate at
// its label, and a gate's clearance must stay within the bounds GateCreate
// enforces.  (A gate's object label is its gate label, which holds no J, so
// the allocation check is already GateCreate's LT ⊑ LG ⊑ CT.)  A remap that
// merges two of a label's categories is ErrInvalid.
func (k *Kernel) relabel(ctx *tctx, o object, remap map[label.Category]label.Category) error {
	h := o.hdr()
	lbl, ok := remapLabel(h.lbl, remap)
	if !ok {
		return ErrInvalid
	}
	if !label.CanAllocate(ctx.lbl, ctx.clearance, lbl) {
		return ErrLabel
	}
	h.lbl = lbl
	g, isGate := o.(*gate)
	if !isGate {
		return nil
	}
	gl, ok := remapLabel(g.gateLabel, remap)
	clr, ok2 := remapLabel(g.clearance, remap)
	switch {
	case !ok || !ok2:
		return ErrInvalid
	case !clr.Leq(ctx.clearance):
		return ErrLabel
	}
	g.gateLabel, g.clearance = gl, clr
	return nil
}

// ContainerClone materializes snapshot id as a fresh subtree linked into
// container dst (container_clone).  Every object gets a fresh ID; labels are
// rewritten through remap (template-user categories → this clone's user),
// and the invoking thread must be able to allocate at every rewritten label
// and to write dst.  Cloned segments share the snapshot's data COW — the call
// copies no segment bytes.  With a pager attached the clone's segments are
// aliases of the images' store objects, made in one call before anything is
// published; if the store will not share them — the bytes have rotted, or it
// failed — the clone fails with ErrCorrupt and the pager's typed error in the
// chain.
func (tc *ThreadCall) ContainerClone(id ID, dst ID, remap map[label.Category]label.Category) (CloneResult, error) {
	ctx, err := tc.enter(scContainerClone)
	if err != nil {
		return CloneResult{}, err
	}
	k := tc.k
	k.snapMu.Lock()
	snap, ok := k.snapshots[id]
	k.snapMu.Unlock()
	if !ok {
		return CloneResult{}, ErrNotFound
	}
	dest, err := k.admit(&ctx, dst, snap.types)
	if err != nil {
		return CloneResult{}, err
	}

	// No locks: nothing mutates an image, and nothing can reach a copy
	// until it is published.
	built := make([]object, len(snap.imgs))
	for i, img := range snap.imgs {
		built[i] = dup(img)
	}
	k.renumber(built)
	built[0].(*container).parent = dst
	var shared uint64
	for _, o := range built {
		if err := k.relabel(&ctx, o, remap); err != nil {
			return CloneResult{}, err
		}
		if s, ok := o.(*segment); ok {
			s.persistent = k.pager != nil
			shared += uint64(len(s.data))
		}
	}

	// Store-side aliases, no kernel locks held, while the fresh ids are
	// still unreachable: once a thread can name a cloned segment it can write
	// and sync it, and a store object under that id would make the alias
	// fail.  A failure here, or of the publish below, deletes the aliases
	// asked for, so callers never see a half-durable sandbox.
	src, _ := segments(snap.imgs)
	made, lbls := segments(built)
	if err := k.alias(src, made, lbls); err != nil {
		return CloneResult{}, fmt.Errorf("%w: cloning snapshot %v: %w", ErrCorrupt, id, err)
	}

	// Publish under the destination container's lock — the only
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
	idMap := make(map[ID]ID, len(built))
	for i, o := range built {
		idMap[snap.from[i]] = o.hdr().id
	}
	return CloneResult{
		Root:        built[0].hdr().id,
		Objects:     len(built),
		SharedBytes: shared,
		IDMap:       idMap,
	}, nil
}
