package unixlib

import (
	"fmt"

	"histar/internal/kernel"
	"histar/internal/label"
)

// Golden-image spawn: the O(metadata) sandbox fast-path, built on the
// kernel's one copy primitive, SegmentCopy.
//
// A golden image is a per-user sandbox (programs, directory segments, any
// read-only state) built once at a template user's labels.  BakeGolden copies
// each segment of the build into one immutable {1} image container and keeps
// a manifest of the build.  Its init thread owns the template's categories,
// so that copy is an explicit declassification by their owner: a golden image
// is public by construction and must hold nothing a user may not read.
// SpawnFromGolden re-creates the build for a user, each segment a copy of the
// image's at the build's label with the template's categories replaced by
// the user's: a few calls per object, all through the kernel's ordinary
// checks, and no byte copied until a sandbox writes.  With a store, the bake
// syncs the image's segments once, so an evicted image pages back in
// verified and a rotted one fails the spawn typed.

// GoldenImage describes one baked sandbox image.
type GoldenImage struct {
	Name string
	// Root is the image container under the kernel root: {1}, immutable,
	// holding a copy of each segment of the build.  Unref drops the image.
	Root kernel.ID
	// Template is the user whose categories label the build (nil: public).
	Template *User
	// Objects and Bytes count the build's objects and segment bytes.
	Objects int
	Bytes   uint64
	objs    []goldenObject // the manifest, parents first, the build's root first
}

// goldenObject is one container or segment of the build.
type goldenObject struct {
	parent  int // index of the containing entry; -1 for the root
	typ     kernel.ObjectType
	lbl     label.Label
	descrip string
	quota   uint64    // a container's
	seg     kernel.ID // a segment's copy in the image
}

// sandboxLabel is the label sandbox data carries: private to the owning user
// ({ur3, uw0, 1}), or public ({1}) when owner is nil.
func sandboxLabel(owner *User) label.Label {
	if owner == nil {
		return label.New(label.L1)
	}
	return label.New(label.L1, label.P(owner.Ur, label.L3), label.P(owner.Uw, label.L0))
}

// goldenSegChunk is the segment granularity sandbox data is split into.
const goldenSegChunk = 8 << 20

// populateSandbox fills a sandbox container with nbytes of deterministic
// read-only data split into goldenSegChunk segments, writing every byte —
// the cost golden spawns amortize away.
func populateSandbox(tc *kernel.ThreadCall, sandbox kernel.ID, owner *User, nbytes int) error {
	lbl := sandboxLabel(owner)
	for off, i := 0, 0; off < nbytes; i++ {
		n := min(nbytes-off, goldenSegChunk)
		sid, err := tc.SegmentCreate(sandbox, lbl, fmt.Sprintf("sandbox data %d", i), n)
		if err != nil {
			return err
		}
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(off + j)
		}
		if err := tc.SegmentWrite(kernel.CEnt{Container: sandbox, Object: sid}, 0, data); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// BakeGolden creates a scratch sandbox container under the kernel root at
// the template's label, runs build to populate it, copies what it built into
// a new image and unreferences the scratch container.  Threads and devices in
// the build are skipped; a gate or an address space fails the bake with
// ErrInvalid, since a spawn could not re-create it.
func (sys *System) BakeGolden(name string, tmpl *User, build func(tc *kernel.ThreadCall, sandbox kernel.ID) error) (*GoldenImage, error) {
	tc, root := sys.initTC, sys.Kern.RootContainer()
	sandbox, err := tc.ContainerCreate(root, sandboxLabel(tmpl), "golden "+name, 0, kernel.QuotaInfinite)
	if err != nil {
		return nil, err
	}
	defer func() { _ = tc.Unref(root, sandbox) }()
	img := &GoldenImage{Name: name, Template: tmpl}
	if build != nil {
		err = build(tc, sandbox)
	}
	if err == nil {
		img.Root, err = tc.ContainerCreate(root, label.New(label.L1), "golden image "+name, 0, kernel.QuotaInfinite)
		if err == nil {
			if err = sys.copyIn(img, root, sandbox); err != nil {
				_ = tc.Unref(root, img.Root)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("baking golden image %q: %w", name, err)
	}
	return img, nil
}

// copyIn walks the build breadth-first into the manifest, copying each
// segment into the image; then, with a store, syncs the copies in one call,
// and makes them and the image immutable.
func (sys *System) copyIn(img *GoldenImage, root, sandbox kernel.ID) error {
	tc := sys.initTC
	type entry struct {
		ce     kernel.CEnt
		parent int
	}
	var copies []kernel.CEnt
	for queue := []entry{{kernel.CEnt{Container: root, Object: sandbox}, -1}}; len(queue) > 0; queue = queue[1:] {
		ce := queue[0].ce
		st, err := tc.ObjectStat(ce)
		if err != nil {
			return err
		}
		o := goldenObject{parent: queue[0].parent, typ: st.Type, lbl: st.Label, descrip: st.Descrip, quota: st.Quota}
		switch st.Type {
		case kernel.ObjThread, kernel.ObjDevice:
			continue
		case kernel.ObjContainer:
			kids, err := tc.ContainerList(kernel.Self(ce.Object))
			if err != nil {
				return err
			}
			for _, kid := range kids {
				queue = append(queue, entry{kernel.CEnt{Container: ce.Object, Object: kid}, len(img.objs)})
			}
		case kernel.ObjSegment:
			n, err := tc.SegmentLen(ce)
			if err == nil {
				o.seg, err = tc.SegmentCopy(ce, img.Root, label.New(label.L1), st.Descrip)
			}
			if err != nil {
				return err
			}
			img.Bytes += uint64(n)
			copies = append(copies, kernel.CEnt{Container: img.Root, Object: o.seg})
			sys.markPersistent(tc, copies[len(copies)-1])
		default:
			return fmt.Errorf("%w: a %v in the sandbox", ErrInvalid, st.Type)
		}
		img.objs = append(img.objs, o)
	}
	img.Objects = len(img.objs)
	if sys.persist && len(copies) > 0 {
		if err := tc.SyncSegments(copies...); err != nil {
			return err
		}
	}
	for _, ce := range append(copies, kernel.Self(img.Root)) {
		if err := tc.ObjectSetImmutable(ce); err != nil {
			return err
		}
	}
	return nil
}

// BakeGoldenData bakes a golden image holding nbytes of read-only sandbox
// data (the common case; BakeGolden takes an arbitrary builder).
func (sys *System) BakeGoldenData(name string, tmpl *User, nbytes int) (*GoldenImage, error) {
	return sys.BakeGolden(name, tmpl, func(tc *kernel.ThreadCall, sandbox kernel.ID) error {
		return populateSandbox(tc, sandbox, tmpl, nbytes)
	})
}

// SpawnFromGolden builds user u's sandbox from the image in container dst
// and returns its root: each container of the build re-created, each segment
// copied out of the image, at the labels the build gave them with the
// template's categories replaced by u's.  The invoking thread must be able
// to write dst and allocate at those labels — in the web server, the worker
// thread right after gate login.  A failed spawn leaves nothing behind.
func (sys *System) SpawnFromGolden(tc *kernel.ThreadCall, img *GoldenImage, dst kernel.ID, u *User) (kernel.ID, error) {
	ids := make([]kernel.ID, len(img.objs))
	var err error
	for i, o := range img.objs {
		parent, lbl := dst, img.spawnLabel(o.lbl, u)
		if o.parent >= 0 {
			parent = ids[o.parent]
		}
		if o.typ == kernel.ObjContainer {
			ids[i], err = tc.ContainerCreate(parent, lbl, o.descrip, 0, o.quota)
		} else {
			ids[i], err = tc.SegmentCopy(kernel.CEnt{Container: img.Root, Object: o.seg}, parent, lbl, o.descrip)
		}
		if err != nil {
			if i > 0 {
				_ = tc.Unref(dst, ids[0])
			}
			return kernel.NilID, fmt.Errorf("spawning from golden image %q: %w", img.Name, err)
		}
	}
	return ids[0], nil
}

// spawnLabel is l with the template's categories replaced by u's.
func (img *GoldenImage) spawnLabel(l label.Label, u *User) label.Label {
	if img.Template == nil || u == nil {
		return l
	}
	pairs := l.Pairs()
	for i, p := range pairs {
		switch p.Category {
		case img.Template.Ur:
			pairs[i].Category = u.Ur
		case img.Template.Uw:
			pairs[i].Category = u.Uw
		}
	}
	return label.New(l.Default(), pairs...)
}
