package unixlib

import (
	"fmt"

	"histar/internal/kernel"
	"histar/internal/label"
)

// Golden-image spawn: the O(metadata) sandbox fast-path.
//
// A golden image is a container snapshot of a pre-baked per-user sandbox —
// programs, directory segments, a scanner database, whatever read-only state
// every user's environment starts from — captured once with a template
// user's categories.  SpawnFromGolden clones it for a real user in
// O(metadata): the kernel remaps the template categories to the user's own
// and shares every data byte copy-on-write, so spawning a 64 MiB sandbox
// costs a subtree walk instead of a 64 MiB build.
//
// When the system booted with a persistent store, a golden image holds
// store objects of its own — aliases of the baked segments' extents — and a
// spawn's segments are aliases of those: the store never reclaims an extent
// a referent still reads and refuses to alias one it has found rotted, so a
// damaged image fails the spawn with a typed error instead of fanning bad
// bytes out to every sandbox, and a sandbox's store objects die with it.

// GoldenImage describes one baked sandbox image.
type GoldenImage struct {
	// Name is the label the image was baked under; Lineage identifies the
	// kernel snapshot clones name.
	Name    string
	Lineage uint64
	// Root is the baked template subtree's root container (still linked
	// under the kernel root container; it is the master copy).
	Root kernel.ID
	// Template is the user whose categories label the image's private data;
	// SpawnFromGolden remaps them to the spawning user's.  A nil Template
	// bakes a fully public image.
	Template *User
	// Objects and Bytes describe the image: captured object count and total
	// segment data (shared, not copied, by each spawn).
	Objects int
	Bytes   uint64
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
		n := nbytes - off
		if n > goldenSegChunk {
			n = goldenSegChunk
		}
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

// BakeGolden creates a sandbox container under the kernel root, runs build
// to populate it, and captures it as a container snapshot.  The bootstrap
// thread owns every user's categories, so it can bake images holding the
// template user's private data.
func (sys *System) BakeGolden(name string, tmpl *User, build func(tc *kernel.ThreadCall, sandbox kernel.ID) error) (*GoldenImage, error) {
	tc := sys.initTC
	root := sys.Kern.RootContainer()
	sandbox, err := tc.ContainerCreate(root, sandboxLabel(tmpl), "golden "+name, 0, kernel.QuotaInfinite)
	if err != nil {
		return nil, err
	}
	if build != nil {
		if err := build(tc, sandbox); err != nil {
			_ = tc.Unref(root, sandbox)
			return nil, fmt.Errorf("baking golden image %q: %w", name, err)
		}
	}
	info, err := tc.ContainerSnapshot(kernel.CEnt{Container: root, Object: sandbox}, name)
	if err != nil {
		_ = tc.Unref(root, sandbox)
		return nil, fmt.Errorf("snapshotting golden image %q: %w", name, err)
	}
	return &GoldenImage{
		Name:     name,
		Lineage:  info.Lineage,
		Root:     sandbox,
		Template: tmpl,
		Objects:  info.Objects,
		Bytes:    info.Bytes,
	}, nil
}

// BakeGoldenData bakes a golden image holding nbytes of read-only sandbox
// data (the common case; BakeGolden takes an arbitrary builder).
func (sys *System) BakeGoldenData(name string, tmpl *User, nbytes int) (*GoldenImage, error) {
	return sys.BakeGolden(name, tmpl, func(tc *kernel.ThreadCall, sandbox kernel.ID) error {
		return populateSandbox(tc, sandbox, tmpl, nbytes)
	})
}

// SpawnFromGolden clones the golden image into dst for user u, remapping the
// template user's categories to u's, and returns the kernel's clone result
// (fresh sandbox root, object count, bytes shared COW).  The invoking thread
// must hold u's categories — in the web server this is the worker thread
// right after gate login.  Spawns are O(metadata): no segment byte is
// copied until a clone first writes it.
func (sys *System) SpawnFromGolden(tc *kernel.ThreadCall, img *GoldenImage, dst kernel.ID, u *User) (kernel.CloneResult, error) {
	var remap map[label.Category]label.Category
	if img.Template != nil && u != nil {
		remap = map[label.Category]label.Category{
			img.Template.Ur: u.Ur,
			img.Template.Uw: u.Uw,
		}
	}
	res, err := tc.ContainerClone(img.Lineage, dst, remap)
	if err != nil {
		return kernel.CloneResult{}, fmt.Errorf("spawning from golden image %q: %w", img.Name, err)
	}
	return res, nil
}
