// Example: golden-image sandbox spawning.  A 64 MiB per-user sandbox —
// programs, data files, a scanner database — is baked once under a template
// user's categories and captured as a container snapshot.  Spawning a
// sandbox for a real user is then a ContainerClone: an O(metadata) walk
// that remaps the template's categories to the user's and shares every data
// byte copy-on-write.  The example bakes the image (writing every byte
// once), spawns N sandboxes from it, prints the spawn latency against the
// bake and the shared-vs-copied byte ledger, then has one user scribble on a
// private copy to show the COW break leaving everyone else's bytes untouched.
package main

import (
	"fmt"
	"log"
	"time"

	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/unixlib"
)

func main() {
	log.SetFlags(0)
	const (
		sandboxBytes = 64 << 20
		nUsers       = 8
	)
	sys, err := unixlib.Boot(unixlib.BootOptions{KernelConfig: kernel.Config{Seed: 12}})
	if err != nil {
		log.Fatal(err)
	}
	tc := sys.InitThread()
	root := sys.Kern.RootContainer()

	// Bake the golden image once, under a template user.
	tmpl, err := sys.AddUser("template")
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	img, err := sys.BakeGoldenData("example-sandbox", tmpl, sandboxBytes)
	if err != nil {
		log.Fatal(err)
	}
	bake := time.Since(t0)
	fmt.Printf("baked golden image %q: %d objects, %d MiB, lineage %#x (%v)\n",
		img.Name, img.Objects, img.Bytes>>20, img.Lineage, bake.Round(time.Millisecond))

	spawns, err := tc.ContainerCreate(root, label.New(label.L1), "spawns", 0, kernel.QuotaInfinite)
	if err != nil {
		log.Fatal(err)
	}

	// Golden spawns: one clone per user, categories remapped to each user's.
	var roots []kernel.ID
	var users []*unixlib.User
	t0 = time.Now()
	for i := 0; i < nUsers; i++ {
		u, err := sys.AddUser(fmt.Sprintf("user%d", i))
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.SpawnFromGolden(tc, img, spawns, u)
		if err != nil {
			log.Fatal(err)
		}
		roots = append(roots, res.Root)
		users = append(users, u)
	}
	spawnAll := time.Since(t0)
	perSpawn := spawnAll / nUsers
	st := sys.Kern.SnapshotStats()
	fmt.Printf("%d golden spawns: %v total, %v each (%.0fx faster than the bake, which wrote every byte)\n",
		nUsers, spawnAll.Round(time.Microsecond), perSpawn.Round(time.Microsecond),
		float64(bake)/float64(perSpawn))
	fmt.Printf("bytes shared COW: %d MiB; bytes copied: %d (%d COW breaks)\n",
		st.SharedBytes>>20, st.CopiedBytes, st.CowBreaks)

	// One user rewrites a corner of their sandbox: the first write breaks
	// COW for that segment only, in that user's copy only.
	kids, err := tc.ContainerList(kernel.Self(roots[0]))
	if err != nil {
		log.Fatal(err)
	}
	var seg kernel.ID
	for _, kid := range kids {
		if s, err := tc.ObjectStat(kernel.CEnt{Container: roots[0], Object: kid}); err == nil && s.Type == kernel.ObjSegment {
			seg = kid
			break
		}
	}
	if err := tc.SegmentWrite(kernel.CEnt{Container: roots[0], Object: seg}, 0, []byte("user0 was here")); err != nil {
		log.Fatal(err)
	}
	st = sys.Kern.SnapshotStats()
	fmt.Printf("after user0's first write: %d COW breaks, %d bytes copied (everyone else still shares)\n",
		st.CowBreaks, st.CopiedBytes)

	// The master image and user1's clone are untouched.
	for _, ct := range []kernel.ID{img.Root, roots[1]} {
		kids, err := tc.ContainerList(kernel.Self(ct))
		if err != nil {
			log.Fatal(err)
		}
		for _, kid := range kids {
			if s, err := tc.ObjectStat(kernel.CEnt{Container: ct, Object: kid}); err == nil && s.Type == kernel.ObjSegment {
				b, err := tc.SegmentRead(kernel.CEnt{Container: ct, Object: kid}, 0, 14)
				if err != nil {
					log.Fatal(err)
				}
				if string(b) == "user0 was here" {
					log.Fatalf("COW leak: container %d saw user0's write", ct)
				}
				break
			}
		}
	}
	fmt.Printf("master image and user %q's sandbox unaffected by user0's write\n", users[1].Name)
}
