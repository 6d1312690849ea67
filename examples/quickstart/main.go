// Quickstart: boot a HiStar instance, allocate categories, and watch the
// kernel's information-flow checks allow and refuse operations.  This is the
// smallest end-to-end tour of the public API: labels, threads, segments, and
// self-tainting.
package main

import (
	"fmt"
	"log"

	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/unixlib"
)

func main() {
	log.SetFlags(0)
	sys, err := unixlib.Boot(unixlib.BootOptions{KernelConfig: kernel.Config{Seed: 1}})
	if err != nil {
		log.Fatal(err)
	}
	alice, err := sys.NewInitProcess("alice")
	if err != nil {
		log.Fatal(err)
	}
	mallory, err := sys.NewInitProcess("mallory")
	if err != nil {
		log.Fatal(err)
	}

	// Alice writes a private file: labeled {alice_r 3, alice_w 0, 1}.
	if err := alice.WriteFile("/home/alice/secret.txt", []byte("the plans"), label.Label{}); err != nil {
		log.Fatal(err)
	}
	fi, _ := alice.Stat("/home/alice/secret.txt")
	u, _ := sys.LookupUser("alice")
	fmt.Printf("alice's file label: %s (alice_r is c%d, alice_w c%d)\n", fi.Label, uint64(u.Ur), uint64(u.Uw))

	// Mallory cannot read or overwrite it: the kernel, not the library,
	// refuses.
	if _, err := mallory.ReadFile("/home/alice/secret.txt"); err != nil {
		fmt.Println("mallory read  ->", err)
	}
	if err := mallory.WriteFile("/home/alice/secret.txt", []byte("haha"), label.New(label.L1)); err != nil {
		fmt.Println("mallory write ->", err)
	}

	// A thread can taint itself to read more-tainted data, but then cannot
	// write anything less tainted — information flows only upward.
	c, _ := alice.TC.CategoryCreate()
	if err := alice.WriteFile("/tmp/tainted-notes", []byte("secret project"), label.New(label.L1, label.P(c, label.L2))); err != nil {
		log.Fatal(err)
	}
	reader, _ := sys.NewInitProcess("reader")
	fd, err := reader.Open("/tmp/tainted-notes", unixlib.ORead)
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := reader.Pread(fd, buf, 0); err != nil {
		fmt.Println("untainted reader   ->", err)
	}
	lbl, _ := reader.TC.SelfLabel()
	if err := reader.TC.SelfSetLabel(lbl.With(c, label.L2)); err != nil {
		log.Fatal(err)
	}
	n, err := reader.Pread(fd, buf, 0)
	fmt.Printf("after self-taint   -> reads %q (err=%v)\n", buf[:n], err)
	if err := reader.WriteFile("/tmp/untainted-out", buf[:n], label.New(label.L1)); err != nil {
		fmt.Println("but cannot export  ->", err)
	}
	fmt.Println("quickstart done")
}
