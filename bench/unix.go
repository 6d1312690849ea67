package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"histar/internal/label"
	"histar/internal/unixlib"
)

const (
	buildSources    = 40
	buildSourceSize = 2048
	// buildBurn is the fixed CPU a compile burns, as in bench_test.go's
	// Figure 13 build row.
	buildBurn = 20000
)

// ccSum is the "object code" /bin/cc produces: the build row's fixed
// 20 000-iteration loop, folded over the source bytes so a wrong read shows
// in the output.
func ccSum(src []byte) int {
	sum := 0
	for i := 0; i < buildBurn; i++ {
		sum += i ^ int(src[i%len(src)])
	}
	return sum
}

func buildSourcePath(i int) string { return "/tmp/src/u" + strconv.Itoa(i) + ".c" }

// setupUnixBuild prepares the Figure 13 build row, no store attached: per unit the
// parent Spawns /bin/cc (every 4th unit Fork+Exec, the two Figure 12
// process-creation rows), the child reads the source, burns CPU, writes the
// .o and exits; the parent Waits, checks the status and the .o, and Unlinks
// it.  One op is one unit; N is the unit count.
func setupUnixBuild(t *trial) (func() error, error) {
	r, err := bootRig(nil)
	if err != nil {
		return nil, err
	}
	t.rig = r
	p := r.proc
	err = r.sys.RegisterProgram("/bin/cc", func(proc *unixlib.Process, args []string) int {
		src, err := proc.ReadFile(args[0])
		if err != nil || len(src) == 0 {
			return 1
		}
		if err := proc.WriteFile(args[0]+".o", []byte(strconv.Itoa(ccSum(src))), label.New(label.L1)); err != nil {
			return 1
		}
		return 0
	})
	if err != nil {
		return nil, err
	}
	if err := p.Mkdir("/tmp/src", label.New(label.L1)); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(t.spec.Seed))
	want := make([][]byte, buildSources)
	for i := range want {
		src := make([]byte, buildSourceSize)
		rng.Read(src)
		if err := p.WriteFile(buildSourcePath(i), src, label.New(label.L1)); err != nil {
			return nil, err
		}
		want[i] = []byte(strconv.Itoa(ccSum(src)))
	}

	return func() error {
		buildUnits(t, p, want)
		return nil
	}, nil
}

// buildUnits is unix_build's measured window.
func buildUnits(t *trial, p *unixlib.Process, want [][]byte) {
	c := t.clients[0]
	t.beginWindow(t.spec.N)
	for u := 0; u < t.spec.N; u++ {
		i := u % buildSources
		args := []string{buildSourcePath(i)}
		obj := args[0] + ".o"
		c.op(func() error {
			var child *unixlib.Process
			var err error
			if u%4 == 3 {
				err = c.call("unixlib.forkexec", func() error {
					if child, err = p.Fork(); err != nil {
						return err
					}
					return child.Exec("/bin/cc", args)
				})
			} else {
				err = c.call("unixlib.spawn", func() error {
					child, err = p.Spawn("/bin/cc", args)
					return err
				})
			}
			if err != nil {
				return err
			}
			var status int
			if err := c.call("unixlib.wait", func() error {
				status, err = p.Wait(child)
				return err
			}); err != nil {
				return err
			}
			if status != 0 {
				return fmt.Errorf("cc %s: exit status %d", args[0], status)
			}
			var got []byte
			if err := c.call("unixlib.read_cached", func() error {
				got, err = p.ReadFile(obj)
				return err
			}); err != nil {
				return err
			}
			if err := c.check(obj, got, want[i]); err != nil {
				return err
			}
			return c.call("unixlib.unlink", func() error { return p.Unlink(obj) })
		})
	}
	t.endWindow()
}
