package unixlib

import (
	"errors"
	"sync"
	"testing"

	"histar/internal/kernel"
	"histar/internal/label"
)

// threadLabels returns tc's label and clearance.
func threadLabels(t *testing.T, tc *kernel.ThreadCall) (lbl, clr label.Label) {
	t.Helper()
	lbl, err := tc.SelfLabel()
	if err != nil {
		t.Fatal(err)
	}
	clr, err = tc.SelfClearance()
	if err != nil {
		t.Fatal(err)
	}
	return lbl, clr
}

// TestSpawnWaitIsHistoryIndependent: after any number of children created and
// reaped, the parent's label and clearance and the kernel's object count are
// what they were before the first — which is what makes spawn i cost what
// spawn 1 cost.  (The timing form of the property is the benchmark's
// spawn_us first/last decile pair.)
func TestSpawnWaitIsHistoryIndependent(t *testing.T) {
	sys := bootSys(t)
	if err := sys.RegisterProgram("/bin/true", func(p *Process, args []string) int { return 0 }); err != nil {
		t.Fatal(err)
	}
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	lbl0, clr0 := threadLabels(t, p.TC)
	initLbl0, initClr0 := threadLabels(t, sys.InitThread())
	objs0 := sys.Kern.ObjectCount()
	for i := 0; i < 300; i++ {
		var child *Process
		if i%2 == 0 {
			child, err = p.Spawn("/bin/true", nil)
		} else if child, err = p.Fork(); err == nil {
			err = child.Exec("/bin/true", nil)
		}
		if err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		if st, err := p.Wait(child); err != nil || st != 0 {
			t.Fatalf("unit %d: wait = %d, %v", i, st, err)
		}
		if lbl, clr := threadLabels(t, p.TC); !lbl.Equal(lbl0) || !clr.Equal(clr0) {
			t.Fatalf("unit %d: parent label %v clearance %v, want %v and %v", i, lbl, clr, lbl0, clr0)
		}
	}
	if got := sys.Kern.ObjectCount(); got != objs0 {
		t.Errorf("object count %d after 300 units, %d before", got, objs0)
	}
	// The bootstrap thread is a creator too; it keeps the users' categories
	// and nothing of the processes it built.
	for i := 0; i < 10; i++ {
		q, err := sys.NewInitProcess("alice")
		if err != nil {
			t.Fatal(err)
		}
		q.ExitQuietly()
	}
	if lbl, clr := threadLabels(t, sys.InitThread()); !lbl.Equal(initLbl0) || !clr.Equal(initClr0) {
		t.Errorf("init label %v clearance %v, want %v and %v", lbl, clr, initLbl0, initClr0)
	}
}

// TestKillAfterShed: a parent that no longer owns its child's categories can
// still signal it, because the signal gate lends them for the call — and
// takes them back.
func TestKillAfterShed(t *testing.T) {
	sys := bootSys(t)
	release := make(chan struct{})
	if err := sys.RegisterProgram("/bin/sleeper", func(p *Process, args []string) int {
		<-release
		return p.HandlePendingSignals()
	}); err != nil {
		t.Fatal(err)
	}
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	lbl0, clr0 := threadLabels(t, p.TC)
	child, err := p.Spawn("/bin/sleeper", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lbl, _ := threadLabels(t, p.TC); lbl.Owns(child.Pr) || lbl.Owns(child.Pw) {
		t.Fatalf("parent still owns the child's categories after Spawn: %v", lbl)
	}
	if err := p.Kill(child, SIGUSR1); err != nil {
		t.Fatalf("kill after shed: %v", err)
	}
	if lbl, clr := threadLabels(t, p.TC); !lbl.Equal(lbl0) || !clr.Equal(clr0) {
		t.Errorf("after Kill: label %v clearance %v, want %v and %v", lbl, clr, lbl0, clr0)
	}
	close(release)
	if st, err := p.Wait(child); err != nil || st != 1 {
		t.Errorf("child handled %d signals (%v), want 1", st, err)
	}
}

// TestParentCannotReadChildAfterSpawn: once Spawn or Fork has returned, the
// creator is a stranger to the child's private state (ROADMAP aim 3), while
// the exit segment stays readable and Wait keeps working.
func TestParentCannotReadChildAfterSpawn(t *testing.T) {
	sys := bootSys(t)
	release := make(chan struct{})
	if err := sys.RegisterProgram("/bin/sleeper", func(p *Process, args []string) int {
		<-release
		return 7
	}); err != nil {
		t.Fatal(err)
	}
	p, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	spawned, err := p.Spawn("/bin/sleeper", nil)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	for name, child := range map[string]*Process{"spawn": spawned, "fork": forked} {
		// A segment in the child's internal container ({pr3, pw0, 1}), named
		// by the child itself.
		maps, err := child.TC.AddressSpaceGet(child.AS)
		if err != nil || len(maps) == 0 {
			t.Fatalf("%s: child address space: %v, %v", name, maps, err)
		}
		if _, err := p.TC.SegmentRead(maps[0].Seg, 0, 8); !errors.Is(err, kernel.ErrLabel) {
			t.Errorf("%s: parent read of the child's text segment: %v, want ErrLabel", name, err)
		}
		if _, err := p.TC.ContainerList(kernel.CEnt{Container: child.ProcCt, Object: child.IntCt}); !errors.Is(err, kernel.ErrLabel) {
			t.Errorf("%s: parent listing of the child's internal container: %v, want ErrLabel", name, err)
		}
		if err := p.TC.SegmentWrite(child.ExitSeg, 0, make([]byte, exitSegSize)); !errors.Is(err, kernel.ErrLabel) {
			t.Errorf("%s: parent write of the child's exit segment: %v, want ErrLabel", name, err)
		}
		if _, err := p.TC.SegmentRead(child.ExitSeg, 0, exitSegSize); err != nil {
			t.Errorf("%s: parent read of the child's exit segment: %v", name, err)
		}
	}
	close(release)
	if st, err := p.Wait(spawned); err != nil || st != 7 {
		t.Errorf("wait(spawned) = %d, %v", st, err)
	}
	if st := forked.Run(func(*Process, []string) int { return 9 }, nil); st != 9 {
		t.Fatalf("forked.Run = %d", st)
	}
	if st, err := p.Wait(forked); err != nil || st != 9 {
		t.Errorf("wait(forked) = %d, %v", st, err)
	}
}

// TestConcurrentInitProcessSpawnWait drives the bootstrap thread — one kernel
// thread — from eight goroutines at once.  Each NewInitProcess allocates two
// categories on it and sheds them; a shed that interleaved with another
// goroutine's allocation would strip that goroutine's fresh stars and its
// build would fail with a label error.
func TestConcurrentInitProcessSpawnWait(t *testing.T) {
	sys := bootSys(t)
	if err := sys.RegisterProgram("/bin/true", func(p *Process, args []string) int { return 0 }); err != nil {
		t.Fatal(err)
	}
	initLbl0, initClr0 := threadLabels(t, sys.InitThread())
	objs0 := sys.Kern.ObjectCount()
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p, err := sys.NewInitProcess("")
				if err != nil {
					t.Errorf("worker %d round %d: NewInitProcess: %v", w, i, err)
					return
				}
				child, err := p.Spawn("/bin/true", nil)
				if err != nil {
					t.Errorf("worker %d round %d: spawn: %v", w, i, err)
					return
				}
				if st, err := p.Wait(child); err != nil || st != 0 {
					t.Errorf("worker %d round %d: wait = %d, %v", w, i, st, err)
					return
				}
				p.ExitQuietly()
				if err := sys.InitThread().Unref(sys.Kern.RootContainer(), p.ProcCt); err != nil {
					t.Errorf("worker %d round %d: reap: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if lbl, clr := threadLabels(t, sys.InitThread()); !lbl.Equal(initLbl0) || !clr.Equal(initClr0) {
		t.Errorf("init label %v clearance %v, want %v and %v", lbl, clr, initLbl0, initClr0)
	}
	if got := sys.Kern.ObjectCount(); got != objs0 {
		t.Errorf("object count %d after %d processes, %d before", got, workers*rounds, objs0)
	}
}
